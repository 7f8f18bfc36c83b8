"""Composed tables of orthogonal sums, and nondegeneracy, against a
from-scratch oracle.

A form built by orthogonal_sum or canonical_order takes its Gram entries
and Gram key from its summands, and composes its norm fingerprint, norm
table and coordinate tensor from their tables.  Every form, composed or
not, answers is_nondegenerate by one rank on its coordinate tensor and a
dimension count of the dual.  The oracle below computes each of them from
the form alone: the entries coerced again, the tensor (raw coordinates)
with evaluate on every pair of scalar basis vectors, b(x, x) of every
element by bilinearity from that tensor, and nondegeneracy as the rank of
the adjoint into a freshly built dual module.  Both must agree on every
class the engine enumerates, on every sum of two classes (the forms
class enumeration adds up and the pairwise presentation oracle of
test_intsnf.py looks up), on permuted copies of parsed forms, on sums
with a degenerate summand, on sampled Gram tables (degenerate ones too)
and on a coefficient whose dual is larger than the module."""

import random
from collections import Counter

import pytest

from wittkit.coefficients import DualityCoefficient, DualModule, standard_coefficient
from wittkit.forms import (
    HermitianForm,
    _norm_table,
    canonical_order,
    diagonal_form,
    orthogonal_sum,
)
from wittkit.linalg import Matrix, unit_vector
from wittkit.modules import free_module, module_from_shape
from wittkit.parser import parse_ring_with_involution
from wittkit.wittgroup import WittEngine, sample_gram_tables

from oracles import int_elements


def scratch_coord_tensor(form):
    M = form.module
    I = form.coef.module
    units = [M.from_vec(unit_vector(M.F, M.sdim, c)) for c in range(M.sdim)]
    return [[I.to_ints(form.evaluate(x, y)) for y in units] for x in units]


def scratch_norm_table(form):
    p = form.module.F.p
    tensor = scratch_coord_tensor(form)
    isd = form.coef.module.sdim
    out = []
    for x in int_elements(form.module):
        acc = [0] * isd
        for a, xa in enumerate(x):
            for b, xb in enumerate(x):
                for s in range(isd):
                    acc[s] += xa * xb * tensor[a][b][s]
        out.append(tuple(v % p for v in acc))
    return out


def scratch_fingerprint(form):
    return tuple(sorted(Counter(scratch_norm_table(form)).items()))


def scratch_nondegenerate(form):
    """Whether y -> b(., y) is a bijection onto a dual module built here,
    with b read off the scratch tensor."""
    M = form.module
    I = form.coef.module
    dual = DualModule(form.coef, M)
    d = M.sdim
    if dual.module.sdim != d:
        return False
    if d == 0:
        return True
    tensor = scratch_coord_tensor(form)
    cols = []
    for c2 in range(d):
        H = Matrix(M.F, [[tensor[c1][c2][s] for c1 in range(d)] for s in range(I.sdim)])
        cols.append(dual.module.to_vec(dual.element_of_hom(H)))
    return Matrix.from_cols(M.F, cols).rank() == d


def assert_tables_match(form):
    # the Gram entries and key a sum takes from its summands, against
    # entries coerced through FLModule.element and a key read off them
    coerced = HermitianForm(form.coef, form.module, form.gram, form.epsilon, check=False)
    assert form.gram == coerced.gram
    assert form.gram_key() == coerced.gram_key()
    assert form.norm_fingerprint() == scratch_fingerprint(form)
    assert _norm_table(form) == scratch_norm_table(form)
    assert form._coord_tensor() == scratch_coord_tensor(form)
    assert form.is_nondegenerate() == scratch_nondegenerate(form)


def is_permuted(f, g, s):
    """Whether the sum s = f + g lists its factors in another order than
    f's followed by g's."""
    return [x.key for x in s.module.factors] != [x.key for x in f.module.factors + g.module.factors]


CASES = [
    # (ring with involution, epsilon, bound, whether some sum is permuted)
    ("GF(3), sigma=id", 1, 6, False),
    ("GF(3), sigma=id", -1, 6, False),
    ("GF(5), sigma=id", 1, 4, False),
    ("GF(9), sigma=id", 1, 3, False),
    ("GF(9), sigma=frobenius", 1, 3, False),
    ("GF(9), sigma=frobenius", -1, 3, False),
    ("GF(3)[t]/(t^2), sigma=id", 1, 5, True),
    ("GF(3)[t]/(t^2), sigma=t->-t", 1, 4, False),
    ("GF(3)[t]/(t^2), sigma=t->-t", -1, 5, True),
    ("GF(3)[t]/(t^3), sigma=id", 1, 4, True),
    ("GF(3)xGF(3), sigma=swap", 1, 4, True),
    ("GF(3)xGF(3), sigma=swap", -1, 4, True),
]


@pytest.mark.parametrize("text, epsilon, bound, permutes", CASES,
                         ids=[f"{c[0]} {c[1]:+d} {c[2]}" for c in CASES])
def test_composed_tables_match_the_oracle(text, epsilon, bound, permutes):
    rwi = parse_ring_with_involution(text)
    engine = WittEngine(standard_coefficient(rwi), epsilon)
    classes = []
    for m in engine.shapes_up_to(bound):
        classes.extend(engine.classes(m))
    for f in classes:
        assert_tables_match(f)
    seen_permuted = False
    for i, f in enumerate(classes):
        for g in classes[i:]:
            if f.module.length + g.module.length > bound:
                continue
            # fresh sums: their tables are composed here, not taken from
            # the engine's caches
            s = orthogonal_sum(f, g)
            assert_tables_match(s)
            seen_permuted |= is_permuted(f, g, s)
    assert seen_permuted == permutes


@pytest.mark.parametrize("text, shape, entries", [
    ("GF(3)[t]/(t^2), sigma=id", [1, 2, 1], [1, -1, 1]),
    ("GF(3)[t]/(t^3), sigma=id", [1, 3, 2], [1, 1, -1]),
    ("GF(3)[t]/(t^3), sigma=t->-t", [1, 3], [-1, 1]),
])
def test_canonical_order_reindexes_a_parsed_form(text, shape, entries):
    rwi = parse_ring_with_involution(text)
    t = rwi.ring.gen("t")
    coef = standard_coefficient(rwi)
    # a diagonal entry of R/(t^k) must lie in t^(n-k)R, so scale each by
    # the socle-side power of t
    n = rwi.ring.n
    scaled = [e * t ** (n - k) for e, k in zip(entries, shape)]
    f = diagonal_form(coef, scaled, shape=shape)
    g = canonical_order(f)
    assert g is not f
    assert [x.length for x in g.module.factors] == sorted(shape, reverse=True)
    assert_tables_match(g)
    # a sum whose summand is itself a permuted copy: the two permutations
    # compose
    h = diagonal_form(coef, [t ** (n - 1)], shape=[1])
    assert_tables_match(orthogonal_sum(h, g))


@pytest.mark.parametrize("text, epsilon, bound", [
    ("GF(3), sigma=id", 1, 3),
    ("GF(9), sigma=frobenius", 1, 2),
    ("GF(3)[t]/(t^2), sigma=id", 1, 3),
    ("GF(3)[t]/(t^3), sigma=id", 1, 3),
])
def test_a_degenerate_summand_makes_the_sum_degenerate(text, epsilon, bound):
    rwi = parse_ring_with_involution(text)
    coef = standard_coefficient(rwi)
    engine = WittEngine(coef, epsilon)
    zero = diagonal_form(coef, [0], epsilon)
    assert not zero.is_nondegenerate()
    for m in engine.shapes_up_to(bound - 1):
        for f in engine.classes(m):
            for s in (orthogonal_sum(zero, f), orthogonal_sum(f, zero)):
                assert not s.is_nondegenerate()
                assert_tables_match(s)


NONDEGENERACY_CASES = [("GF(3)[t]/(t^2), sigma=t->-t", -1), ("GF(9), sigma=frobenius", 1),
                       ("GF(3)xGF(3), sigma=swap", 1)]


@pytest.mark.parametrize("text, epsilon", NONDEGENERACY_CASES,
                         ids=[f"{t} {e:+d}" for t, e in NONDEGENERACY_CASES])
def test_nondegeneracy_matches_the_oracle_on_sampled_tables(text, epsilon):
    # the engine's classes and seeded Gram tables, degenerate ones among
    # them, on every shape up to length 2
    engine = WittEngine(standard_coefficient(parse_ring_with_involution(text)), epsilon)
    rng = random.Random(3)
    answers = {True: 0, False: 0}
    for module in engine.shapes_up_to(2):
        forms = engine.classes(module) + list(
            sample_gram_tables(engine.coef, module, engine.epsilon, 2, rng))
        for form in forms:
            got = form.is_nondegenerate()
            assert got == scratch_nondegenerate(form), form.gram_key()
            answers[got] += 1
    assert answers[True] and answers[False]


def test_a_dual_larger_than_the_module_makes_the_form_degenerate():
    # over R = GF(3)[t]/(t^2) with I = R^2: the form (t, 0) on R/(t) has a
    # tensor of full rank 1, but D(R/(t)) is the part of I killed by t,
    # (tR)^2 of dimension 2, so the adjoint is not onto
    rwi = parse_ring_with_involution("GF(3)[t]/(t^2), sigma=id")
    t = rwi.ring.gen("t")
    coef = DualityCoefficient(rwi, free_module(rwi, 2), lambda x: (rwi.conj(x[0]), rwi.conj(x[1])))
    form = HermitianForm(coef, module_from_shape(rwi, [1]), [[(t, 0)]], 1)
    assert any(map(any, form._coord_tensor()[0]))
    assert DualModule(coef, form.module).module.sdim == 2
    assert not form.is_nondegenerate()
    assert not scratch_nondegenerate(form)
