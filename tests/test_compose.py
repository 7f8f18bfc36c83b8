"""Composed tables of orthogonal sums, and nondegeneracy, against a
from-scratch oracle.

A form built by orthogonal_sum or canonical_order takes its Gram entries
and Gram key from its summands, composes its norm fingerprint and
coordinate tensor from their tables, and reads each norm as the sum of
its leaves' table entries (_norm_reader), building no norm table of its
own.  Every form, composed or not, answers is_nondegenerate by one rank
on its coordinate tensor and a dimension count of the dual.  The oracle
computes each of them from the form alone: the entries coerced again,
the tensor (raw coordinates) with evaluate on every pair of scalar basis
vectors, b(x, x) of every element by bilinearity from the tensor, once
that matches (oracles.norm_table), and nondegeneracy as the rank of the
adjoint into a freshly built dual module.  Both must agree on every
class the engine enumerates, on every sum of two classes (the forms
class enumeration adds up and the pairwise presentation oracle of
test_intsnf.py looks up), on permuted copies of parsed forms, on sums
with a degenerate summand, on sampled Gram tables (degenerate ones too)
and on a coefficient whose dual is larger than the module."""

import random
from collections import Counter

import pytest

import wittkit.forms
from wittkit.coefficients import DualityCoefficient, DualModule, standard_coefficient
from wittkit.forms import (
    HermitianForm,
    _adds,
    _norm_reader,
    canonical_order,
    diagonal_form,
    orthogonal_sum,
)
from wittkit.linalg import Matrix, unit_vector
from wittkit.modules import FLModule, free_module, module_from_shape
from wittkit.parser import parse_ring_with_involution
from wittkit.rings import PrimeField, involution
from wittkit.wittgroup import WittEngine, sample_gram_tables, witt_group

from oracles import int_elements, norm_table


def scratch_coord_tensor(form):
    M = form.module
    I = form.coef.module
    units = [M.from_vec(unit_vector(M.F, M.sdim, c)) for c in range(M.sdim)]
    return [[I.to_ints(form.evaluate(x, y)) for y in units] for x in units]


def decoded(code, p, isd):
    """The I-coordinate tuple of a norm code: its base-p digits, most
    significant first."""
    return tuple(code // p ** (isd - 1 - s) % p for s in range(isd))


def reader_norms(form):
    """b(x, x) of every element in index order, as _norm_reader gives it:
    the entries of the leaf tables at the indices the weights give, each
    decoded and added coordinate by coordinate."""
    tables, where, _ = _norm_reader(form)
    p, isd = form.module.F.p, form.coef.module.sdim
    out = []
    for x in int_elements(form.module):
        ks = [0] * len(tables)
        for a, (leaf, w) in zip(x, where):
            ks[leaf] += a * w
        acc = [0] * isd
        for table, k in zip(tables, ks):
            acc = [u + v for u, v in zip(acc, decoded(table[k], p, isd))]
        out.append(tuple(u % p for u in acc))
    return out


def scratch_fingerprint(form):
    """The oracle's norms counted, each as its code."""
    p = form.module.F.p
    codes = (sum(v * p ** (len(t) - 1 - s) for s, v in enumerate(t)) for t in norm_table(form))
    return tuple(sorted(Counter(codes).items()))


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
    coerced = HermitianForm(form.coef, form.module, form.gram, form.epsilon)
    assert form.gram == coerced.gram
    assert form.gram_key() == coerced.gram_key()
    assert form.norm_fingerprint() == scratch_fingerprint(form)
    assert reader_norms(form) == norm_table(form)
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


@pytest.mark.parametrize("p, isd", [(3, 1), (3, 2), (3, 3), (5, 2), (7, 1)])
def test_addition_rows_add_the_digits_mod_p(p, isd):
    # the rows of a fresh module, read in shuffled order, so that a row
    # kept under another code than its own is caught
    rwi = involution(PrimeField(p), "id")
    adds = _adds(FLModule(rwi, [rwi.ring.zero] * isd))
    codes = list(range(p ** isd))
    order = codes[:]
    random.Random(p * 10 + isd).shuffle(order)
    for a in order:
        row = adds[a]
        assert len(row) == p ** isd
        da = decoded(a, p, isd)
        for b in codes:
            want = tuple((u + v) % p for u, v in zip(da, decoded(b, p, isd)))
            assert decoded(row[b], p, isd) == want, (a, b)
        assert adds[a] is row


@pytest.mark.parametrize("text", ["GF(9), sigma=id", "GF(3)xGF(3), sigma=swap",
                                  "GF(3)[t]/(t^3), sigma=id", "GF(3)[t]/(t^2), sigma=t->-t"])
def test_no_composed_form_builds_a_norm_table(text, monkeypatch):
    # the whole witt computation up to bound 4: only plain forms build a
    # table, and the searches read composed forms through their leaves
    table = wittkit.forms._norm_table
    reader = wittkit.forms._norm_reader
    composed_reads = []

    def plain_only(form):
        if form._parts is not None:
            raise AssertionError(f"composed form {form!r} built a norm table")
        return table(form)

    def counted_reader(form):
        if form._parts is not None:
            composed_reads.append(form)
        return reader(form)

    monkeypatch.setattr(wittkit.forms, "_norm_table", plain_only)
    monkeypatch.setattr(wittkit.forms, "_norm_reader", counted_reader)
    witt_group(standard_coefficient(parse_ring_with_involution(text)), 1, 4)
    assert composed_reads
