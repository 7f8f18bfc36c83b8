"""Isometry witnesses are congruences, and match the reference search's.

isometric(f1, f2) returns images of the cyclic generators of f1's module,
as integer coordinate tuples of f2's module.  On seeded Gram tables of
length <= 4 each list it returns must define an R-linear map (image i
killed by the annihilator of factor i) that preserves every Gram entry
under evaluate and whose R-span is all of f2's module.  The targets are
the engine's class representatives, which are orthogonal sums with
composed tables, and other sampled tables on the same shape.

The search solves the linear conditions on each image (killed by the
annihilator, the Gram entries against the images placed) and filters the
solutions by their norms.  reference_isometric below filters every
element of a norm bucket through the annihilator action and the Gram
entries one candidate at a time, with its targets from evaluate; both must
return the same witness list, or both None, on every pair.  Over GF(5),
GF(7) and GF(9), where the reference is too slow to exhaust some None
answers, the answers up to length 3 are checked against the
classification instead."""

import random
from itertools import product
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wittkit.coefficients import standard_coefficient
from wittkit.forms import (
    _ann_rows,
    _candidates,
    _closure_rows,
    _condition,
    _functional,
    _mat_vec,
    _scalar_action_ints,
    isometric,
)
from wittkit.linalg import Echelon, Matrix
from wittkit.modules import free_module
from wittkit.parser import parse_ring_with_involution
from wittkit.rings import Element, PrimeField, involution
from wittkit.wittgroup import WittEngine, sample_gram_tables

from oracles import int_elements, norm_table


def _int_matrix(m):
    """The raw entries of a Matrix, row by row."""
    return [[e.data for e in row] for row in m.rows]


CASES = [
    ("GF(3), sigma=id", 1),
    ("GF(3), sigma=id", -1),
    ("GF(5), sigma=id", 1),
    ("GF(9), sigma=frobenius", 1),
    ("GF(3)[t]/(t^2), sigma=id", 1),
    ("GF(3)[t]/(t^2), sigma=t->-t", 1),
    ("GF(3)[t]/(t^2), sigma=t->-t", -1),
    ("GF(3)[t]/(t^3), sigma=id", 1),
    ("GF(3)xGF(3), sigma=swap", 1),
]

_ENGINES = {}


def engine_for(case):
    if case not in _ENGINES:
        text, epsilon = case
        rwi = parse_ring_with_involution(text)
        _ENGINES[case] = WittEngine(standard_coefficient(rwi), epsilon)
    return _ENGINES[case]


def assert_congruence(f1, f2, images):
    M1, M2 = f1.module, f2.module
    images = [M2.from_vec(tuple(M2.F.el(c) for c in v)) for v in images]
    gens = M1.generators()
    assert len(images) == len(gens)
    for fac, img in zip(M1.factors, images):
        assert M2.is_zero(M2.scal(fac.ann, img))
    for i, (x, xi) in enumerate(zip(gens, images)):
        for j, (y, yj) in enumerate(zip(gens, images)):
            assert f2.evaluate(xi, yj) == f1.evaluate(x, y), (i, j)
    ring = M2.ring
    span = [list(M2.to_vec(M2.scal(Element(ring, d), img)))
            for img in images for d in ring.scalar_basis()]
    assert Matrix(M2.F, span).rank() == M2.sdim


WITNESS_CHECKS = settings(derandomize=True, max_examples=60, deadline=None)


@WITNESS_CHECKS
@given(st.sampled_from(CASES), st.data())
def test_isometry_witnesses_are_congruences(case, data):
    engine = engine_for(case)
    shapes = engine.shapes_up_to(4)
    module = shapes[data.draw(st.integers(0, len(shapes) - 1), label="shape")]
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    forms = [f for f in sample_gram_tables(engine.coef, module, engine.epsilon, 2, random.Random(seed))
             if f.is_nondegenerate()]
    assume(forms)
    for f in forms:
        rep = engine.lookup(f)
        images = isometric(f, rep)
        assert images is not None
        assert_congruence(f, rep, images)
        back = isometric(rep, f)
        assert back is not None
        assert_congruence(rep, f, back)
    if len(forms) == 2:
        images = isometric(forms[0], forms[1])
        if images is not None:
            assert_congruence(forms[0], forms[1], images)


def reference_isometric(f1, f2):
    """The candidate side as it was: every element of the norm bucket is
    filtered through the annihilator action, the targets come from
    evaluate on the generators, and every functional and constraint is
    accumulated one coordinate at a time."""
    if f1.coef != f2.coef or f1.epsilon != f2.epsilon:
        return None
    if f1.module.key != f2.module.key:
        return None
    M1, M2 = f1.module, f2.module
    if M1.sdim == 0:
        return []
    F = M1.F
    p = F.p
    I = f1.coef.module
    isd = I.sdim
    d = M2.sdim
    gens1 = M1.generators()
    n = len(gens1)
    diag_t = [I.to_ints(f1.evaluate(g, g)) for g in gens1]
    cross_t = [[I.to_ints(f1.evaluate(gens1[j], gens1[i])) for i in range(n)] for j in range(n)]
    elems = int_elements(M2)
    nidx = {}
    for k, v in enumerate(norm_table(f2)):
        nidx.setdefault(v, []).append(k)
    annmats = [None if fac.ann.is_zero() else _int_matrix(M2.action_matrix(fac.ann))
               for fac in M1.factors]
    actmats = _scalar_action_ints(M2)
    pools = []
    for i in range(n):
        pool = [elems[k] for k in nidx.get(diag_t[i], [])
                if annmats[i] is None or not any(_mat_vec(annmats[i], elems[k], p))]
        if not pool:
            return None
        pools.append(pool)
    bt = f2._coord_tensor()
    sdims = [fac.sdim for fac in M1.factors]
    placed = []
    funcs = []

    def functional(img):
        out = []
        for c in range(d):
            acc = [0] * isd
            for i1, a in enumerate(img):
                if a:
                    for s in range(isd):
                        acc[s] += a * bt[i1][c][s]
            out.append(tuple(x % p for x in acc))
        return out

    def extend(i, rows):
        if i == n:
            return True
        for cand in pools[i]:
            ok = True
            for j, fj in enumerate(funcs):
                acc = [0] * isd
                for c, a in enumerate(cand):
                    if a:
                        for s in range(isd):
                            acc[s] += a * fj[c][s]
                if tuple(x % p for x in acc) != cross_t[j][i]:
                    ok = False
                    break
            if not ok:
                continue
            new_rows, added = _closure_rows(rows, cand, actmats, p)
            if added != sdims[i]:
                continue
            placed.append(cand)
            funcs.append(functional(cand))
            if extend(i + 1, new_rows):
                return True
            placed.pop()
            funcs.pop()
        return False

    if extend(0, Echelon(F)):
        return placed
    return None


# (case, largest length): the cases above at length <= 4, except where a
# search that answers None exhausts a large field's elements (GF(5) at
# length 4 takes about 30 s, GF(9) with sigma=id at length 3 about 2 s)
REFERENCE_CASES = [(case, 3 if case == ("GF(5), sigma=id", 1) else 4) for case in CASES] + [
    (("GF(9), sigma=id", 1), 2),
    (("GF(3)xGF(3), sigma=swap", -1), 4),
]


@pytest.mark.parametrize("case, length", REFERENCE_CASES,
                         ids=[f"{text} {eps:+d} {n}" for (text, eps), n in REFERENCE_CASES])
def test_search_returns_the_reference_witnesses(case, length):
    engine = engine_for(case)
    rng = random.Random(7)
    answers = {True: 0, False: 0}
    for module in engine.shapes_up_to(length):
        for f in sample_gram_tables(engine.coef, module, engine.epsilon, 2, rng):
            if not f.is_nondegenerate():
                continue
            for g in engine.classes(module):
                for a, b in ((f, g), (g, f)):
                    got = isometric(a, b)
                    assert got == reference_isometric(a, b), (a.gram_key(), b.gram_key())
                    answers[got is not None] += 1
    assert answers[True]


def zero_reader(d, p):
    """A _norm_reader of one leaf whose every norm is the code 0, in its
    own coordinate order."""
    return [[0] * p ** d], [(0, p ** (d - 1 - c)) for c in range(d)], None


KERNEL_RINGS = sorted({text for text, _ in CASES} | {"GF(9), sigma=id"})


@pytest.mark.parametrize("text", KERNEL_RINGS)
def test_solutions_list_exactly_the_filtered_elements(text):
    # the annihilator rows plus 0, 1 or 2 seeded rows [col | t], or a
    # seeded row twice with constants t and t + 1: under a reader whose
    # every norm is 0 the walker yields, in order, the elements killed by
    # ann that meet every seeded row; a system with no solution is
    # inconsistent and yields none
    engine = engine_for((text, 1))
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for module in engine.shapes_up_to(4):
        p, d = module.F.p, module.sdim
        elems = int_elements(module)
        reader = zero_reader(d, p)
        for ann in engine._anns:
            act = _int_matrix(module.action_matrix(ann))
            killed = [k for k, v in enumerate(elems) if not any(_mat_vec(act, v, p))]
            row = [rng.randrange(p) for _ in range(d + 1)]
            pair = [[rng.randrange(p) for _ in range(d + 1)] for _ in range(2)]
            clash = [row, row[:d] + [(row[d] + 1) % p]]
            for seeded in ([], [row], pair, clash):
                system = _ann_rows(module, ann).copy()
                for r in seeded:
                    system.insert(_condition(r[:d], r[d]))
                brute = [k for k in killed
                         if all(sum(map(mul, elems[k], r)) % p == r[d] for r in seeded)]
                got = list(_candidates(system, reader, 0, d, p))
                assert got == [elems[k] for k in brute], (module, ann, seeded)
                seen[bool(brute)] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_digits_decode_the_element_list(p):
    """With no condition the walker yields entry k of the element list
    that the searches no longer build as its k-th tuple, for every k and
    sdim 0 to 5: index order is the element order."""
    rwi = involution(PrimeField(p), "id")
    for d in range(6):
        elems = int_elements(free_module(rwi, d))
        assert len(elems) == p ** d
        got = list(_candidates(Echelon(rwi.ring), zero_reader(d, p), 0, d, p))
        assert got == elems, (p, d)


def discriminant_is_square(form):
    ring = form.ring
    det = form.btensor().det()
    return det ** ((ring.size() - 1) // 2) == ring.one


CLASSIFIED_FIELDS = ["GF(5), sigma=id", "GF(7), sigma=id", "GF(9), sigma=id", "GF(9), sigma=frobenius"]


@pytest.mark.parametrize("text", CLASSIFIED_FIELDS)
def test_isometric_decides_the_classification_over_fields(text):
    # nondegenerate forms over a finite field of odd characteristic:
    # symmetric ones are classified by rank and discriminant (the
    # determinant modulo squares), hermitian ones by rank alone
    engine = engine_for((text, 1))
    symmetric = engine.coef.rwi.is_trivial()
    classes = [g for module in engine.shapes_up_to(3) for g in engine.classes(module)]
    answers = {True: 0, False: 0}
    for a in classes:
        for b in classes:
            same = len(a.module.factors) == len(b.module.factors) and (
                not symmetric or discriminant_is_square(a) == discriminant_is_square(b))
            images = isometric(a, b)
            assert (images is not None) == same, (a.gram_key(), b.gram_key())
            if images is not None:
                assert_congruence(a, b, images)
            answers[same] += 1
    assert answers[True] and answers[False]


FUNCTIONAL_CASES = [("GF(3)[t]/(t^2), sigma=t->-t", -1), ("GF(9), sigma=frobenius", 1),
                    ("GF(3)xGF(3), sigma=swap", 1)]


@pytest.mark.parametrize("case", FUNCTIONAL_CASES, ids=[f"{t} {e:+d}" for t, e in FUNCTIONAL_CASES])
def test_functional_is_the_reduced_pairing_with_each_basis_vector(case):
    engine = engine_for(case)
    for form in engine.classes(engine.shapes_up_to(2)[-1]):
        M = form.module
        F = M.F
        bt = form._coord_tensor()
        isd = form.coef.module.sdim
        units = [tuple(F.one if c == a else F.zero for c in range(M.sdim)) for a in range(M.sdim)]
        for vec in product(range(F.p), repeat=M.sdim):
            cols = _functional(bt, vec, M.sdim, isd, F.p)
            xv = tuple(F.el(a) for a in vec)
            want = [tuple(x.data for x in form.eval_vecs(xv, u)) for u in units]
            assert cols == [tuple(w[s] for w in want) for s in range(isd)]


# -- the identity product ------------------------------------------------------


def every_product_closure(rows, vec, module, p):
    """_closure_rows with every scalar-basis product, the identity's too."""
    new_rows = rows.copy()
    added = 0
    for d in module.ring.scalar_basis():
        m = _int_matrix(module.action_matrix(Element(module.ring, d)))
        added += new_rows.insert(_mat_vec(m, vec, p))
    return new_rows, added


@pytest.mark.parametrize("text, identities", [
    ("GF(3), sigma=id", {1}),
    ("GF(9), sigma=frobenius", {1}),
    ("GF(3)[t]/(t^3), sigma=id", {1}),
    ("GF(3)xGF(3), sigma=swap", {0, 1}),
])
def test_closure_takes_the_vector_itself_for_the_identity(text, identities):
    """The identity action matrix, wherever the scalar basis holds it, is
    replaced by None, and the span grows exactly as with every product.
    Over k x k the basis is the idempotents: neither is the identity on a
    module with factors of both kinds, one is on a module of one kind."""
    engine = engine_for((text, 1))
    rng = random.Random(2)
    seen = set()
    for module in engine.shapes_up_to(3):
        p, d = module.F.p, module.sdim
        ident = [[int(i == j) for j in range(d)] for i in range(d)]
        full = [_int_matrix(module.action_matrix(Element(module.ring, b)))
                for b in module.ring.scalar_basis()]
        mats = _scalar_action_ints(module)
        assert [m is None for m in mats] == [m == ident for m in full]
        seen.add(sum(m is None for m in mats))
        assert [m for m in mats if m is not None] == [m for m in full if m != ident]
        elems = int_elements(module)
        rows = Echelon(module.F)
        for _ in range(6):
            v = rng.choice(elems)
            got, added = _closure_rows(rows, v, mats, p)
            want, want_added = every_product_closure(rows, v, module, p)
            assert (got.rows, added) == (want.rows, want_added)
            rows = got
    assert seen == identities
