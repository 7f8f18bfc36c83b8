"""Integer Smith normal form and finitely presented abelian groups."""

from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import wittgroup
from wittkit.coefficients import standard_coefficient
from wittkit.forms import orthogonal_sum
from wittkit.intsnf import (
    PresentedGroup,
    hom_kernel_cokernel_trivial,
    lattice_contains,
    smith_normal_form,
)
from wittkit.parser import parse_ring_with_involution
from wittkit.wittgroup import WittEngine, _keypair, _presentation_at


def test_snf_diagonal_divisibility():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = smith_normal_form(rows)
    # u * A * v == d, with d diagonal and d_i | d_{i+1}
    n = len(rows)
    prod = [[sum(u[i][k] * rows[k][l] for k in range(n)) for l in range(n)] for i in range(n)]
    prod = [[sum(prod[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert prod == d
    diag = [d[i][i] for i in range(n)]
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=0, max_size=3))
def test_snf_without_the_column_transform_gives_the_same_d_and_u(rows):
    d, u, v = smith_normal_form(rows)
    assert smith_normal_form(rows, with_v=False) == (d, u, None)


def test_invariant_factors_known():
    assert PresentedGroup(2, [[2, 0], [0, 4]]).factors == [2, 4]
    assert PresentedGroup(2, [[1, 0], [0, 1]]).factors == []
    assert PresentedGroup(2, [[0, 0], [0, 0]]).factors == [0, 0]
    # Z^2 / <(2,0),(0,3)>: the 6 survives as a single cyclic factor
    assert PresentedGroup(2, [[2, 0], [0, 3]]).factors == [6]


def test_presented_group_factors():
    # Z^2 modulo the column (2, 0): Z/2 x Z
    g = PresentedGroup(2, [[2, 0]])
    assert g.factors == [2, 0]
    assert PresentedGroup(1, [[1]]).factors == []
    assert PresentedGroup(0, []).factors == []


def test_presented_group_contains_exactly_its_relations():
    # Z^2 / <(4, 0)> is Z/4 x Z
    g = PresentedGroup(2, [[4, 0]])
    assert g.factors == [4, 0]
    assert g.contains([4, 0]) and g.contains([-8, 0]) and g.contains([0, 0])
    assert not any(g.contains(v) for v in ([1, 0], [2, 0], [0, 1], [4, 1]))


def test_hom_kernel_cokernel_iso():
    src = PresentedGroup(1, [[4]])  # Z/4
    dst = PresentedGroup(1, [[4]])
    ker, coker = hom_kernel_cokernel_trivial(src, dst, [[1]])
    assert ker and coker


def test_hom_detects_cokernel():
    src = PresentedGroup(1, [[2]])  # Z/2 -> Z/4 by doubling: injective, not onto
    dst = PresentedGroup(1, [[4]])
    ker, coker = hom_kernel_cokernel_trivial(src, dst, [[2]])
    assert ker
    assert not coker


def test_hom_detects_kernel():
    src = PresentedGroup(1, [[4]])  # Z/4 -> Z/2: onto, kernel Z/2
    dst = PresentedGroup(1, [[2]])
    ker, coker = hom_kernel_cokernel_trivial(src, dst, [[1]])
    assert not ker
    assert coker


def test_lattice_contains():
    cols = [[2, 0], [0, 2]]
    assert lattice_contains(cols, [4, -2])
    assert not lattice_contains(cols, [1, 0])
    assert lattice_contains([], [0, 0])


# -- fast path against the exhaustive one -------------------------------------
#
# The references below are the exhaustive path: a fresh Smith form for every
# membership test, and both inclusions of the kernel lattice checked.
# PresentedGroup, which factors each relation matrix once, must agree.

ENTRY = st.integers(min_value=-6, max_value=6)
CHECKS = settings(derandomize=True, max_examples=150, deadline=None)


def reference_lattice_contains(cols, vec):
    n = len(vec)
    if not cols:
        return all(x == 0 for x in vec)
    rows = [[c[i] for c in cols] for i in range(n)]
    d, u, _ = smith_normal_form(rows)
    w = [sum(u[i][j] * vec[j] for j in range(n)) for i in range(n)]
    k = len(cols)
    for i in range(n):
        di = d[i][i] if i < min(n, k) else 0
        if di == 0:
            if w[i] != 0:
                return False
        elif w[i] % di != 0:
            return False
    return True


def reference_hom_kernel_cokernel_trivial(src, dst, gen_images):
    n = dst.ngens
    m = src.ngens
    f_cols = [list(c) for c in gen_images]
    aug_cols = f_cols + dst.relations
    k = len(aug_cols)
    rows = [[c[i] for c in aug_cols] for i in range(n)]
    if not aug_cols:
        rows = [[] for _ in range(n)]
    coker_trivial = all(f == 1 for f in PresentedGroup(n, aug_cols).factors) or n == 0
    lattice = []
    if k:
        if n:
            d, _, v = smith_normal_form(rows)
            rank = sum(1 for i in range(min(n, k)) if d[i][i] != 0)
        else:
            v = [[int(i == j) for j in range(k)] for i in range(k)]
            rank = 0
        lattice = [[v[i][j] for i in range(k)][:m] for j in range(rank, k)]
    ker_cols = lattice + src.relations
    base_cols = src.relations
    ker_trivial = all(reference_lattice_contains(base_cols, c) for c in ker_cols) and all(
        reference_lattice_contains(ker_cols, c) for c in base_cols
    )
    return ker_trivial, coker_trivial


def columns(nrows, max_cols):
    return st.lists(st.lists(ENTRY, min_size=nrows, max_size=nrows), max_size=max_cols)


@st.composite
def lattice_and_vector(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    cols = draw(columns(n, 6))
    if cols and draw(st.booleans()):
        # a combination of the columns, so that membership is often true
        coeffs = draw(st.lists(ENTRY, min_size=len(cols), max_size=len(cols)))
        vec = [sum(a * c[i] for a, c in zip(coeffs, cols)) for i in range(n)]
    else:
        vec = draw(st.lists(ENTRY, min_size=n, max_size=n))
    return n, cols, vec


@st.composite
def presented_map(draw):
    m = draw(st.integers(min_value=0, max_value=5))
    n = draw(st.integers(min_value=0, max_value=5))
    images = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=m, max_size=m))
    # [images | dst relations] stays within 5 x 6
    dst_rels = draw(columns(n, 6 - m if m < 6 else 0))
    src_rels = draw(columns(m, 6))
    return PresentedGroup(m, src_rels), PresentedGroup(n, dst_rels), images


@CHECKS
@given(lattice_and_vector())
def test_contains_agrees_with_fresh_smith_reference(case):
    n, cols, vec = case
    expected = reference_lattice_contains(cols, vec)
    assert PresentedGroup(n, cols).contains(vec) == expected
    assert lattice_contains(cols, vec) == expected


@CHECKS
@given(presented_map())
def test_hom_kernel_cokernel_agrees_with_fresh_smith_reference(case):
    src, dst, images = case
    assert hom_kernel_cokernel_trivial(src, dst, images) == reference_hom_kernel_cokernel_trivial(
        src, dst, images
    )


@st.composite
def cyclic_map(draw):
    a = draw(st.integers(min_value=1, max_value=12))
    b = draw(st.integers(min_value=1, max_value=12))
    # 1 -> c is well defined on Z/a iff b | a*c
    step = b // gcd(a, b)
    c = step * draw(st.integers(min_value=0, max_value=(b - 1) // step))
    return a, b, c


@CHECKS
@given(cyclic_map())
def test_cyclic_maps_match_the_gcd_oracle(case):
    # Z/a -> Z/b, 1 -> c: the image is generated by c, of order b/gcd(b, c)
    a, b, c = case
    expected = (b // gcd(b, c) == a, gcd(b, c) == 1)
    src = PresentedGroup(1, [[a]])
    dst = PresentedGroup(1, [[b]])
    assert hom_kernel_cokernel_trivial(src, dst, [[c]]) == expected
    assert reference_hom_kernel_cokernel_trivial(src, dst, [[c]]) == expected


def test_kernel_counts_every_source_generator():
    # src = Z^2 / <(1, -1)> is Z, with e0 = e1.  Sending one generator to 1
    # and the other to 0 does not respect that relation: the lattice
    # {x : F x = 0} is spanned by the generator sent to 0, which is not a
    # multiple of (1, -1), so the kernel is not trivial.  Reading the map
    # off the generator that survives elimination alone calls one of the
    # two maps injective, whichever generator survives.
    src = PresentedGroup(2, [[1, -1]])
    dst = PresentedGroup(1, [])
    assert hom_kernel_cokernel_trivial(src, dst, [[1], [0]]) == (False, True)
    assert hom_kernel_cokernel_trivial(src, dst, [[0], [1]]) == (False, True)
    assert hom_kernel_cokernel_trivial(src, dst, [[1], [1]]) == (True, True)


# -- unit-pivot elimination against the dense presentation ---------------------
#
# DensePresentedGroup takes one Smith form of the whole relation matrix,
# whose v also gives the kernel lattice of a map: the dense path that the
# elimination of unit pivots replaces.


class DensePresentedGroup:
    def __init__(self, ngens, relation_columns):
        self.ngens = ngens
        self.relations = [list(c) for c in relation_columns]
        k = len(self.relations)
        if ngens:
            rows = [[c[i] for c in self.relations] for i in range(ngens)]
            d, self.snf_u, self.snf_v = smith_normal_form(rows)
            diag = [d[i][i] for i in range(min(ngens, k))]
        else:
            # a 0 x k matrix: every integer combination of columns vanishes
            diag, self.snf_u = [], []
            self.snf_v = [[int(i == j) for j in range(k)] for i in range(k)]
        self.rank = sum(1 for x in diag if x != 0)
        self.diag = diag + [0] * (ngens - len(diag))
        self.factors = [x for x in diag if x not in (0, 1)] + [0] * (ngens - self.rank)

    def contains(self, vec):
        for row, di in zip(self.snf_u, self.diag):
            w = sum(x * y for x, y in zip(row, vec))
            if (w % di if di else w) != 0:
                return False
        return True

    def is_trivial(self):
        return all(f == 1 for f in self.factors) or not self.factors


def dense_hom_kernel_cokernel_trivial(src, dst, gen_images):
    m = src.ngens
    aug = DensePresentedGroup(dst.ngens, [list(c) for c in gen_images] + dst.relations)
    v = aug.snf_v
    ker_trivial = all(
        src.contains([v[i][j] for i in range(m)]) for j in range(aug.rank, len(v))
    )
    return ker_trivial, aug.is_trivial()


def dense(group):
    return DensePresentedGroup(group.ngens, group.relations)


ENGINE_CHECKS = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def engine_columns(draw, n, max_cols):
    """Columns shaped like the engine's relations: [f + g] - [f] - [g],
    [m] for a metabolic class, and now and then an arbitrary column."""
    cols = []
    index = st.integers(min_value=0, max_value=max(n - 1, 0))
    for _ in range(draw(st.integers(min_value=0, max_value=max_cols))):
        kind = draw(st.sampled_from(("sum", "unit", "entry") if n else ("entry",)))
        if kind == "entry":
            cols.append(draw(st.lists(ENTRY, min_size=n, max_size=n)))
            continue
        col = [0] * n
        if kind == "sum":
            col[draw(index)] += 1
            col[draw(index)] -= 1
            col[draw(index)] -= 1
        else:
            col[draw(index)] = 1
        cols.append(col)
    return cols


@st.composite
def engine_presentation(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    cols = draw(engine_columns(n, 10))
    probe = draw(st.lists(ENTRY, min_size=n, max_size=n))
    return n, cols, probe


@st.composite
def engine_map(draw):
    m = draw(st.integers(min_value=0, max_value=5))
    n = draw(st.integers(min_value=0, max_value=5))
    src = PresentedGroup(m, draw(engine_columns(m, 7)))
    dst = PresentedGroup(n, draw(engine_columns(n, 7)))
    images = []
    for _ in range(m):
        if n and draw(st.booleans()):
            # a class goes to a class, as in the engine's class maps
            col = [0] * n
            col[draw(st.integers(min_value=0, max_value=n - 1))] = 1
            images.append(col)
        else:
            images.append(draw(st.lists(ENTRY, min_size=n, max_size=n)))
    return src, dst, images


@ENGINE_CHECKS
@given(engine_presentation())
def test_engine_shaped_presentations_agree_with_the_dense_oracle(case):
    n, cols, probe = case
    group = PresentedGroup(n, cols)
    oracle = DensePresentedGroup(n, cols)
    assert group.factors == oracle.factors
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    combination = [sum(c[i] * (k + 1) for k, c in enumerate(cols)) for i in range(n)]
    for vec in cols + units + [probe, combination]:
        assert group.contains(vec) == oracle.contains(vec)


@ENGINE_CHECKS
@given(engine_map())
def test_engine_shaped_maps_agree_with_the_dense_oracle(case):
    src, dst, images = case
    assert hom_kernel_cokernel_trivial(src, dst, images) == dense_hom_kernel_cokernel_trivial(
        dense(src), dense(dst), images
    )


# the rings of the CLI goldens and the benchmark workloads, at the bound of
# their deepest query
REAL_RINGS = [
    ("GF(3)[t]/(t^3), sigma=id", 1, 4),
    ("GF(3)[t]/(t^2), sigma=t->-t", -1, 4),
    ("GF(9), sigma=frobenius", -1, 4),
    ("GF(3)xGF(3), sigma=swap", 1, 8),
]


def real_stability_check(text, epsilon, bound):
    """The two presentations and the class map of witt_group's stability
    check: the bound presentation's generators are the first of the
    bound+1 one's, and each maps to itself."""
    engine = WittEngine(standard_coefficient(parse_ring_with_involution(text)), epsilon)
    pres, pres1, _ = _presentation_at(engine, bound)
    images = [[int(i == j) for i in range(pres1.ngens)] for j in range(pres.ngens)]
    return pres, pres1, images


@pytest.mark.parametrize("text, epsilon, bound", REAL_RINGS)
def test_real_presentations_agree_with_the_dense_oracle(text, epsilon, bound):
    pres, pres1, images = real_stability_check(text, epsilon, bound)
    for group in (pres, pres1):
        oracle = dense(group)
        assert group.factors == oracle.factors
        n = group.ngens
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        for vec in group.relations + units:
            assert group.contains(vec) == oracle.contains(vec)
    assert hom_kernel_cokernel_trivial(pres, pres1, images) == dense_hom_kernel_cokernel_trivial(
        dense(pres), dense(pres1), images
    )


def pairwise_presentation(engine, bound):
    """The Witt presentation at bound with one relation per pair of
    classes, as _presentation_at built it before it took its relations
    from class enumeration: [m] for each metabolic class m and
    [f + g] - [f] - [g], the sum looked up, for every pair i <= j whose
    lengths fit the bound."""
    classes = [f for m in engine.shapes_up_to(bound) for f in engine.classes(m)]
    idx = {(f.module.key, f.gram_key()): i for i, f in enumerate(classes)}
    n = len(classes)
    cols = [[int(k == i) for k in range(n)] for i, f in enumerate(classes) if engine.metabolic(f)]
    for i, f in enumerate(classes):
        for j in range(i, n):
            g = classes[j]
            if f.module.length + g.module.length <= bound:
                rep = engine.lookup(orthogonal_sum(f, g))
                col = [0] * n
                col[idx[(rep.module.key, rep.gram_key())]] += 1
                col[i] -= 1
                col[j] -= 1
                cols.append(col)
    return PresentedGroup(n, cols)


# the real rings, the unstable queries, both P^1 fixed-point models and a
# product ring with the identity involution
ORACLE_RINGS = REAL_RINGS + [
    ("GF(3)[t]/(t^3), sigma=id", 1, 3),
    ("GF(3)[t]/(t^4), sigma=t->-t", -1, 3),
    ("GF(5)[t]/(t^3), sigma=t->-t", 1, 3),
    ("GF(3)[t]/(t^3), sigma=t->-t+t^2", 1, 3),
    ("GF(3)[t]/(t^3), sigma=t->-t-t^2", -1, 3),
    ("GF(3)xGF(3), sigma=id", 1, 3),
]


@pytest.mark.parametrize("text, epsilon, bound", ORACLE_RINGS,
                         ids=[f"{t} {e:+d} {b}" for t, e, b in ORACLE_RINGS])
def test_relations_from_enumerated_sums_present_the_pairwise_group(text, epsilon, bound):
    engine = WittEngine(standard_coefficient(parse_ring_with_involution(text)), epsilon)
    pres, pres1, _ = _presentation_at(engine, bound)
    pair, pair1 = pairwise_presentation(engine, bound), pairwise_presentation(engine, bound + 1)
    for group, oracle in ((pres, pair), (pres1, pair1)):
        assert group.ngens == oracle.ngens
        assert group.factors == oracle.factors
        assert all(group.contains(c) for c in oracle.relations)
        assert all(oracle.contains(c) for c in group.relations)
    images = [[int(i == j) for i in range(pres1.ngens)] for j in range(pres.ngens)]
    assert hom_kernel_cokernel_trivial(pres, pres1, images) == hom_kernel_cokernel_trivial(
        pair, pair1, images)


def test_unit_pivots_shrink_a_real_presentation_to_its_core():
    # one column per sum of a kept block met by class enumeration, not per
    # pair of classes; the pairwise oracle test above checks that both
    # present the same group
    pres, _, _ = real_stability_check("GF(3)[t]/(t^3), sigma=id", 1, 4)
    assert (pres.ngens, len(pres.relations)) == (26, 38)
    assert (len(pres._core), len(pres._core_relations)) == (1, 3)


# -- kept blocks and reached shapes against every block on every shape ---------
#
# The oracle is class enumeration before it left blocks out: every block of
# blocks() that holds a shape's pivot is summed with every class of the rest,
# on every shape of shapes_up_to, and each relation column reads the class
# that a block matched on its own shape.


class EveryBlockEngine(WittEngine):
    def _block_sums(self, module):
        pivot = module.factors[0].key
        skeys = Counter(f.key for f in module.factors)
        for blk in self.blocks():
            bkeys = Counter(f.key for f in blk.module.factors)
            if pivot not in bkeys or (bkeys - skeys):
                continue
            rest = skeys - bkeys
            rest_anns = []
            for k, mult in sorted(rest.items()):
                rest_anns.extend([self._ann_by_key[k]] * mult)
            for c in self.classes(self.rwi.module(rest_anns)):
                yield c, blk


def every_block_presentation(engine, bound):
    """_presentation_at over every shape up to bound + 1."""
    mods = engine.shapes_up_to(bound + 1)
    classes = [f for m in mods for f in engine.classes(m)]
    idx = {_keypair(f): i for i, f in enumerate(classes)}
    n = len(classes)
    cols = [(f.module.length, [int(j == i) for j in range(n)])
            for i, f in enumerate(classes) if engine.metabolic(f)]
    for m in mods:
        for match, c, blk in engine._sums[m.key]:
            col = [0] * n
            col[idx[_keypair(match)]] += 1
            col[idx[_keypair(c)]] -= 1
            col[idx[_keypair(engine._lookups[_keypair(blk)])]] -= 1
            cols.append((m.length, col))
    k = sum(f.module.length <= bound for f in classes)
    pres = PresentedGroup(k, [col[:k] for length, col in cols if length <= bound])
    return pres, PresentedGroup(n, [col for _, col in cols]), classes


# the oracle rings, the swap with epsilon = -1, and two more t-adic rings with
# symmetric Jordan levels: rings whose hyperbolic blocks are left out
ENUMERATION_RINGS = sorted({(t, e) for t, e, _ in ORACLE_RINGS} | {
    ("GF(3)xGF(3), sigma=swap", -1),
    ("GF(3)[t]/(t^4), sigma=t->-t", 1),
    ("GF(9)[t]/(t^2), sigma=t->-t", 1),
})


def enumerate_up_to_four(make, coef, epsilon, present, monkeypatch):
    """The classes (as keypairs), the factors at bound and bound + 1 and
    the stability verdict at each bound 1..4 from one engine, and the
    isometric calls it made."""
    real = wittgroup.isometric
    calls = [0]

    def counting(f, g):
        calls[0] += 1
        return real(f, g)

    monkeypatch.setattr(wittgroup, "isometric", counting)
    engine = make(coef, epsilon)
    runs = []
    for bound in range(1, 5):
        pres, pres1, classes = present(engine, bound)
        images = [[int(i == j) for i in range(pres1.ngens)] for j in range(pres.ngens)]
        runs.append(([_keypair(f) for f in classes], pres.factors, pres1.factors,
                     hom_kernel_cokernel_trivial(pres, pres1, images)))
    monkeypatch.setattr(wittgroup, "isometric", real)
    return runs, calls[0]


@pytest.mark.parametrize("text, epsilon", ENUMERATION_RINGS,
                         ids=[f"{t} {e:+d}" for t, e in ENUMERATION_RINGS])
def test_kept_blocks_on_reached_shapes_give_every_class(monkeypatch, text, epsilon):
    coef = standard_coefficient(parse_ring_with_involution(text))
    runs, calls = enumerate_up_to_four(WittEngine, coef, epsilon, _presentation_at, monkeypatch)
    oracle_runs, oracle_calls = enumerate_up_to_four(
        EveryBlockEngine, coef, epsilon, every_block_presentation, monkeypatch)
    assert runs == oracle_runs
    assert calls <= oracle_calls
