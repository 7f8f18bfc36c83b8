"""Finite-length modules, cyclic decomposition, scalar coordinates."""

import itertools
import random

import pytest

from wittkit.coefficients import DualModule, standard_coefficient
from wittkit.errors import EngineError, WittKitError
from wittkit.linalg import (
    Echelon,
    Matrix,
    matrix_of_map,
    span_basis,
    unit_vector,
)
from wittkit.modules import (
    CyclicFactor,
    Decomposition,
    FLModule,
    chain_components,
    free_module,
    hom_space_basis,
    indecomposable_factor_anns,
    map_matrix,
    module_from_shape,
    simple_scalar_dim,
)
from wittkit.parser import parse_ring, parse_ring_with_involution
from wittkit.rings import GF, Element, PrimeField, ProductRing, QuotientRing, RingMap, involution
from wittkit.transfer import RestrictedModule, TransferCoefficient

from oracles import elements_of


def t2_ring():
    return QuotientRing(PrimeField(3), [0, 0, 1], "t")


def test_indecomposable_anns():
    F3 = PrimeField(3)
    assert [a.is_zero() for a in indecomposable_factor_anns(F3)] == [True]
    R = t2_ring()
    anns = indecomposable_factor_anns(R)
    t = R.gen("t")
    # largest factor (the free one, ann 0 is written t^2 = 0) down to R/(t)
    assert len(anns) == 2
    assert anns[-1] == t
    P = ProductRing(F3, F3)
    panns = indecomposable_factor_anns(P)
    assert len(panns) == 2


# ring text -> (e, pi, n) per chain component, the annihilators
# 1 - e + pi^a of the indecomposables, and the simple scalar dimension
CHAIN_RINGS = {
    "GF(3)": ([("1", "0", 1)], ["0"], 1),
    "GF(9)": ([("1", "0", 1)], ["0"], 2),
    "QQ(i)": ([("1", "0", 1)], ["0"], 2),
    "GF(3)[t]/(t^3)": ([("1", "t", 3)], ["0", "t^2", "t"], 1),
    "GF(9)[t]/(t^2)": ([("1", "t", 2)], ["0", "t"], 2),
    "GF(3)xGF(3)": ([("(1, 0)", "(0, 0)", 1), ("(0, 1)", "(0, 0)", 1)], ["(0, 1)", "(1, 0)"], 1),
}


@pytest.mark.parametrize("text", CHAIN_RINGS)
def test_each_ring_is_described_once_as_chain_components(text):
    ring = parse_ring(text)
    components, anns, unit = CHAIN_RINGS[text]
    assert [(repr(e), repr(pi), n) for e, pi, n in chain_components(ring)] == components
    assert [repr(a) for a in indecomposable_factor_anns(ring)] == anns
    assert simple_scalar_dim(ring) == unit
    # the simple modules e.R/(pi) have the unit scalar dimension
    assert {CyclicFactor(ring, ring.one - e + pi).sdim for e, pi, _ in chain_components(ring)} == {unit}


def test_module_from_shape_reads_the_chain_component():
    F9 = involution(GF(9), "frobenius")
    assert module_from_shape(F9, [1, 1]) is free_module(F9, 2)
    with pytest.raises(WittKitError, match=r"^cyclic length 2 out of range 1\.\.1$"):
        module_from_shape(F9, [2])
    P = parse_ring_with_involution("GF(3)xGF(3), sigma=swap")
    assert module_from_shape(P, []) is P.module([])
    with pytest.raises(WittKitError, match="^module_from_shape does not support GF"):
        module_from_shape(P, [1])


def test_free_module_basics():
    rwi = involution(PrimeField(3), "id")
    M = free_module(rwi, 2)
    assert M.length == 2
    assert M.sdim == 2
    assert M.size() == 9
    gens = M.generators()
    assert len(gens) == 2
    s = M.add(gens[0], gens[1])
    assert M.to_vec(s) == tuple(M.F.one for _ in range(2))


def test_module_over_quotient_ring():
    R = t2_ring()
    rwi = involution(R, "id")
    t = R.gen("t")
    M = FLModule(rwi, [R.zero, t])  # R + R/(t)
    assert M.length == 3
    assert M.sdim == 3
    assert M.size() == 27
    x = M.element([R.one, R.one])
    assert M.to_vec(M.scal(t, x)) == M.to_vec(M.element([t, R.zero]))


def test_vec_roundtrip_and_action_matrix():
    R = t2_ring()
    rwi = involution(R, "id")
    M = FLModule(rwi, [R.zero])
    t = R.gen("t")
    for x in elements_of(M):
        assert M.from_vec(M.to_vec(x)) == x
    A = M.action_matrix(t)
    one = M.element([R.one])
    assert M.from_vec(A.apply(M.to_vec(one))) == M.element([t])
    assert (A * A).is_zero()


def test_map_matrix_is_the_coordinate_matrix_of_the_map():
    R = t2_ring()
    rwi = involution(R, "id")
    t = R.gen("t")
    M = module_from_shape(rwi, [2, 1])
    N = module_from_shape(rwi, [2])
    assert map_matrix(M, M, lambda x: M.scal(t, x)) == M.action_matrix(t)
    assert map_matrix(M, M, lambda x: x) == Matrix.identity(M.F, M.sdim)
    # project onto the R factor: x -> its first coordinate, in N
    proj = map_matrix(M, N, lambda x: N.element([x[0]]))
    assert (proj.nrows, proj.ncols) == (N.sdim, M.sdim)
    for x in elements_of(M):
        assert N.from_vec(proj.apply(M.to_vec(x))) == N.element([x[0]])
    Z = free_module(rwi, 0)
    into = map_matrix(Z, N, lambda x: N.zero())
    assert (into.nrows, into.ncols) == (N.sdim, 0)


ACTION_CASES = [
    ("GF(3)[t]/(t^3), sigma=id", 3),
    ("GF(9), sigma=frobenius", 2),
    ("GF(3)xGF(3), sigma=swap", 3),
    ("QQ(i), sigma=conj", 2),
]


@pytest.mark.parametrize("text, rank", ACTION_CASES, ids=[t for t, _ in ACTION_CASES])
def test_action_matrix_is_the_block_diagonal_of_the_factor_actions(text, rank):
    """FLModule.action_matrix assembles its factors' matrices, each built
    on raw data once per factor and ring element; the oracle is the
    matrix of scal on the whole module, through map_matrix."""
    rwi = parse_ring_with_involution(text)
    ring = rwi.ring
    anns = indecomposable_factor_anns(ring)
    shapes = [list(c) for k in range(1, rank + 1) for c in itertools.product(anns, repeat=k)]
    scalars = [Element(ring, d) for d in ring.scalar_basis()] + ring.algebra_generators()
    for shape in shapes:
        M = rwi.module(shape)
        for a in scalars:
            assert M.action_matrix(a) == map_matrix(M, M, lambda x: M.scal(a, x)), (shape, a)


def test_map_matrix_into_a_zero_module_has_a_column_per_source_coordinate():
    R = t2_ring()
    rwi = involution(R, "id")
    N = module_from_shape(rwi, [2, 1])
    Z = free_module(rwi, 0)
    out = map_matrix(N, Z, lambda x: Z.zero())
    assert (out.nrows, out.ncols) == (0, N.sdim)
    assert out.rank() == 0
    assert out * N.action_matrix(R.gen("t")) == out


def test_module_from_shape():
    rwi = involution(t2_ring(), "id")
    M = module_from_shape(rwi, [2, 1])  # R + R/(t)
    assert M.length == 3
    assert [f.ann.is_zero() for f in M.factors] == [True, False]


def check_module_axioms(M, rng):
    """Sampled module axioms (seeded): associativity and distributivity of
    the action, compatibility of reduce with ring arithmetic."""
    scalars = list(M.ring.elements())
    vectors = elements_of(M)
    for _ in range(25):
        a = rng.choice(scalars)
        b = rng.choice(scalars)
        x = rng.choice(vectors)
        y = rng.choice(vectors)
        assert M.scal(a, M.add(x, y)) == M.add(M.scal(a, x), M.scal(a, y))
        assert M.scal(a * b, x) == M.scal(a, M.scal(b, x))
        assert M.scal(a + b, x) == M.add(M.scal(a, x), M.scal(b, x))
        assert M.add(x, M.neg(x)) == M.zero()


def test_module_axioms_seeded():
    rng = random.Random(20260823)
    R = t2_ring()
    for rwi in (involution(R, "id"), involution(R, {"t": [0, 2]})):
        M = FLModule(rwi, [R.zero, R.gen("t")])
        check_module_axioms(M, rng)


def _small_modules(rwi):
    """Every module of scalar dimension <= 2 over GF(3) or GF(3)[t]/(t^2),
    up to isomorphism, the zero module included."""
    R = rwi.ring
    if R.is_field:
        return [FLModule(rwi, anns) for anns in ([], [R.zero], [R.zero, R.zero])]
    t = R.gen("t")
    return [FLModule(rwi, anns) for anns in ([], [t], [R.zero], [t, t])]


def _ints(m):
    return [[e.data for e in row] for row in m.rows]


def _intertwines(H, A, B, n, m, p):
    """H . A == B . H mod p for H (n x m, flat row-major), A (m x m), B (n x n)."""
    return all(
        (sum(H[i * m + k] * A[k][j] for k in range(m)) - sum(B[i][k] * H[k * m + j] for k in range(n))) % p == 0
        for i in range(n) for j in range(m)
    )


@pytest.mark.parametrize("ring, sigma", [
    (PrimeField(3), "id"),
    (t2_ring(), "id"),
    (t2_ring(), {"t": [0, 2]}),
], ids=["F3-id", "F3[t]/(t^2)-id", "F3[t]/(t^2)-t->-t"])
def test_hom_space_basis_matches_exhaustive_search(ring, sigma):
    """Hom_R(sigma_* M, N) from the solver against every N.sdim x M.sdim
    matrix over GF(3) that intertwines the generator actions."""
    rwi = involution(ring, sigma)
    F = ring.scalar_field()
    mods = _small_modules(rwi)
    for M, N in itertools.product(mods, mods):
        n, m = N.sdim, M.sdim
        acts = [(_ints(M.action_matrix(g)), _ints(N.action_matrix(rwi.conj(g))))
                for g in ring.algebra_generators()]
        homs = {H for H in itertools.product(range(3), repeat=n * m)
                if all(_intertwines(H, A, B, n, m, 3) for A, B in acts)}
        pairs = ((M.action_matrix(g), N.action_matrix(rwi.conj(g))) for g in ring.algebra_generators())
        basis = [tuple(c.data for c in v) for v in hom_space_basis(F, pairs, n, m)]
        assert len(homs) == 3 ** len(basis)
        assert set(basis) <= homs
        # independent: the 3^len combinations are pairwise distinct
        combos = {tuple(sum(c * v[i] for c, v in zip(cs, basis)) % 3 for i in range(n * m))
                  for cs in itertools.product(range(3), repeat=len(basis))}
        assert len(combos) == 3 ** len(basis)


def _dual_of_r_plus_k():
    R = t2_ring()
    rwi = involution(R, "id")
    return DualModule(standard_coefficient(rwi), FLModule(rwi, [R.zero, R.gen("t")]))  # R + R/(t)


def _transfer_t_cubed_to_k():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 0, 1], "t")
    return TransferCoefficient(RingMap(R, F3, [F3.zero]), involution(F3, "id"),
                               standard_coefficient(involution(R, "id")))


@pytest.mark.parametrize("build", [_dual_of_r_plus_k, _transfer_t_cubed_to_k], ids=["dual", "transfer"])
def test_hom_module_elements_round_trip_through_matrices(build):
    hom = build()
    flats = set()
    for x in elements_of(hom.module):
        H = hom.hom_matrix(x)
        assert hom.element_of_hom(H) == x
        flats.add(tuple(e for row in H.rows for e in row))
    assert len(flats) == hom.module.size()
    # a unit matrix outside the hom space has no element
    F = hom.F
    size = len(next(iter(flats)))
    outside = next(u for u in (unit_vector(F, size, i) for i in range(size)) if u not in flats)
    with pytest.raises(EngineError):
        hom.element_of_hom(outside)


def _count_eliminations(monkeypatch):
    """Every elimination, Matrix.rref included, starts an Echelon."""
    calls = []
    init = Echelon.__init__
    monkeypatch.setattr(Echelon, "__init__", lambda self, *args: calls.append(1) or init(self, *args))
    return calls


@pytest.mark.parametrize("build", [_dual_of_r_plus_k, _transfer_t_cubed_to_k], ids=["dual", "transfer"])
def test_hom_module_factors_its_coordinates_once(build, monkeypatch):
    hom = build()
    elements = elements_of(hom.module)
    hom.element_of_hom(hom.hom_matrix(elements[0]))
    calls = _count_eliminations(monkeypatch)
    for x in elements:
        hom.element_of_hom(hom.hom_matrix(x))
    assert not calls


def head_reduce(ring, ann):
    """CyclicFactor.reduce as it was before Echelon: the ideal span is row
    reduced as a Matrix of Elements (Matrix.rref is checked against
    Gauss-Jordan in test_linalg) and each coordinate is wrapped in F.el."""
    F = ring.scalar_field()
    span = [[F.el(c) for c in ring.to_svec((ann * Element(ring, b)).data)]
            for b in ring.scalar_basis()]
    rref, pivots = Matrix(F, span).rref()
    rows = [tuple(rref.rows[i]) for i in range(len(pivots))]

    def reduce(elem):
        vec = [F.el(c) for c in ring.to_svec(ring.el(elem).data)]
        for row, p in zip(rows, pivots):
            c = vec[p]
            if not c.is_zero():
                vec = [a - c * b for a, b in zip(vec, row)]
        return Element(ring, ring.from_svec(tuple(v.data for v in vec)))

    return reduce


@pytest.mark.parametrize("ring", [
    QuotientRing(PrimeField(3), [0, 0, 0, 1], "t"),
    QuotientRing(GF(9), [0, 0, 1], "t"),
    ProductRing(PrimeField(3), PrimeField(3)),
], ids=["t-cubed", "gf9-t-squared", "f3xf3"])
def test_factor_reduce_equals_the_matrix_reduce(ring):
    elements = list(ring.elements())
    for ann in indecomposable_factor_anns(ring):
        factor = CyclicFactor(ring, ann)
        oracle = head_reduce(ring, ann)
        ideal = {(ann * x).data for x in elements}
        reps = set()
        for x in elements:
            rep = factor.reduce(x)
            assert rep == oracle(x)
            assert (x - rep).data in ideal
            reps.add(rep.data)
        # one representative per coset of the ideal
        assert len(reps) * len(ideal) == len(elements)


# -- one decomposition path ---------------------------------------------------
#
# HomModule and RestrictedModule both build through
# Decomposition, which splits its subspace with module-level functions and
# converts elements through one Basis.  The oracles below are the code
# before that: an ActionSpace kept basis coordinates of its own, its
# _split_map solved an H . A = B . H system of its own (_hom_rows plus one
# row block for the generator), and each class converted elements with its
# own loop and solver.  Matrix.solve stands in for the solver they used,
# which gave the same answer on independent columns.


def head_hom_rows(F, pairs, nrows, ncols):
    """The linear system H . A - B . H = 0 in the entries of H, row-major."""
    rows = []
    for A, B in pairs:
        for i in range(nrows):
            for j in range(ncols):
                row = [F.zero] * (nrows * ncols)
                for k in range(ncols):
                    row[i * ncols + k] = row[i * ncols + k] + A[k, j]
                for k in range(nrows):
                    row[k * ncols + j] = row[k * ncols + j] - B[i, k]
                rows.append(row)
    return rows


def head_hom_space_basis(F, pairs, nrows, ncols):
    rows = head_hom_rows(F, list(pairs), nrows, ncols)
    if not rows:
        return [unit_vector(F, nrows * ncols, i) for i in range(nrows * ncols)]
    return Matrix(F, rows).nullspace_basis()


class HeadActionSpace:
    """ActionSpace: an R-stable subspace with its own basis coordinates,
    split into (generator vector, annihilator) pieces by decompose()."""

    def __init__(self, rwi, basis, act):
        self.rwi = rwi
        self.ring = rwi.ring
        self.F = rwi.ring.scalar_field()
        self.basis = [tuple(v) for v in basis]
        self._act = act

    def dim(self):
        return len(self.basis)

    def _to_internal(self, vec):
        sol = Matrix.from_cols(self.F, self.basis).solve(tuple(vec))
        assert sol is not None
        return sol

    def _from_internal(self, coords):
        out = [self.F.zero] * len(self.basis[0])
        for c, b in zip(coords, self.basis):
            out = [x + c * y for x, y in zip(out, b)]
        return tuple(out)

    def internal_action_matrix(self, a):
        return Matrix.from_cols(self.F, [self._to_internal(self._act(a, b)) for b in self.basis])

    def decompose(self):
        ring = self.ring
        if ring.is_field:
            return self._decompose_field(self.basis, ring.zero)
        if isinstance(ring, ProductRing):
            e1, e2 = ring.idempotents()
            out = []
            for e, co in ((e1, e2), (e2, e1)):
                comp = span_basis([self._act(e, b) for b in self.basis], self.F)
                out.extend(self._decompose_field(comp, co))
            return out
        return self._decompose_local()

    def _decompose_field(self, comp_basis, ann):
        out = []
        taken = []
        for b in comp_basis:
            if taken and Matrix.from_cols(self.F, taken).solve(b) is not None:
                continue
            out.append((tuple(b), ann))
            for bd in self.ring.scalar_basis():
                taken.append(self._act(Element(self.ring, bd), b))
        return out

    def _decompose_local(self):
        [(_, t, _)] = chain_components(self.ring)
        out = []
        space = self
        while space.basis:
            best, best_ord = None, -1
            for b in space.basis:
                o, v = 0, tuple(b)
                while any(not c.is_zero() for c in v):
                    o += 1
                    v = self._act(t, v)
                if o > best_ord:
                    best, best_ord = tuple(b), o
            target = self.rwi.module([t ** best_ord])
            psi = head_split_map(space, target, best)
            out.append((best, t ** best_ord))
            kernel = Matrix(self.F, psi).nullspace_basis()
            space = HeadActionSpace(self.rwi, [space._from_internal(k) for k in kernel], self._act)
        out.sort(key=lambda p: CyclicFactor(self.ring, p[1]).key)
        return out


def head_split_map(space, target, gen_vec):
    """The map space -> target sending gen_vec to the generator 1: the
    solution of the hom rows plus H(gen_vec) = 1, in internal coordinates."""
    F, ring = space.F, space.ring
    sd, td = space.dim(), target.sdim
    pairs = [(space.internal_action_matrix(g), target.action_matrix(g)) for g in ring.algebra_generators()]
    rows = head_hom_rows(F, pairs, td, sd)
    rhs = [F.zero] * len(rows)
    gcoords = space._to_internal(gen_vec)
    one_vec = target.to_vec(target.element([ring.one]))
    for i in range(td):
        row = [F.zero] * (td * sd)
        for j in range(sd):
            row[i * sd + j] = gcoords[j]
        rows.append(row)
        rhs.append(one_vec[i])
    sol = Matrix(F, rows).solve(tuple(rhs))
    assert sol is not None
    return [[sol[i * sd + j] for j in range(sd)] for i in range(td)]


def head_hom(hom, pairs):
    """HomModule's module, generator flattenings and _flat_of_element
    before Decomposition."""
    basis = head_hom_space_basis(hom.F, pairs, hom._nrows, hom._ncols)
    pieces = HeadActionSpace(hom.module.rwi, basis, hom._act).decompose()
    module = FLModule(hom.module.rwi, [ann for _, ann in pieces])
    gen_flats = [v for v, _ in pieces]

    def flat_of_element(elem):
        out = tuple(hom.F.zero for _ in range(hom._nrows * hom._ncols))
        for rep, gv in zip(elem, gen_flats):
            out = tuple(a + b for a, b in zip(out, hom._act(rep, gv)))
        return out

    return module, gen_flats, flat_of_element


class HeadRestrictedModule:
    """RestrictedModule before Decomposition: images summed with M.add and
    M.scal, coordinates solved against a matrix of its own."""

    def __init__(self, pi, rwi_src, M):
        self.pi = pi
        self.over = M
        basis = [unit_vector(M.F, M.sdim, i) for i in range(M.sdim)]
        pieces = HeadActionSpace(rwi_src, basis, lambda a, v: M.to_vec(M.scal(pi(a), M.from_vec(v)))).decompose()
        self.module = FLModule(rwi_src, [ann for _, ann in pieces])
        self.gen_vecs = [v for v, _ in pieces]
        self._coords = matrix_of_map(
            M.F, self.module.sdim, lambda u: M.to_vec(self.from_restricted(self.module.from_vec(u))),
            nrows=M.sdim)

    def from_restricted(self, x):
        M = self.over
        out = M.zero()
        for rep, gv in zip(x, self.gen_vecs):
            out = M.add(out, M.scal(self.pi(rep), M.from_vec(gv)))
        return out

    def to_restricted(self, m):
        vec = self.over.to_vec(m)
        if not vec:
            return self.module.zero()
        sol = self._coords.solve(tuple(vec))
        assert sol is not None
        return self.module.from_vec(sol)


def _dual_pairs(hom):
    I, rwi = hom.coef.module, hom.coef.rwi
    return [(hom.source.action_matrix(g), I.action_matrix(rwi.conj(g)))
            for g in hom.source.ring.algebra_generators()]


def _transfer_pairs(hom):
    S1, I = hom.rwi_dst.module([hom.rwi_dst.ring.zero]), hom.source_coef.module
    return [(S1.action_matrix(hom.pi(g)), I.action_matrix(g))
            for g in hom.pi.src.algebra_generators()]


def _transfer_f3_to_f9():
    F3 = PrimeField(3)
    return TransferCoefficient(RingMap(F3, GF(9), []), involution(GF(9), "frobenius"),
                               standard_coefficient(involution(F3, "id")))


@pytest.mark.parametrize("build, pairs", [
    (_dual_of_r_plus_k, _dual_pairs),
    (_transfer_t_cubed_to_k, _transfer_pairs),
    (_transfer_f3_to_f9, _transfer_pairs),
], ids=["dual", "transfer-t-cubed", "transfer-f9"])
def test_hom_module_decomposes_as_before(build, pairs):
    hom = build()
    module, gen_flats, flat_of_element = head_hom(hom, pairs(hom))
    assert hom.module.key == module.key
    assert hom.gens == gen_flats
    for x in elements_of(hom.module):
        flat = hom.to_ambient(x)
        assert flat == flat_of_element(x)
        assert hom.of_ambient(flat) == x


def _t_cubed_to_t_squared():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 0, 1], "t")
    S = QuotientRing(F3, [0, 0, 1], "t")
    return RingMap(R, S, [S.gen("t")]), involution(R, "id"), involution(S, "id")


def _f9_over_f3():
    F3, F9 = PrimeField(3), GF(9)
    return RingMap(F3, F9, []), involution(F3, "id"), involution(F9, "frobenius")


@pytest.mark.parametrize("tower, shape", [
    (_t_cubed_to_t_squared, [2]),
    (_t_cubed_to_t_squared, [2, 1]),
    (_f9_over_f3, [1]),
], ids=["t-cubed-to-t-squared-[2]", "t-cubed-to-t-squared-[2,1]", "f9-over-f3"])
def test_restricted_module_decomposes_as_before(tower, shape):
    pi, src, dst = tower()
    M = module_from_shape(dst, shape)
    rm = RestrictedModule(pi, src, M)
    head = HeadRestrictedModule(pi, src, M)
    assert rm.module.key == head.module.key
    assert rm.gens == head.gen_vecs
    for x in elements_of(rm.module):
        m = M.from_vec(rm.to_ambient(x))
        assert m == head.from_restricted(x)
        assert rm.to_ambient(x) == M.to_vec(m)
        assert rm.of_ambient(rm.to_ambient(x)) == x
    for m in elements_of(M):
        assert rm.of_ambient(M.to_vec(m)) == head.to_restricted(m)


def shapes_up_to(rwi, bound):
    """Every annihilator tuple of length at most bound, in canonical order."""
    anns = indecomposable_factor_anns(rwi.ring)
    length = {a.data: rwi.module([a]).length for a in anns}
    return [list(combo) for k in range(1, bound + 1)
            for combo in itertools.combinations_with_replacement(anns, k)
            if sum(length[a.data] for a in combo) <= bound]


def assert_split_as_before(dec, pieces):
    assert dec.gens == [v for v, _ in pieces]
    assert [f.ann for f in dec.module.factors] == [ann for _, ann in pieces]


@pytest.mark.parametrize("text", [
    "GF(3)[t]/(t^3), sigma=id",
    "GF(3)[t]/(t^4), sigma=t->-t",
    "GF(9)[t]/(t^2), sigma=t->-t",
    "GF(3)xGF(3), sigma=swap",
    "GF(9), sigma=frobenius",
])
def test_every_small_dual_splits_as_before(text):
    rwi = parse_ring_with_involution(text)
    coef = standard_coefficient(rwi)
    shapes = shapes_up_to(rwi, 4)
    assert len(shapes) >= 4
    for anns in shapes:
        dual = DualModule(coef, rwi.module(anns))
        pairs = _dual_pairs(dual)
        basis = head_hom_space_basis(dual.F, pairs, dual._nrows, dual._ncols)
        assert hom_space_basis(dual.F, pairs, dual._nrows, dual._ncols) == basis
        assert_split_as_before(dual, HeadActionSpace(rwi, basis, dual._act).decompose())


@pytest.mark.parametrize("src, dst, t_image", [
    ("GF(3)[t]/(t^3), sigma=id", "GF(3), sigma=id", lambda S: S.zero),
    ("GF(3)[t]/(t^3), sigma=id", "GF(3)[t]/(t^2), sigma=id", lambda S: S.gen("t")),
    ("GF(3)[t]/(t^4), sigma=t->-t", "GF(3)[t]/(t^2), sigma=t->-t", lambda S: S.gen("t")),
], ids=["t^3-to-k", "t^3-to-t^2", "t^4-to-t^2"])
def test_every_small_restriction_and_transfer_splits_as_before(src, dst, t_image):
    rwi_src, rwi_dst = parse_ring_with_involution(src), parse_ring_with_involution(dst)
    pi = RingMap(rwi_src.ring, rwi_dst.ring, [t_image(rwi_dst.ring)])
    for anns in shapes_up_to(rwi_dst, 3):
        M = rwi_dst.module(anns)
        rm = RestrictedModule(pi, rwi_src, M)
        basis = [unit_vector(M.F, M.sdim, i) for i in range(M.sdim)]
        assert_split_as_before(rm, HeadActionSpace(rwi_src, basis, rm.act).decompose())
    tc = TransferCoefficient(pi, rwi_dst, standard_coefficient(rwi_src))
    basis = head_hom_space_basis(tc.F, _transfer_pairs(tc), tc._nrows, tc._ncols)
    assert_split_as_before(tc, HeadActionSpace(rwi_dst, basis, tc._act).decompose())


def _swap_dual(anns):
    def build():
        rwi = parse_ring_with_involution("GF(3)xGF(3), sigma=swap")
        e1, e2 = rwi.ring.idempotents()
        named = {"e1": e1, "e2": e2}
        return DualModule(standard_coefficient(rwi), rwi.module([named[a] for a in anns]))
    return build


def _restriction_of_k_cubed():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 0, 1], "t")
    return RestrictedModule(RingMap(R, F3, [F3.zero]), involution(R, "id"), free_module(involution(F3, "id"), 3))


def _dual_of_r_plus_k_over_t_cubed():
    R = QuotientRing(PrimeField(3), [0, 0, 0, 1], "t")
    rwi = involution(R, "id")
    return DualModule(standard_coefficient(rwi), FLModule(rwi, [R.zero, R.gen("t")]))


def _dual_of_f9_squared():
    rwi = involution(GF(9), "frobenius")
    return DualModule(standard_coefficient(rwi), free_module(rwi, 2))


@pytest.mark.parametrize("build, pieces", [
    (_dual_of_r_plus_k_over_t_cubed, 2),
    (_restriction_of_k_cubed, 3),
    (_transfer_t_cubed_to_k, 1),
    (_dual_of_f9_squared, 2),
    (_swap_dual(["e2", "e2", "e1"]), 3),
    (_swap_dual(["e2", "e1", "e1"]), 3),
    (_swap_dual(["e1"]), 1),
], ids=["dual-r-plus-k", "restriction-k-cubed", "transfer-t-cubed", "dual-f9-squared",
        "swap-dual-2-1", "swap-dual-1-2", "swap-dual-0-1"])
def test_the_last_summand_of_each_component_needs_no_splitting_map(build, pieces, monkeypatch):
    """Every piece but the last of its chain component is split off
    through one _split_map; the last fills what is left."""
    import wittkit.modules

    calls = []
    split_map = wittkit.modules._split_map
    monkeypatch.setattr(wittkit.modules, "_split_map", lambda *args: calls.append(1) or split_map(*args))
    dec = build()
    M = dec.module
    assert len(M.factors) == pieces
    nonempty = sum(1 for e, _, _ in chain_components(M.ring) if not M.action_matrix(e).is_zero())
    assert len(calls) == pieces - nonempty


def test_decomposition_of_t_times_r_is_one_residue_field():
    R = t2_ring()
    rwi = involution(R, "id")
    M = free_module(rwi, 1)
    t = R.gen("t")
    basis = span_basis([M.to_vec(M.scal(Element(R, b), M.element([t])))
                        for b in R.scalar_basis()], M.F)
    dec = Decomposition(rwi, basis, lambda a, v: M.to_vec(M.scal(a, M.from_vec(v))), M.sdim)
    # t.R inside R is one copy of R/(t), generated by t
    assert [f.ann for f in dec.module.factors] == [t]
    assert [M.from_vec(v) for v in dec.gens] == [(t,)]


def test_submodule_decomposition_inverts_exactly_on_its_span():
    """Every vector of F^n is either the ambient vector of one element of
    a decomposed proper submodule or refused with EngineError."""
    R = QuotientRing(PrimeField(3), [0, 0, 0, 1], "t")
    rwi = involution(R, "id")
    t = R.gen("t")
    M = FLModule(rwi, [R.zero, t ** 2])
    # the scalar span of the submodule generated by (t, 0) and (t^2, 1)
    basis = span_basis([M.to_vec(M.scal(Element(R, b), v))
                        for v in (M.element([t, R.zero]), M.element([t ** 2, R.one]))
                        for b in R.scalar_basis()], M.F)
    dec = Decomposition(rwi, basis, lambda a, v: M.to_vec(M.scal(a, M.from_vec(v))), M.sdim)
    sub = dec.module
    assert len(basis) < M.sdim
    # t.R is R/(t^2), and (t^2, 1) has annihilator (t^2)
    assert [f.ann for f in sub.factors] == [t ** 2, t ** 2]
    assert [M.from_vec(v) for v in dec.gens] == [(t, R.zero), (t ** 2, R.one)]
    inside = set()
    for vec in itertools.product(list(M.F.elements()), repeat=M.sdim):
        try:
            x = dec.of_ambient(vec)
        except EngineError:
            continue
        assert dec.to_ambient(x) == vec
        inside.add(x)
    assert len(inside) == sub.size() == M.F.size() ** len(basis)
