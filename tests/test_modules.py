"""Finite-length modules, cyclic decomposition, scalar coordinates."""

import itertools
import random

import pytest

from wittkit.coefficients import DualModule, standard_coefficient
from wittkit.errors import EngineError
from wittkit.linalg import Matrix, Solver, matrix_of_map, unit_vector
from wittkit.modules import (
    ActionSpace,
    CyclicFactor,
    Decomposition,
    FLModule,
    check_module_axioms,
    decompose_submodule,
    free_module,
    hom_space_basis,
    indecomposable_factor_anns,
    is_nilpotent_quotient,
    map_matrix,
    module_from_shape,
    uniformizer,
)
from wittkit.rings import GF, Element, PrimeField, ProductRing, QuotientRing, RingMap, involution
from wittkit.transfer import RestrictedModule, TransferCoefficient, _mult_matrix


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


def test_nilpotent_quotient_predicate():
    assert is_nilpotent_quotient(t2_ring())
    assert not is_nilpotent_quotient(PrimeField(3))
    F3 = PrimeField(3)
    assert not is_nilpotent_quotient(ProductRing(F3, F3))


def test_uniformizer():
    R = t2_ring()
    assert uniformizer(R) == R.gen("t")


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
    for x in M.elements():
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
    for x in M.elements():
        assert N.from_vec(proj.apply(M.to_vec(x))) == N.element([x[0]])
    Z = free_module(rwi, 0)
    into = map_matrix(Z, N, lambda x: N.zero())
    assert (into.nrows, into.ncols) == (N.sdim, 0)


def test_module_from_shape():
    rwi = involution(t2_ring(), "id")
    M = module_from_shape(rwi, [2, 1])  # R + R/(t)
    assert M.length == 3
    assert [f.ann.is_zero() for f in M.factors] == [True, False]


def test_decompose_submodule_finds_cyclic_pieces():
    R = t2_ring()
    rwi = involution(R, "id")
    M = free_module(rwi, 1)
    t = R.gen("t")
    sub, gens, _ = decompose_submodule(M, [M.element([t])])
    # t.R inside R is one copy of R/(t)
    assert len(sub.factors) == 1
    assert sub.factors[0].ann == t
    assert gens == [(t,)]


def test_module_axioms_seeded():
    rng = random.Random(20260823)
    R = t2_ring()
    for rwi in (involution(R, "id"), involution(R, {"t": [0, 2]})):
        M = FLModule(rwi, [R.zero, R.gen("t")])
        check_module_axioms(M, rng)


def test_conj_vec_is_semilinear_coordinate_map():
    F9 = GF(9)
    rwi = involution(F9, "frobenius")
    M = free_module(rwi, 1)
    u = F9.gen("u")
    x = M.element([u])
    cv = M.from_vec(M.conj_vec(M.to_vec(x)))
    assert cv == M.element([u ** 3])


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
    for x in hom.module.elements():
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


def _count_rref(monkeypatch):
    calls = []
    rref = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(1) or rref(self))
    return calls


@pytest.mark.parametrize("build", [_dual_of_r_plus_k, _transfer_t_cubed_to_k], ids=["dual", "transfer"])
def test_hom_module_factors_its_coordinates_once(build, monkeypatch):
    hom = build()
    elements = list(hom.module.elements())
    hom.element_of_hom(hom.hom_matrix(elements[0]))
    calls = _count_rref(monkeypatch)
    for x in elements:
        hom.element_of_hom(hom.hom_matrix(x))
    assert not calls


def test_action_space_factors_its_basis_once(monkeypatch):
    R = QuotientRing(PrimeField(3), [0, 0, 0, 1], "t")
    rwi = involution(R, "id")
    M = FLModule(rwi, [R.zero, R.gen("t")])
    basis = [unit_vector(M.F, M.sdim, i) for i in range(M.sdim)]
    space = ActionSpace(rwi, basis, lambda a, v: M.to_vec(M.scal(a, M.from_vec(v))))
    t = R.gen("t")
    assert space.internal_action_matrix(t) == M.action_matrix(t)
    calls = _count_rref(monkeypatch)
    for a in [t ** 2, R.one, t + R.one]:
        assert space.internal_action_matrix(a) == M.action_matrix(a)
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
# HomModule, RestrictedModule and decompose_submodule all build through
# Decomposition.  The oracles below are those classes as they were before
# it: each ran ActionSpace.decompose itself and converted elements with its
# own loop and solver.


def head_hom(hom, pairs):
    """HomModule's module, generator flattenings and _flat_of_element
    before Decomposition."""
    basis = hom_space_basis(hom.F, pairs, hom._nrows, hom._ncols)
    pieces = ActionSpace(hom.module.rwi, basis, hom._act).decompose()
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
    M.scal, coordinates from its own solver."""

    def __init__(self, pi, rwi_src, M):
        self.pi = pi
        self.over = M
        basis = [unit_vector(M.F, M.sdim, i) for i in range(M.sdim)]
        pieces = ActionSpace(rwi_src, basis, lambda a, v: M.to_vec(M.scal(pi(a), M.from_vec(v)))).decompose()
        self.module = FLModule(rwi_src, [ann for _, ann in pieces])
        self.gen_vecs = [v for v, _ in pieces]
        self._coords = Solver(matrix_of_map(
            M.F, self.module.sdim, lambda u: M.to_vec(self.from_restricted(self.module.from_vec(u))),
            nrows=M.sdim))

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
    S, I = hom.rwi_dst.ring, hom.source_coef.module
    return [(_mult_matrix(S, hom.pi(g)), I.action_matrix(g)) for g in hom.pi.src.algebra_generators()]


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
    for x in hom.module.elements():
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
    for x in rm.module.elements():
        m = rm.from_restricted(x)
        assert m == head.from_restricted(x)
        assert rm.to_ambient(x) == M.to_vec(m)
        assert rm.of_ambient(rm.to_ambient(x)) == x
    for m in M.elements():
        assert rm.to_restricted(m) == head.to_restricted(m)


def test_submodule_decomposition_inverts_exactly_on_its_span():
    """Every vector of F^n is either the ambient vector of one element of
    a decomposed proper submodule or refused with EngineError."""
    R = QuotientRing(PrimeField(3), [0, 0, 0, 1], "t")
    rwi = involution(R, "id")
    t = R.gen("t")
    M = FLModule(rwi, [R.zero, t ** 2])
    sub, gens, basis = decompose_submodule(M, [M.element([t, R.zero]), M.element([t ** 2, R.one])])
    dec = Decomposition(rwi, basis, lambda a, v: M.to_vec(M.scal(a, M.from_vec(v))), M.sdim)
    assert len(basis) < M.sdim
    assert dec.module.key == sub.key
    assert [M.from_vec(v) for v in dec.gens] == gens
    inside = set()
    for vec in itertools.product(list(M.F.elements()), repeat=M.sdim):
        try:
            x = dec.of_ambient(vec)
        except EngineError:
            continue
        assert dec.to_ambient(x) == vec
        inside.add(x)
    assert len(inside) == sub.size() == M.F.size() ** len(basis)
