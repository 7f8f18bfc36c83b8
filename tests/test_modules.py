"""Finite-length modules, cyclic decomposition, scalar coordinates."""

import itertools
import random

import pytest

from wittkit.coefficients import DualModule, standard_coefficient
from wittkit.errors import EngineError
from wittkit.linalg import Matrix, unit_vector
from wittkit.modules import (
    ActionSpace,
    FLModule,
    check_module_axioms,
    decompose_submodule,
    free_module,
    hom_space_basis,
    indecomposable_factor_anns,
    is_nilpotent_quotient,
    module_from_shape,
    uniformizer,
)
from wittkit.rings import GF, PrimeField, ProductRing, QuotientRing, RingMap, involution
from wittkit.transfer import TransferCoefficient


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
