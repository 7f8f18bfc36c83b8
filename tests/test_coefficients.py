"""Duality coefficients, dual modules, and strong duality, with the
double-dual comparison kept here as the oracle for require_strong."""

import itertools
from collections import Counter

import pytest

import wittkit.forms
from wittkit.coefficients import (
    DualityCoefficient,
    DualModule,
    check_coefficient_iso,
    standard_coefficient,
)
from wittkit.devissage import DevissageData
from wittkit.errors import CoefficientMismatch, NotACoefficientIso, NotStrongDuality
from wittkit.forms import hyperbolic_form
from wittkit.linalg import Matrix
from wittkit.modules import FLModule, free_module, indecomposable_factor_anns, map_matrix
from wittkit.parser import parse_ring_with_involution
from wittkit.rings import GF, PrimeField, QuotientRing, involution
from wittkit.transfer import transfer_form
from wittkit.wittgroup import WittEngine

from oracles import elements_of


class DoubleDualComparison:
    """can: M -> D(D(M)), x |-> (f |-> i(f(x))), built as the matrix of
    hom-space coordinates.  Bijectivity decides whether (I, i) is a strong
    duality for M; require_strong decides it by nondegeneracy of H(M)."""

    def __init__(self, coef, M):
        self.coef = coef
        self.M = M
        self.dual = coef.dual(M)
        self.double = coef.dual(self.dual.module)

        def evaluation(x):
            # column j of H is i(f_j(x)) for the unit vector f_j of D(M)
            H = map_matrix(self.dual.module, coef.module, lambda f: coef.i(self.dual.eval(f, x)))
            return self.double.element_of_hom(H)

        self.matrix = map_matrix(M, self.double.module, evaluation)
        self.bijective = (
            self.double.module.sdim == M.sdim and self.matrix.rank() == M.sdim
        )

    def require_strong(self):
        if not self.bijective:
            raise NotStrongDuality(
                f"double-dual comparison for {self.M!r} has rank "
                f"{self.matrix.rank()} on a module of scalar dimension {self.M.sdim}"
            )
        return self


def t2_setup(spec="id"):
    R = QuotientRing(PrimeField(3), [0, 0, 1], "t")
    if spec == "id":
        return involution(R, "id")
    return involution(R, {"t": [0, 2]})


def test_standard_coefficient_shape():
    rwi = involution(PrimeField(3), "id")
    coef = standard_coefficient(rwi)
    assert len(coef.module.factors) == 1
    assert coef.module.factors[0].ann.is_zero()
    # i = sigma acts as the identity here
    one = coef.module.element([rwi.ring.one])
    assert coef.i(one) == one


def test_dual_of_free_module_is_free():
    rwi = t2_setup()
    coef = standard_coefficient(rwi)
    M = free_module(rwi, 1)
    D = coef.dual(M)
    assert D.module.length == M.length
    assert D.module.sdim == M.sdim


def test_dual_of_residue_field_against_free_coefficient():
    # Hom(k, R) over R = F_3[t]/(t^2) is the socle: one copy of k
    rwi = t2_setup()
    R = rwi.ring
    t = R.gen("t")
    coef = standard_coefficient(rwi)
    k = FLModule(rwi, [t])
    D = coef.dual(k)
    assert D.module.length == 1
    assert D.module.factors[0].ann == t


def test_double_dual_strong_for_free_coefficient():
    rwi = t2_setup()
    coef = standard_coefficient(rwi)
    for anns in ([rwi.ring.zero], [rwi.ring.gen("t")]):
        assert hyperbolic_form(coef, FLModule(rwi, anns)).is_nondegenerate()
    assert coef.require_strong() is coef


def test_socle_quotient_coefficient_is_not_strong():
    # I = R/(t): the double dual of M = R collapses, christening the
    # failure mode; M = k is still reflexive against the same I
    rwi = t2_setup()
    R = rwi.ring
    t = R.gen("t")
    I = FLModule(rwi, [t])
    coef = DualityCoefficient(rwi, I, lambda x: (rwi.conj(x[0]),))
    assert hyperbolic_form(coef, FLModule(rwi, [t])).is_nondegenerate()
    assert not hyperbolic_form(coef, free_module(rwi, 1)).is_nondegenerate()
    with pytest.raises(NotStrongDuality, match="D\\(D\\(N\\)\\) has scalar dimension 1, N has 2"):
        coef.require_strong()


def test_twisted_involution_coefficient_still_strong():
    rwi = t2_setup("twist")
    coef = standard_coefficient(rwi)
    assert hyperbolic_form(coef, free_module(rwi, 1)).is_nondegenerate()
    assert coef.require_strong() is coef


def test_check_coefficient_iso_identity():
    rwi = t2_setup()
    coef = standard_coefficient(rwi)
    J = {"matrix": Matrix.identity(coef.module.F, coef.module.sdim)}
    out = check_coefficient_iso(coef, coef, J["matrix"])
    assert out == J["matrix"]


def test_check_coefficient_iso_from_a_callable():
    rwi = involution(GF(9), "frobenius")
    coef = standard_coefficient(rwi)
    F = coef.module.F
    assert check_coefficient_iso(coef, coef, lambda x: x) == Matrix.identity(F, coef.module.sdim)
    zero = DualityCoefficient(rwi, free_module(rwi, 0), lambda x: x)
    assert check_coefficient_iso(zero, zero, lambda x: x) == Matrix(F, [])
    for c1, c2 in ((zero, coef), (coef, zero)):
        with pytest.raises(NotACoefficientIso):
            check_coefficient_iso(c1, c2, lambda x, c2=c2: c2.module.from_vec((F.zero,) * c2.module.sdim))


def test_check_coefficient_iso_calls_a_size_mismatch_not_bijective():
    rwi = involution(GF(9), "frobenius")
    coef = standard_coefficient(rwi)
    F = coef.module.F
    zero = DualityCoefficient(rwi, free_module(rwi, 0), lambda x: x)
    # a callable into or out of the zero coefficient
    for c1, c2 in ((coef, zero), (zero, coef)):
        with pytest.raises(NotACoefficientIso, match="^comparison map is not bijective$"):
            check_coefficient_iso(c1, c2, lambda x, c2=c2: c2.module.zero())
    # a matrix of the wrong shape is still named as one
    for c1, c2, J in ((coef, zero, Matrix(F, [])), (coef, coef, Matrix.identity(F, 1)),
                      (zero, coef, Matrix(F, [[F.one]]))):
        with pytest.raises(NotACoefficientIso, match="^comparison matrix has the wrong shape$"):
            check_coefficient_iso(c1, c2, J)


def test_check_coefficient_iso_rejects_nonequivariant():
    rwi = involution(GF(9), "frobenius")
    coef = standard_coefficient(rwi)
    F = coef.module.F
    bad = Matrix(F, [[F.zero, F.one], [F.one, F.zero]])
    with pytest.raises(NotACoefficientIso):
        check_coefficient_iso(coef, coef, bad)


def test_dual_of_multiplication_is_multiplication_by_the_conjugate():
    # h(t x) = sigma(t) h(x): precomposing with t acts on D(M) as sigma(t)
    for spec in ("id", "twist"):
        rwi = t2_setup(spec)
        t = rwi.ring.gen("t")
        M = free_module(rwi, 1)
        D = standard_coefficient(rwi).dual(M)
        for h in elements_of(D.module):
            for x in elements_of(M):
                assert D.eval(h, M.scal(t, x)) == D.eval(D.module.scal(rwi.conj(t), h), x)


def test_frobenius_dual_pairing_dimensions():
    rwi = involution(GF(9), "frobenius")
    coef = standard_coefficient(rwi)
    M = free_module(rwi, 2)
    D = coef.dual(M)
    assert D.module.sdim == M.sdim
    assert hyperbolic_form(coef, M).is_nondegenerate()


def test_engines_on_one_coefficient_build_each_dual_once(monkeypatch):
    builds = Counter()
    init = DualModule.__init__

    def counted(self, coef, source):
        builds[(id(coef), source.key)] += 1
        init(self, coef, source)

    monkeypatch.setattr(DualModule, "__init__", counted)
    data = DevissageData(t2_setup())
    kcoef = data.tc.coefficient
    engines = [WittEngine(kcoef, 1), WittEngine(kcoef, -1)]
    for engine in engines:
        for m in engine.shapes_up_to(2):
            for f in engine.classes(m):
                transfer_form(data.tc, f)
    # duals against the k-side coefficient (engines) and against R (the
    # nondegeneracy check of every transfer)
    assert {c for c, _ in builds} == {id(kcoef), id(data.coef)}
    assert set(builds.values()) == {1}


def test_engines_on_one_coefficient_check_strong_duality_once(monkeypatch):
    # require_strong asks the coefficient for H(N), which builds it through
    # wittkit.forms.hyperbolic_form on first request; the asks are counted
    # while require_strong runs, the builds everywhere
    asks = Counter()
    builds = Counter()
    inside = []
    ask = DualityCoefficient.hyperbolic
    build = wittkit.forms.hyperbolic_form
    require = DualityCoefficient.require_strong

    def counted_ask(self, N, epsilon=1):
        if inside:
            asks[N.key] += 1
        return ask(self, N, epsilon)

    def counted_build(coef, N, epsilon=1):
        builds[N.key, epsilon] += 1
        return build(coef, N, epsilon)

    def counted_require(self, *args):
        inside.append(self)
        try:
            return require(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(DualityCoefficient, "hyperbolic", counted_ask)
    monkeypatch.setattr(wittkit.forms, "hyperbolic_form", counted_build)
    monkeypatch.setattr(DualityCoefficient, "require_strong", counted_require)
    rwi = parse_ring_with_involution("GF(3)[t]/(t^3), sigma=id")
    coef = standard_coefficient(rwi)
    engines = [WittEngine(coef, 1), WittEngine(coef, -1)]
    for engine in engines:
        for m in engine.shapes_up_to(2):
            for f in engine.classes(m):
                engine.metabolic(f)
    keys = sorted(rwi.module([a]).key for a in indecomposable_factor_anns(rwi.ring))
    assert sorted(asks) == keys
    assert set(asks.values()) == {1}
    # the +1 engine's hyperbolic blocks are the forms the check built
    assert sorted(builds) == sorted((key, e) for key in keys for e in (1, -1))
    assert set(builds.values()) == {1}


def test_an_engine_checks_strong_duality_with_its_own_sign(monkeypatch):
    # a -1 engine on a fresh coefficient reads H(N, -1) for the check and
    # for its blocks, and never builds H(N, +1)
    builds = Counter()
    build = wittkit.forms.hyperbolic_form

    def counted_build(coef, N, epsilon=1):
        builds[N.key, epsilon] += 1
        return build(coef, N, epsilon)

    monkeypatch.setattr(wittkit.forms, "hyperbolic_form", counted_build)
    rwi = parse_ring_with_involution("GF(3)[t]/(t^2), sigma=t->-t")
    coef = standard_coefficient(rwi)
    engine = WittEngine(coef, -1)
    assert coef._strong
    for m in engine.shapes_up_to(2):
        for f in engine.classes(m):
            engine.metabolic(f)
    keys = sorted(rwi.module([a]).key for a in indecomposable_factor_anns(rwi.ring))
    assert sorted(builds) == [(key, -1) for key in keys]
    assert set(builds.values()) == {1}


def test_coefficient_refuses_a_module_that_is_not_reflexive():
    rwi = t2_setup()
    t = rwi.ring.gen("t")
    coef = DualityCoefficient(rwi, FLModule(rwi, [t]), lambda x: (rwi.conj(x[0]),))
    with pytest.raises(NotStrongDuality):
        coef.require_strong()
    with pytest.raises(NotStrongDuality):
        WittEngine(coef, 1)
    assert standard_coefficient(rwi).require_strong()


def test_dual_refuses_a_module_over_another_involution():
    rwi = t2_setup()
    coef = standard_coefficient(rwi)
    M = free_module(rwi, 1)
    assert coef.dual(M) is coef.dual(M)
    # the module key leaves sigma out, so the cached dual of M must not
    # answer for a module over t -> -t
    twisted = free_module(t2_setup("twist"), 1)
    assert twisted.key == M.key
    with pytest.raises(CoefficientMismatch):
        coef.dual(twisted)


def sum_coefficient(rwi, anns):
    """I = R/(a_1) + ... + R/(a_n) with i = sigma on each component."""
    return DualityCoefficient(rwi, FLModule(rwi, anns), lambda x: tuple(rwi.conj(c) for c in x))


def oracle_coefficients():
    """(label, coefficient): the standard coefficient of seven rings, one
    devissage k-side transfer coefficient, and two coefficients over
    GF(3)[t]/(t^2) that are not strong."""
    specs = ["GF(3), sigma=id", "GF(9), sigma=frobenius", "GF(3)xGF(3), sigma=swap",
             "GF(3)[t]/(t^2), sigma=id", "GF(3)[t]/(t^2), sigma=t->-t",
             "GF(3)[t]/(t^3), sigma=id", "QQ, sigma=id"]
    out = [(spec, standard_coefficient(parse_ring_with_involution(spec))) for spec in specs]
    data = DevissageData(parse_ring_with_involution("GF(3)[t]/(t^3), sigma=id"))
    out.append(("k-side of GF(3)[t]/(t^3)", data.tc.coefficient))
    rwi = t2_setup()
    t = rwi.ring.gen("t")
    out.append(("I = R/(t)", sum_coefficient(rwi, [t])))
    out.append(("I = R + R/(t)", sum_coefficient(rwi, [rwi.ring.zero, t])))
    return out


def test_strong_duality_is_nondegeneracy_of_the_hyperbolic_form():
    """On every indecomposable N and every sum of two, the double-dual
    comparison is bijective exactly when H(N) is nondegenerate, for both
    signs; require_strong answers as the indecomposables do."""
    seen = set()
    for label, coef in oracle_coefficients():
        anns = indecomposable_factor_anns(coef.ring)
        strong = True
        for n in (1, 2):
            for pick in itertools.combinations_with_replacement(anns, n):
                N = coef.rwi.module(list(pick))
                reflexive = DoubleDualComparison(coef, N).bijective
                for epsilon in (1, -1):
                    assert hyperbolic_form(coef, N, epsilon).is_nondegenerate() == reflexive, (label, N)
                seen.add(reflexive)
                if n == 1:
                    strong = strong and reflexive
        if strong:
            assert coef.require_strong() is coef
        else:
            with pytest.raises(NotStrongDuality, match="is not reflexive"):
                coef.require_strong()
    assert seen == {True, False}
