"""Pushforward of duality coefficients and forms along finite ring maps."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.coefficients import standard_coefficient
from wittkit.devissage import DevissageData, verify_localcase_factorization
from wittkit.errors import (
    CoefficientMismatch,
    DomainMismatch,
    NotEquivariant,
)
from wittkit.forms import HermitianForm, canonical_order, diagonal_form, isometric, orthogonal_sum
from wittkit.linalg import Matrix, unit_vector
from wittkit.modules import Decomposition, FLModule, free_module, map_matrix
from wittkit.parser import parse_ring_with_involution
from wittkit.rings import (
    GF,
    PrimeField,
    QuadraticField,
    QuotientRing,
    Rationals,
    RingMap,
    identity_map,
    involution,
)
from wittkit.transfer import (
    GammaComparison,
    RestrictedModule,
    TransferCoefficient,
    transfer_form,
)
from wittkit.wittgroup import WittEngine, sample_gram_tables


def f9_over_f3():
    F3 = PrimeField(3)
    F9 = GF(9)
    pi = RingMap(F3, F9, [])
    src = involution(F3, "id")
    dst = involution(F9, "frobenius")
    return pi, src, dst


def test_flat_coefficient_of_field_extension():
    pi, src, dst = f9_over_f3()
    tc = TransferCoefficient(pi, dst, standard_coefficient(src))
    assert len(tc.module.factors) == 1
    assert tc.module.factors[0].ann.is_zero()
    assert tc.module.sdim == 2


def test_hermitian_transfer_of_unit_form():
    pi, src, dst = f9_over_f3()
    tc = TransferCoefficient(pi, dst, standard_coefficient(src))
    F9 = dst.ring
    M = FLModule(dst, [F9.zero])
    f = HermitianForm(tc.coefficient, M, [[F9.one]], 1)
    out = transfer_form(tc, f)
    F3 = src.ring
    assert len(out.module.factors) == 2
    assert out.is_nondegenerate()
    assert [fac.ann.is_zero() for fac in out.module.factors] == [True, True]
    flat = [[v[0] for v in row] for row in out.gram]
    assert flat == [[F3.one, F3.zero], [F3.zero, F3.one]]


def test_transfer_requires_matching_coefficient():
    pi, src, dst = f9_over_f3()
    tc = TransferCoefficient(pi, dst, standard_coefficient(src))
    # a base-field form is not valued in the pushed-forward coefficient
    f = diagonal_form(standard_coefficient(src), [src.ring.one])
    with pytest.raises(CoefficientMismatch):
        transfer_form(tc, f)


def test_identity_transfer_is_evaluation_iso():
    F3 = PrimeField(3)
    rwi = involution(F3, "id")
    tc = TransferCoefficient(identity_map(F3), rwi, standard_coefficient(rwi))
    ev = map_matrix(tc.module, tc.source_coef.module, tc.eval_at_one)
    assert ev == Matrix.identity(tc.F, 1)
    f = HermitianForm(tc.coefficient, FLModule(rwi, [F3.zero]), [[F3.el(2)]], 1)
    out = transfer_form(tc, f)
    assert out.gram[0][0] == (F3.el(2),)


def test_socle_coefficient_of_nilpotent_quotient():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 1], "t")
    t = R.gen("t")
    pi = RingMap(R, F3, [F3.zero])
    rwi_k = involution(F3, "id")
    for spec, imat_entry in (("id", 1), ({"t": [0, 2]}, 2)):
        rwi_R = involution(R, spec) if spec != "id" else involution(R, "id")
        tc = TransferCoefficient(pi, rwi_k, standard_coefficient(rwi_R))
        assert len(tc.module.factors) == 1
        assert tc.module.factors[0].ann.is_zero()
        assert tc.coefficient.imat == Matrix(tc.F, [[tc.F.el(imat_entry)]])
        gen = tc.module.from_vec((tc.F.one,))
        # the hom picked as generator lands in the socle of R
        assert tc.eval(gen, F3.one) in ((t,), (-t,))


def test_transfer_preserves_orthogonal_sum():
    pi, src, dst = f9_over_f3()
    tc = TransferCoefficient(pi, dst, standard_coefficient(src))
    F9 = dst.ring
    u = F9.gen("u")
    M1 = FLModule(dst, [F9.zero])
    f = HermitianForm(tc.coefficient, M1, [[F9.one]], 1)
    g = HermitianForm(tc.coefficient, M1, [[F9.el(2)]], 1)
    both = transfer_form(tc, orthogonal_sum(f, g))
    split = orthogonal_sum(transfer_form(tc, f), transfer_form(tc, g))
    assert both.gram_key() == split.gram_key()


def test_gamma_comparison_on_quotient_tower():
    F3 = PrimeField(3)
    R3 = QuotientRing(F3, [0, 0, 0, 1], "t")
    R2 = QuotientRing(F3, [0, 0, 1], "t")
    p = RingMap(R3, R2, [R2.gen("t")])
    q = RingMap(R2, F3, [F3.zero])
    rwi_mid = involution(R2, "id")
    rwi_dst = involution(F3, "id")
    for spec in ("id", {"t": [0, 2]}):
        rwi_R = involution(R3, spec) if spec != "id" else involution(R3, "id")
        if spec != "id":
            rwi_mid = involution(R2, {"t": [0, 2]})
        gamma = GammaComparison(p, q, rwi_mid, rwi_dst, standard_coefficient(rwi_R))
        assert gamma.matrix == Matrix.identity(gamma.direct.F, 1)


def test_transfer_error_taxonomy():
    F3 = PrimeField(3)
    F9 = GF(9)
    pi = RingMap(F3, F9, [])
    dst = involution(F9, "frobenius")
    with pytest.raises(DomainMismatch):
        TransferCoefficient(pi, dst, standard_coefficient(dst))
    ident = identity_map(F9)
    with pytest.raises(NotEquivariant):
        TransferCoefficient(ident, dst, standard_coefficient(involution(F9, "id")))


def test_restrict_scalars_roundtrip():
    pi, src, dst = f9_over_f3()
    M = FLModule(dst, [dst.ring.zero])
    res = RestrictedModule(pi, src, M)
    assert res.module.length == 2
    x = M.element([dst.ring.gen("u")])
    back = M.from_vec(res.to_ambient(res.of_ambient(M.to_vec(x))))
    assert back == x


# -- the devissage transfer on seeded k-forms --------------------------------

DEVISSAGE_CASES = [
    ("GF(3)[t]/(t^3), sigma=id", 1),
    ("GF(3)[t]/(t^3), sigma=id", -1),
    ("GF(3)[t]/(t^2), sigma=t->-t", -1),
    ("GF(9)[t]/(t^2), sigma=t->-t", 1),
    ("GF(9)[t]/(t^2), sigma=t->-t", -1),
]

_DEVISSAGE = {}


def devissage_data(text):
    if text not in _DEVISSAGE:
        _DEVISSAGE[text] = DevissageData(parse_ring_with_involution(text))
    return _DEVISSAGE[text]


@pytest.mark.parametrize("text, epsilon", DEVISSAGE_CASES,
                         ids=[f"{t} {e:+d}" for t, e in DEVISSAGE_CASES])
@settings(derandomize=True, max_examples=24, deadline=None)
@given(data=st.data())
def test_devissage_transfer_keeps_nondegeneracy_and_sums(text, epsilon, data):
    dd = devissage_data(text)
    forms = []
    for name in ("f", "g"):
        rank = data.draw(st.integers(1, 2), label=f"rank of {name}")
        seed = data.draw(st.integers(0, 10 ** 6), label=f"seed of {name}")
        module = free_module(dd.rwi_k, rank)
        forms.append(next(sample_gram_tables(dd.tc.coefficient, module, epsilon, 1, random.Random(seed))))
    f, g = forms
    tf, tg = (transfer_form(dd.tc, h) for h in forms)
    # nondegenerate forms go to nondegenerate forms, and a radical to a
    # radical
    for h, th in ((f, tf), (g, tg)):
        assert th.is_nondegenerate() == h.is_nondegenerate()
    # the transfer of a sum is the sum of the transfers, degenerate
    # summands included
    both = transfer_form(dd.tc, orthogonal_sum(f, g))
    assert isometric(canonical_order(both), orthogonal_sum(tf, tg)) is not None


# -- the raw-coordinate transfer against the Element oracle -------------------
#
# transfer_form computes each Gram entry as E . sum u_c1 v_c2 T[c1][c2] on
# raw scalar data.  The oracle is the transfer before that: the restricted
# generators as elements of the module over S, the form evaluated on them
# with HermitianForm.evaluate and each value evaluated at one through the
# hom matrix (TransferCoefficient.eval_at_one).


def oracle_transfer_form(tc, form):
    rm = tc.restriction(form.module)
    M = form.module
    gens = [M.from_vec(rm.to_ambient(g)) for g in rm.module.generators()]
    gram = [[tc.eval_at_one(form.evaluate(x, y)) for y in gens] for x in gens]
    return HermitianForm(tc.source_coef, rm.module, gram, form.epsilon)


def assert_transfer_matches_oracle(tc, form):
    out, ref = transfer_form(tc, form), oracle_transfer_form(tc, form)
    assert out.module is ref.module
    assert out.gram_key() == ref.gram_key()
    assert out.gram == ref.gram
    assert out.is_nondegenerate() == ref.is_nondegenerate() == form.is_nondegenerate()


def _devissage_tower(text):
    return lambda: devissage_data(text).tc


def _f9_tower():
    pi, src, dst = f9_over_f3()
    return TransferCoefficient(pi, dst, standard_coefficient(src))


def _gamma_tower(name):
    def build():
        rwi = parse_ring_with_involution("GF(3)[t]/(t^3), sigma=id")
        gamma = verify_localcase_factorization(rwi, rwi.ring.gen("t") ** 2, 1, 1).gamma
        return getattr(gamma, name)
    return build


# (id, transfer coefficient thunk, epsilon, length bound of the classes)
ORACLE_TOWERS = [
    ("t^3 id +1", _devissage_tower("GF(3)[t]/(t^3), sigma=id"), 1, 4),
    ("t^2 t->-t -1", _devissage_tower("GF(3)[t]/(t^2), sigma=t->-t"), -1, 4),
    ("GF(9)[t]/(t^2) t->-t +1", _devissage_tower("GF(9)[t]/(t^2), sigma=t->-t"), 1, 4),
    ("F3->F9 frobenius +1", _f9_tower, 1, 3),
    ("F3->F9 frobenius -1", _f9_tower, -1, 3),
    ("gamma J=(t^2) inner", _gamma_tower("inner"), 1, 3),
    ("gamma J=(t^2) composite", _gamma_tower("composite"), 1, 4),
    ("gamma J=(t^2) direct", _gamma_tower("direct"), 1, 4),
]


@pytest.mark.parametrize("build, epsilon, bound", [t[1:] for t in ORACLE_TOWERS],
                         ids=[t[0] for t in ORACLE_TOWERS])
def test_transfer_of_every_class_matches_the_element_oracle(build, epsilon, bound):
    tc = build()
    engine = WittEngine(tc.coefficient, epsilon)
    classes = [f for m in engine.shapes_up_to(bound) for f in engine.classes(m)]
    assert len(classes) >= 2
    for f in classes:
        assert_transfer_matches_oracle(tc, f)


@pytest.mark.parametrize("build, epsilon", [t[1:3] for t in ORACLE_TOWERS],
                         ids=[t[0] for t in ORACLE_TOWERS])
def test_transfer_of_seeded_tables_matches_the_element_oracle(build, epsilon):
    """Seeded Gram tables on every shape of length at most 2, degenerate
    ones included."""
    tc = build()
    rng = random.Random(5)
    engine = WittEngine(tc.coefficient, epsilon)
    degenerate = 0
    for module in engine.shapes_up_to(2):
        for f in sample_gram_tables(tc.coefficient, module, epsilon, 6, rng):
            degenerate += not f.is_nondegenerate()
            assert_transfer_matches_oracle(tc, f)
    assert degenerate


def test_transfer_over_qq_matches_the_element_oracle():
    """QQ -> QQ(i) with conj: the data are Fractions, reduced exactly."""
    QQ, K = Rationals(), QuadraticField(-1)
    tc = TransferCoefficient(RingMap(QQ, K, []), involution(K, "conj"),
                             standard_coefficient(involution(QQ, "id")))
    I = tc.module
    M = free_module(tc.rwi_dst, 2)
    values = [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5)]
    rng = random.Random(3)
    for _ in range(12):
        a, b, c = (I.from_vec(tuple(rng.choice(values) for _ in range(I.sdim))) for _ in range(3))
        for epsilon in (1, -1):
            i = tc.coefficient.i
            # diagonal entries with b(x, x) = epsilon i(b(x, x))
            diag = [I.add(e, I.scal(K.el(epsilon), i(e))) for e in (a, c)]
            gram = [[diag[0], b], [I.scal(K.el(epsilon), i(b)), diag[1]]]
            assert_transfer_matches_oracle(tc, HermitianForm(tc.coefficient, M, gram, epsilon))


def test_every_localcase_restriction_matches_the_element_action():
    """RestrictedModule acts by the raw action of pi(a) on M's coordinates.
    The oracle is the action before that, through Elements:
    M.to_vec(M.scal(pi(a), M.from_vec(v))).  Every restriction that the
    localcase check on GF(3)[t]/(t^3), J = (t^2) makes, along the three
    transfers of its tower, splits into the same module and generators."""
    rwi = parse_ring_with_involution("GF(3)[t]/(t^3), sigma=id")
    gamma = verify_localcase_factorization(rwi, rwi.ring.gen("t") ** 2, 1, 3).gamma
    checked = 0
    for tc in (gamma.inner, gamma.composite, gamma.direct):
        for rm in tc._restrictions.values():
            M, pi = rm.over, tc.pi

            def act(a, v, M=M, pi=pi):
                return M.to_vec(M.scal(pi(a), M.from_vec(v)))

            basis = [unit_vector(M.F, M.sdim, i) for i in range(M.sdim)]
            ref = Decomposition(tc.rwi_src, basis, act, M.sdim)
            assert rm.module.key == ref.module.key
            assert [f.ann for f in rm.module.factors] == [f.ann for f in ref.module.factors]
            assert rm.gens == ref.gens
            checked += 1
    assert checked >= 10
