"""Diagonalization over field models."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wittkit.coefficients import standard_coefficient
from wittkit.errors import Degenerate, NotDiagonalizable, UnsupportedField
from wittkit.fieldwitt import diagonalize
from wittkit.forms import HermitianForm, diagonal_form, hyperbolic_form, is_metabolic, isometric
from wittkit.linalg import Matrix
from wittkit.modules import free_module
from wittkit.rings import (
    GF,
    PrimeField,
    QuadraticField,
    QuotientRing,
    Rationals,
    involution,
)


def std(ring, spec="id"):
    return standard_coefficient(involution(ring, spec))


def congruent_diagonal(form, entries, cob):
    rwi = form.coef.rwi
    n = len(form.module.factors)
    lhs = cob.map_entries(rwi.conj).transpose() * form.btensor() * cob
    for i in range(n):
        for j in range(n):
            want = entries[i] if i == j else form.ring.zero
            if lhs[(i, j)] != want:
                return False
    return True


def test_hyperbolic_plane_over_gaussian_conjugation():
    K = QuadraticField(-1)
    coef = std(K, "conj")
    M = free_module(coef.rwi, 2)
    f = HermitianForm(coef, M, [[K.zero, K.one], [K.one, K.zero]], 1)
    entries, cob = diagonalize(f)
    assert [repr(e) for e in entries] == ["1", "-1"]
    assert congruent_diagonal(f, entries, cob)


def test_unit_form_stays_put():
    coef = std(PrimeField(3))
    entries, cob = diagonalize(diagonal_form(coef, [PrimeField(3).one]))
    assert entries == [PrimeField(3).one]
    assert cob == Matrix.identity(PrimeField(3), 1)


def test_rescaling_uses_canonical_orbit_representatives():
    F5 = PrimeField(5)
    coef = std(F5)
    # 4 = 2^2, so <4> and <1> share an orbit under square rescaling
    entries, _ = diagonalize(diagonal_form(coef, [F5.el(4)]))
    assert entries == [F5.one]


def test_alternating_forms_are_not_diagonalizable():
    coef = std(PrimeField(3))
    M = free_module(coef.rwi, 2)
    F3 = PrimeField(3)
    f = HermitianForm(coef, M, [[F3.zero, F3.one], [F3.el(2), F3.zero]], -1)
    with pytest.raises(NotDiagonalizable):
        diagonalize(f)


def test_diagonalize_needs_a_field_model():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 1], "t")
    with pytest.raises(UnsupportedField):
        diagonalize(diagonal_form(std(R), [R.one]))


def test_definite_gaussian_form_keeps_positive_entries():
    K = QuadraticField(-1)
    coef = std(K, "conj")
    entries, cob = diagonalize(diagonal_form(coef, [K.one, K.one, K.one]))
    assert [repr(e) for e in entries] == ["1", "1", "1"]
    assert congruent_diagonal(diagonal_form(coef, [K.one, K.one, K.one]), entries, cob)


def test_rational_entries_keep_their_signs():
    QQ = Rationals()
    f = diagonal_form(std(QQ), [QQ.el(Fraction(2)), QQ.el(Fraction(-3, 7))])
    entries, cob = diagonalize(f)
    # rescaling multiplies by norms mu^2 > 0: one positive, one negative entry
    assert [e.data > 0 for e in entries] == [True, False]
    assert congruent_diagonal(f, entries, cob)


def test_diagonalize_rejects_a_degenerate_form():
    QQ = Rationals()
    with pytest.raises(Degenerate):
        diagonalize(diagonal_form(std(QQ), [QQ.zero, QQ.one]))


def test_planes_over_f3_split_by_discriminant():
    F3 = PrimeField(3)
    coef = std(F3)
    one_one = diagonal_form(coef, [F3.one, F3.one])
    one_two = diagonal_form(coef, [F3.one, F3.el(2)])
    # discriminants 1 and 2 = -1 differ; 4 = 1 is a square
    assert isometric(one_one, one_two) is None
    assert isometric(one_one, diagonal_form(coef, [F3.el(2), F3.el(2)])) is not None
    assert diagonalize(one_two)[0] != diagonalize(one_one)[0]


def test_sum_of_two_squares_is_metabolic_over_f5():
    F5 = PrimeField(5)
    f = diagonal_form(std(F5), [F5.one, F5.one])
    # -1 = 2^2 mod 5, so (1, 2) is isotropic
    assert f.evaluate(f.module.element([F5.one, F5.el(2)]),
                      f.module.element([F5.one, F5.el(2)])) == (F5.zero,)
    assert is_metabolic(f)


def test_unit_form_over_f9_frobenius_is_not_metabolic_but_hyperbolic_is():
    F9 = GF(9)
    coef = std(F9, "frobenius")
    assert not is_metabolic(diagonal_form(coef, [F9.one]))
    assert is_metabolic(hyperbolic_form(coef, free_module(coef.rwi, 1)))


# (field, sigma, epsilon): every model diagonalize supports except the
# alternating ones, where it refuses by design
DIAGONALIZABLE = [
    (PrimeField(3), "id", 1),
    (PrimeField(5), "id", 1),
    (GF(9), "frobenius", 1),
    (GF(9), "frobenius", -1),
    (QuadraticField(-1), "conj", 1),
    (QuadraticField(-1), "conj", -1),
]


@st.composite
def nondegenerate_forms(draw, ring, spec, eps):
    """An eps-hermitian Gram table of rank 1..3 on a free module; over
    QQ(i) the entries have integer parts in -2..2.  A diagonal entry is the
    eps-symmetric part (a + eps sigma(a)) / 2 of a drawn a, which reaches
    every allowed value."""
    coef = std(ring, spec)
    conj = coef.rwi.conj
    if ring.is_finite:
        entry = st.sampled_from(list(ring.elements()))
    else:
        entry = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(ring.el)
    half = ring.el(Fraction(1, 2)) if not ring.is_finite else ring.el(2).inverse()
    n = draw(st.integers(min_value=1, max_value=3))
    gram = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        a = draw(entry)
        gram[i][i] = (a + ring.el(eps) * conj(a)) * half
        for j in range(i + 1, n):
            gram[i][j] = draw(entry)
            gram[j][i] = ring.el(eps) * conj(gram[i][j])
    form = HermitianForm(coef, free_module(coef.rwi, n), gram, eps)
    assume(form.is_nondegenerate())
    return form


@pytest.mark.parametrize("ring, spec, eps", DIAGONALIZABLE,
                         ids=[f"{r}-{s}-{e:+d}" for r, s, e in DIAGONALIZABLE])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_diagonalize_is_a_congruence_to_a_nondegenerate_diagonal(ring, spec, eps, data):
    form = data.draw(nondegenerate_forms(ring, spec, eps))
    entries, cob = diagonalize(form)
    assert len(entries) == len(form.module.factors)
    assert all(not e.is_zero() for e in entries)
    assert congruent_diagonal(form, entries, cob)
