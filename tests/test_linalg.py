"""Exact matrices over the ring tower: elimination, solving, determinants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.errors import WittKitError
from wittkit.linalg import Matrix, Solver, span_basis, span_contains
from wittkit.rings import GF, PrimeField, QuadraticField, QuotientRing, Rationals


def F3():
    return PrimeField(3)


def test_identity_and_zeros():
    F = F3()
    I = Matrix.identity(F, 3)
    Z = Matrix.zeros(F, 2, 3)
    assert I.rank() == 3
    assert Z.is_zero()
    assert (I * I) == I


def test_apply_and_transpose():
    F = F3()
    m = Matrix(F, [[F.el(1), F.el(2)], [F.el(0), F.el(1)]])
    out = m.apply((F.el(1), F.el(1)))
    assert out == (F.el(0), F.el(1))
    assert m.transpose().rows[0][1] == F.el(0)


def test_rref_rank_nullspace_over_prime_field():
    F = F3()
    m = Matrix(F, [[F.el(1), F.el(2), F.el(0)], [F.el(0), F.el(1), F.el(1)]])
    r, pivots = m.rref()
    assert m.rank() == 2
    assert pivots == [0, 1]
    ns = m.nullspace_basis()
    assert len(ns) == 1
    assert m.apply(tuple(ns[0])) == (F.zero, F.zero)


def test_solve_and_inverse_rational():
    Q = Rationals()
    m = Matrix(Q, [[Q.el(2), Q.el(1)], [Q.el(1), Q.el(1)]])
    sol = m.solve((Q.el(3), Q.el(2)))
    assert sol == (Q.el(1), Q.el(1))
    inv = m.inverse()
    assert (m * inv) == Matrix.identity(Q, 2)
    assert inv.rows[0][0] == Q.el(1)
    assert m.det() == Q.el(1)


def test_solve_reports_no_solution():
    F = F3()
    m = Matrix(F, [[F.el(1), F.el(1)], [F.el(2), F.el(2)]])
    assert m.solve((F.el(0), F.el(1))) is None


def test_det_leibniz_over_nonfield():
    F = F3()
    R = QuotientRing(F, [0, 0, 1], "t")
    t = R.gen("t")
    m = Matrix(R, [[R.one, t], [t, R.one]])
    assert m.det() == R.one  # 1 - t^2 = 1
    n = Matrix(R, [[t, R.zero], [R.zero, t]])
    assert n.det() == R.zero


def test_matrix_scalar_side_convention():
    # Element-by-matrix products keep the matrix on the left
    F = F3()
    m = Matrix.identity(F, 2)
    scaled = m.map_entries(lambda e: F.el(2) * e)
    assert scaled.rows[0][0] == F.el(2)


def test_hstack_vstack_shapes():
    F = F3()
    a = Matrix.identity(F, 2)
    b = Matrix.zeros(F, 2, 1)
    h = a.hstack(b)
    assert h.ncols == 3 and h.nrows == 2
    v = a.vstack(Matrix.zeros(F, 1, 2))
    assert v.nrows == 3 and v.ncols == 2


def test_from_cols_roundtrip():
    F = F3()
    cols = [[F.el(1), F.el(0)], [F.el(2), F.el(1)]]
    m = Matrix.from_cols(F, cols)
    assert m.rows[0][1] == F.el(2)
    assert m.rows[1][1] == F.el(1)


def test_span_helpers():
    F = F3()
    v1 = (F.el(1), F.el(0), F.el(1))
    v2 = (F.el(0), F.el(1), F.el(0))
    basis = span_basis([v1, v2, (F.el(1), F.el(1), F.el(1))], F)
    assert len(basis) == 2
    assert span_contains(basis, (F.el(2), F.el(1), F.el(2)), F)
    assert not span_contains(basis, (F.el(1), F.el(0), F.el(0)), F)


def test_gf9_elimination():
    F9 = GF(9)
    u = F9.gen("u")
    m = Matrix(F9, [[u, F9.one], [F9.one, u]])
    # det = u^2 - 1 = -2 = 1 over F_3
    assert m.det() == F9.one
    assert m.rank() == 2
    assert (m * m.inverse()) == Matrix.identity(F9, 2)


def test_fraction_entries_stay_exact():
    Q = Rationals()
    m = Matrix(Q, [[Q.el(Fraction(1, 3)), Q.el(Fraction(1, 7))],
                   [Q.el(Fraction(1, 7)), Q.el(Fraction(1, 3))]])
    d = m.det()
    assert d == Q.el(Fraction(1, 9) - Fraction(1, 49))


def test_matrix_times_non_scalar_is_rejected():
    # a list is neither a Matrix nor a scalar; over QQ(i) a 2-element list
    # would otherwise be read as raw field data and coerced to 1+2i
    K = QuadraticField(-1)
    m = Matrix.identity(K, 2)
    for bad in ([1, 2], [[1, 0], [0, 1]]):
        with pytest.raises(WittKitError, match="list"):
            m * bad
        with pytest.raises(WittKitError, match="list"):
            bad * m
    assert m * 2 == Matrix(K, [[K.el(2), K.zero], [K.zero, K.el(2)]])
    assert 2 * m == m * 2
    i = K.el((0, 1))
    assert (m * i)[(0, 0)] == i and (m * i)[(0, 1)] == K.zero
    Q = Rationals()
    assert (Matrix.identity(Q, 1) * Fraction(1, 3))[(0, 0)] == Q.el(Fraction(1, 3))


FIELDS = [PrimeField(3), GF(9), Rationals()]


@st.composite
def system(draw):
    """A field, an m x n matrix (m, n in 0..4) and right-hand sides: each
    either A x for a drawn x, so solvable, or drawn freely, so for a matrix
    of rank below m often not solvable."""
    F = draw(st.sampled_from(FIELDS))
    if F.is_finite:
        entry = st.sampled_from(list(F.elements()))
    else:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(F.el)
    m = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=0, max_value=4)) if m else 0
    A = Matrix(F, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))
    rhs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            rhs.append(A.apply(tuple(draw(st.lists(entry, min_size=n, max_size=n)))))
        else:
            rhs.append(tuple(draw(st.lists(entry, min_size=m, max_size=m))))
    return A, rhs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(system())
def test_solver_agrees_with_solve(case):
    A, rhs = case
    solver = Solver(A)
    for b in rhs:
        assert solver.solve(b) == A.solve(b)


def test_solver_factors_its_matrix_once(monkeypatch):
    F = F3()
    A = Matrix(F, [[1, 1, 0], [2, 2, 0], [0, 1, 1]])
    solver = Solver(A)
    assert solver.solve((F.el(1), F.el(2), F.el(0))) == (F.el(1), F.zero, F.zero)
    calls = []
    rref = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(1) or rref(self))
    assert solver.solve((F.el(0), F.el(1), F.el(0))) is None
    assert solver.solve((F.zero,) * 3) == (F.zero,) * 3
    assert solver.solve((F.el(2), F.el(1), F.el(1))) == (F.el(1), F.el(1), F.zero)
    assert not calls
    with pytest.raises(WittKitError, match="length 2 for 3 rows"):
        solver.solve((F.zero,) * 2)
