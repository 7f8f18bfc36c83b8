"""Exact matrices over the ring tower: elimination, solving, determinants."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittkit import linalg
from wittkit.errors import WittKitError
from wittkit.linalg import Basis, Echelon, Matrix, span_basis
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


def test_matrices_with_no_row_keep_their_columns():
    F = F3()
    z = Matrix.zeros(F, 0, 3)
    assert (z.nrows, z.ncols) == (0, 3)
    assert z != Matrix.zeros(F, 0, 2)
    t = z.transpose()
    assert (t.nrows, t.ncols) == (3, 0)
    assert (t * z) == Matrix.zeros(F, 3, 3)
    assert ((z * Matrix.zeros(F, 3, 2)).nrows, (z * Matrix.zeros(F, 3, 2)).ncols) == (0, 2)
    assert z.hstack(Matrix.zeros(F, 0, 1)).ncols == 4
    assert z.rref() == (z, [])
    assert len(z.nullspace_basis()) == 3
    assert Matrix.from_cols(F, [(), ()]).ncols == 2
    assert Matrix.from_cols(F, [], 2) == Matrix.zeros(F, 2, 0)
    with pytest.raises(WittKitError):
        Matrix(F, [[F.one]], 2)


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
def independent_list(draw):
    """A field, an independent list of vectors of F^n (n in 0..4, the
    first independent ones among up to four drawn) and probe vectors:
    each either a combination of the list, so inside its span, or drawn
    freely, so often outside it."""
    F = draw(st.sampled_from([PrimeField(3), PrimeField(5), Rationals()]))
    if F.is_finite:
        entry = st.sampled_from(list(F.elements()))
    else:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(F.el)
    n = draw(st.integers(min_value=0, max_value=4))
    vector = st.lists(entry, min_size=n, max_size=n).map(tuple)
    vectors = span_basis(draw(st.lists(vector, max_size=4)), F)
    probes = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            x = draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
            probes.append(Basis(F, vectors, n).combine(x))
        else:
            probes.append(draw(vector))
    return F, n, vectors, probes


@settings(derandomize=True, max_examples=60, deadline=None)
@given(independent_list())
def test_basis_coords_agree_with_solve(case):
    F, n, vectors, probes = case
    basis = Basis(F, vectors, n)
    for v in probes:
        x = basis.coords(v)
        if vectors:
            assert x == Matrix.from_cols(F, vectors).solve(v)
        else:
            assert x == (() if all(c.is_zero() for c in v) else None)
        if x is not None:
            assert basis.combine(x) == v


def test_basis_coords_refuse_vectors_outside_the_span():
    F = F3()
    basis = Basis(F, [(F.el(1), F.el(1), F.zero), (F.zero, F.el(1), F.el(2))], 3)
    assert basis.coords((F.el(2), F.el(1), F.el(1))) == (F.el(2), F.el(2))
    assert basis.coords((F.zero, F.zero, F.el(1))) is None
    assert basis.coords((F.el(1), F.zero, F.zero)) is None
    assert basis.coords((F.zero,) * 3) == (F.zero, F.zero)
    empty = Basis(F, [], 2)
    assert empty.combine(()) == (F.zero, F.zero)
    assert empty.coords((F.zero, F.zero)) == ()
    assert empty.coords((F.el(1), F.zero)) is None
    with pytest.raises(WittKitError, match=r"length 2 in F\^3"):
        basis.coords((F.zero,) * 2)


def test_basis_builds_its_echelon_once(monkeypatch):
    built = []

    class CountedEchelon(Echelon):
        def __init__(self, F, rows=()):
            built.append(1)
            super().__init__(F, rows)

    monkeypatch.setattr(linalg, "Echelon", CountedEchelon)
    Q = Rationals()
    half = Q.el(Fraction(1, 2))
    basis = Basis(Q, [(Q.one, half, Q.zero), (Q.zero, Q.one, Q.one)], 3)
    assert basis.combine((Q.el(2), Q.el(-1))) == (Q.el(2), Q.zero, Q.el(-1))
    assert not built
    assert basis.coords((Q.el(2), Q.zero, Q.el(-1))) == (Q.el(2), Q.el(-1))
    assert basis.coords((Q.one, Q.zero, Q.zero)) is None
    assert basis.coords((Q.zero, half, half)) == (Q.zero, half)
    assert len(built) == 1


# -- Echelon against the eliminations it replaced ----------------------------


def gauss_jordan_rref(m):
    """Matrix.rref as it was before Echelon: Gauss-Jordan on Elements, one
    pivot column at a time, zero rows left at the bottom."""
    rows = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pr = next((i for i in range(r, m.nrows) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * a for a in rows[r]]
        for i in range(m.nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return Matrix(m.ring, rows, m.ncols), pivots


def solve_span_basis(vectors, F):
    """span_basis as it was defined before Echelon: keep v when the matrix
    of the vectors kept so far finds no solution for it."""
    basis = []
    for v in vectors:
        if not basis:
            inside = all(c.is_zero() for c in v)
        else:
            inside = Matrix.from_cols(F, basis).solve(v) is not None
        if not inside:
            basis.append(tuple(v))
    return basis


def data(vec):
    return [c.data for c in vec]


@st.composite
def vectors(draw):
    """A field, a length n in 1..4 and up to six vectors of F^n; a vector
    is drawn freely or as a combination of two earlier ones, so spans of
    every rank (and repeated vectors) come up."""
    F = draw(st.sampled_from(FIELDS))
    if F.is_finite:
        entry = st.sampled_from(list(F.elements()))
    else:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(F.el)
    n = draw(st.integers(min_value=1, max_value=4))
    vecs = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if len(vecs) >= 2 and draw(st.booleans()):
            i, j = draw(st.integers(0, len(vecs) - 1)), draw(st.integers(0, len(vecs) - 1))
            a, b = draw(entry), draw(entry)
            vecs.append(tuple(a * x + b * y for x, y in zip(vecs[i], vecs[j])))
        else:
            vecs.append(tuple(draw(st.lists(entry, min_size=n, max_size=n))))
    probe = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    return F, n, vecs, probe


ECHELON_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


# back-substitution here takes 0 - 1 * 1, which only a reduction mod 3 keeps
# in 0..2
BACK_SUBSTITUTION = (PrimeField(3), 3, [tuple(PrimeField(3).el(c) for c in v)
                                        for v in ([1, 1, 0], [0, 1, 1])], None)


@ECHELON_SETTINGS
@given(vectors())
@example(BACK_SUBSTITUTION)
def test_rref_equals_gauss_jordan(case):
    F, n, vecs, _ = case
    m = Matrix(F, [list(v) for v in vecs]) if vecs else Matrix.zeros(F, 0, n)
    assert m.rref() == gauss_jordan_rref(m)


@ECHELON_SETTINGS
@given(vectors(), st.randoms(use_true_random=False))
def test_echelon_rows_do_not_depend_on_insertion_order(case, rng):
    F, n, vecs, _ = case
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    a, b = Echelon(F), Echelon(F)
    for v in vecs:
        a.insert(data(v))
    for v in shuffled:
        b.insert(data(v))
    assert a.rows == b.rows
    assert a.pivots() == sorted(a.pivots())


@ECHELON_SETTINGS
@given(vectors())
def test_span_basis_equals_the_solve_definition(case):
    F, n, vecs, _ = case
    assert span_basis(vecs, F) == solve_span_basis(vecs, F)


@ECHELON_SETTINGS
@given(vectors())
def test_contains_agrees_with_solve(case):
    F, n, vecs, probe = case
    ech = Echelon(F)
    for v in vecs:
        ech.insert(data(v))
    copy = ech.copy()
    for v in vecs + [probe]:
        inside = Matrix.from_cols(F, vecs).solve(v) is not None if vecs else not any(v)
        assert ech.contains(data(v)) == inside
        # reduce leaves zero on every pivot, and nothing exactly inside
        reduced = ech.reduce(data(v))
        assert all(reduced[p] == F.zero.data for p in ech.pivots())
        assert (not any(c != F.zero.data for c in reduced)) == inside
    # growing a copy leaves the original alone
    before = [(p, list(r)) for p, r in ech.rows]
    copy.insert(data(probe))
    copy.insert([F.one.data] * n)
    assert ech.rows == before
