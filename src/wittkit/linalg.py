"""Dense exact matrices over the rings from .rings.

Entries are Elements.  Elimination-based routines (rank, solve, inverse,
nullspace) require the ring to be a field; everything else works over any
commutative ring.  Sizes here are desk-scale, no attempt at asymptotics.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import WittKitError
from .rings import Element


class Matrix:
    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [[ring.el(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise WittKitError("ragged matrix")

    @classmethod
    def zeros(cls, ring, m, n):
        return cls(ring, [[ring.zero] * n for _ in range(m)])

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, ring, cols):
        if not cols:
            return cls(ring, [])
        n = len(cols[0])
        return cls(ring, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def __add__(self, other):
        self._match(other)
        return Matrix(self.ring, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._match(other)
        return Matrix(self.ring, [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in r] for r in self.rows])

    def _match(self, other):
        if self.ring != other.ring or self.nrows != other.nrows or self.ncols != other.ncols:
            raise WittKitError("matrix shape/ring mismatch")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows or self.ring != other.ring:
                raise WittKitError(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            z = self.ring.zero
            out = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = z
                    for k in range(self.ncols):
                        acc = acc + self.rows[i][k] * other.rows[k][j]
                    row.append(acc)
                out.append(row)
            return Matrix(self.ring, out)
        if not isinstance(other, (Element, int, Fraction)):
            raise WittKitError(
                f"cannot multiply a matrix by a {type(other).__name__}: "
                "expected a Matrix, an Element, an int or a Fraction"
            )
        c = self.ring.el(other)
        return Matrix(self.ring, [[c * a for a in r] for r in self.rows])

    __rmul__ = __mul__

    def apply(self, vec):
        """Matrix times column vector (tuple of Elements)."""
        if len(vec) != self.ncols:
            raise WittKitError("vector length mismatch")
        z = self.ring.zero
        out = []
        for i in range(self.nrows):
            acc = z
            for k in range(self.ncols):
                acc = acc + self.rows[i][k] * self.ring.el(vec[k])
            out.append(acc)
        return tuple(out)

    def transpose(self):
        return Matrix(self.ring, [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def map_entries(self, fn, ring=None):
        ring = ring or self.ring
        return Matrix(ring, [[fn(a) for a in r] for r in self.rows])

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise WittKitError("hstack row mismatch")
        return Matrix(self.ring, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)])

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise WittKitError("vstack column mismatch")
        return Matrix(self.ring, self.rows + other.rows)

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        if not self.rows:
            return "Matrix([])"
        body = "; ".join(" ".join(repr(a) for a in r) for r in self.rows)
        return f"[{body}]"

    # -- elimination (field entries) --------------------------------------
    def _check_field(self):
        if not self.ring.is_field:
            raise WittKitError(f"elimination requires a field, got {self.ring}")

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        self._check_field()
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pr = None
            for i in range(r, self.nrows):
                if not rows[i][c].is_zero():
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = rows[r][c].inverse()
            rows[r] = [inv * a for a in rows[r]]
            for i in range(self.nrows):
                if i != r and not rows[i][c].is_zero():
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return Matrix(self.ring, rows), pivots

    def rank(self):
        return len(self.rref()[1])

    def nullspace_basis(self):
        """Basis of the right kernel, as tuples of Elements; deterministic
        (free variables in increasing column order)."""
        R, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [self.ring.zero] * self.ncols
            v[fc] = self.ring.one
            for r, pc in enumerate(pivots):
                v[pc] = -R.rows[r][fc]
            basis.append(tuple(v))
        return basis

    def solve(self, rhs):
        """One solution of self * x = rhs, or None.  rhs: tuple of Elements."""
        self._check_field()
        aug = self.hstack(Matrix(self.ring, [[v] for v in rhs]))
        R, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [self.ring.zero] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = R.rows[r][self.ncols]
        return tuple(x)

    def inverse(self):
        self._check_field()
        if self.nrows != self.ncols:
            raise WittKitError("inverse of non-square matrix")
        aug = self.hstack(Matrix.identity(self.ring, self.nrows))
        R, pivots = aug.rref()
        if pivots != list(range(self.nrows)):
            raise WittKitError("matrix is singular")
        return Matrix(self.ring, [r[self.nrows:] for r in R.rows])

    def det(self):
        """Determinant; elimination over fields, Leibniz sum otherwise
        (only used for very small matrices over non-fields)."""
        if self.nrows != self.ncols:
            raise WittKitError("determinant of non-square matrix")
        n = self.nrows
        if n == 0:
            return self.ring.one
        if self.ring.is_field:
            rows = [list(r) for r in self.rows]
            det = self.ring.one
            for c in range(n):
                pr = None
                for i in range(c, n):
                    if not rows[i][c].is_zero():
                        pr = i
                        break
                if pr is None:
                    return self.ring.zero
                if pr != c:
                    rows[c], rows[pr] = rows[pr], rows[c]
                    det = -det
                det = det * rows[c][c]
                inv = rows[c][c].inverse()
                for i in range(c + 1, n):
                    if not rows[i][c].is_zero():
                        f = rows[i][c] * inv
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
            return det
        if n > 4:
            raise WittKitError("Leibniz determinant limited to n <= 4")
        total = self.ring.zero
        for perm in itertools.permutations(range(n)):
            sign = _perm_sign(perm)
            term = self.ring.one
            for i in range(n):
                term = term * self.rows[i][perm[i]]
            total = total + term if sign > 0 else total - term
        return total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def unit_vector(F, n, i):
    """The i-th standard basis vector of F^n (F any ring), as a tuple of
    Elements."""
    return tuple(F.one if j == i else F.zero for j in range(n))


def matrix_of_map(F, n, fn, nrows=0):
    """The matrix whose column j is fn(e_j), for the unit vectors e_j of
    F^n.  With n = 0 there is no column to size it, so it has nrows empty
    rows."""
    cols = [fn(unit_vector(F, n, j)) for j in range(n)]
    if not cols:
        return Matrix(F, [[] for _ in range(nrows)])
    return Matrix.from_cols(F, cols)


def span_contains(basis, vec, ring):
    """vec in span(basis) over a field; basis/vec are Element tuples."""
    if not basis:
        return all(v.is_zero() for v in vec)
    m = Matrix.from_cols(ring, list(basis))
    return m.solve(vec) is not None


def span_basis(vectors, ring):
    """Deterministic basis of the span (first independent vectors kept)."""
    basis = []
    for v in vectors:
        if not span_contains(basis, v, ring):
            basis.append(tuple(v))
    return basis


def svec_matrix_of_additive_map(src_ring, dst_ring, fn):
    """Scalar-coordinate matrix of an additive map src -> dst (both rings
    finite-dimensional over the same scalar field).  fn takes and returns
    Elements."""
    F = src_ring.scalar_field()
    if dst_ring.scalar_field() != F:
        raise WittKitError("scalar fields differ")
    cols = []
    for bdata in src_ring.scalar_basis():
        img = fn(Element(src_ring, bdata))
        cols.append(tuple(F.el(c) for c in dst_ring.to_svec(img.data)))
    if not cols:
        return Matrix(F, [[] for _ in range(dst_ring.scalar_dim())])
    return Matrix.from_cols(F, cols)
