"""Dense exact matrices over the rings from .rings.

Entries are Elements.  Elimination-based routines (rank, solve, inverse,
nullspace) require the ring to be a field; everything else works over any
commutative ring.  Sizes here are desk-scale, no attempt at asymptotics.

Echelon is the one elimination: the reduced row echelon form of a growing
span, kept on raw field data (Element.data), with Ring.sub_mul as its only
row operation.  Matrix.rref, span_basis, the coordinates of a Basis, the
canonical representatives of module factors, nondegeneracy and the
subspace searches of forms all run on it; values are wrapped in Elements
only where a Matrix or a vector of Elements is handed back.  Matrix.det
eliminates nothing: it is the Leibniz sum over every ring, up to 4 x 4.
"""

from __future__ import annotations

import itertools
from bisect import insort
from fractions import Fraction

from .errors import WittKitError
from .rings import Element


class Matrix:
    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring, rows, ncols=None):
        """ncols sizes a matrix with no row; otherwise it is read off the
        rows, and a given ncols must match them."""
        self.ring = ring
        self.rows = [[ring.el(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if ncols is None:
            ncols = len(self.rows[0]) if self.rows else 0
        self.ncols = ncols
        for row in self.rows:
            if len(row) != self.ncols:
                raise WittKitError("ragged matrix")

    @classmethod
    def zeros(cls, ring, m, n):
        return cls(ring, [[ring.zero] * n for _ in range(m)], n)

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, ring, cols, nrows=0):
        """The matrix with these columns; nrows sizes one with no column."""
        n = len(cols[0]) if cols else nrows
        return cls(ring, [[col[i] for col in cols] for i in range(n)], len(cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        self._match(other)
        rows = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return Matrix(self.ring, rows, self.ncols)

    def __sub__(self, other):
        self._match(other)
        rows = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return Matrix(self.ring, rows, self.ncols)

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in r] for r in self.rows], self.ncols)

    def _match(self, other):
        if self.ring != other.ring or self.nrows != other.nrows or self.ncols != other.ncols:
            raise WittKitError("matrix shape/ring mismatch")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows or self.ring != other.ring:
                raise WittKitError(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            # on raw data, with the ring's own operations
            R = self.ring
            add, mul, z = R.add, R.mul, R.zero_data()
            cols = [[row[j].data for row in other.rows] for j in range(other.ncols)]
            out = []
            for row in self.rows:
                r = [a.data for a in row]
                out_row = []
                for col in cols:
                    acc = z
                    for a, b in zip(r, col):
                        acc = add(acc, mul(a, b))
                    out_row.append(Element(R, acc))
                out.append(out_row)
            return Matrix(R, out, other.ncols)
        if not isinstance(other, (Element, int, Fraction)):
            raise WittKitError(
                f"cannot multiply a matrix by a {type(other).__name__}: "
                "expected a Matrix, an Element, an int or a Fraction"
            )
        c = self.ring.el(other)
        return Matrix(self.ring, [[c * a for a in r] for r in self.rows], self.ncols)

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
        return Matrix.from_cols(self.ring, self.rows, self.ncols)

    def map_entries(self, fn):
        return Matrix(self.ring, [[fn(a) for a in r] for r in self.rows], self.ncols)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise WittKitError("hstack row mismatch")
        return Matrix(self.ring, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)], self.ncols + other.ncols)

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise WittKitError("vstack column mismatch")
        return Matrix(self.ring, self.rows + other.rows, self.ncols)

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
        F = self.ring
        ech = Echelon(F)
        for row in self.rows:
            ech.insert([a.data for a in row])
        rows = [[Element(F, c) for c in row] for _, row in ech.rows]
        rows += [[F.zero] * self.ncols for _ in range(self.nrows - len(rows))]
        return Matrix(F, rows, self.ncols), ech.pivots()

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
        """Determinant as the Leibniz sum, over any commutative ring; the
        library takes it of small Koszul matrices over polynomial rings,
        so it is limited to n <= 4."""
        if self.nrows != self.ncols:
            raise WittKitError("determinant of non-square matrix")
        n = self.nrows
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


class Echelon:
    """The reduced row echelon form of a growing span in F^n, F a field, on
    raw field data: an int mod p, a Fraction, or a tuple of those.

    rows is a list of (pivot, row) pairs sorted by pivot; each row is a
    list with row[pivot] = 1 and 0 at every other pivot.  The reduced form
    of a span is unique, so the rows do not depend on the order in which
    vectors were inserted.  Rows are replaced, never changed in place, so
    a copy shares them safely."""

    __slots__ = ("F", "rows", "_zero")

    def __init__(self, F, rows=()):
        self.F = F
        self.rows = list(rows)
        self._zero = F.zero_data()

    def reduce(self, vec):
        """vec minus its component along the span: zero on every pivot,
        and all zero exactly when vec lies in the span."""
        sub_mul, z = self.F.sub_mul, self._zero
        for piv, row in self.rows:
            c = vec[piv]
            if c != z:
                vec = sub_mul(vec, c, row)
        return vec

    def contains(self, vec):
        v = self.reduce(vec)
        return v.count(self._zero) == len(v)

    def insert(self, vec):
        """Add vec to the span; False if it was in the span already."""
        F, z = self.F, self._zero
        v = self.reduce(vec)
        for piv, c in enumerate(v):
            if c != z:
                break
        else:
            return False
        if c != F.one_data():
            inv = F.inv(c)
            v = [F.mul(inv, x) for x in v]
        rows = self.rows
        for n, (q, row) in enumerate(rows):
            c = row[piv]
            if c != z:
                rows[n] = (q, F.sub_mul(row, c, v))
        # pivots are distinct, so the pairs sort by pivot alone
        insort(rows, (piv, v))
        return True

    def pivots(self):
        return [piv for piv, _ in self.rows]

    def copy(self):
        return Echelon(self.F, self.rows)


class Basis:
    """An independent list of vectors of F^n, F a field, as tuples of
    Elements: combine(x) is the vector sum x_j b_j, and coords(v) the x
    with combine(x) = v.

    Both work on the raw data of the b_j, read once at construction:
    combine is one Ring.sub_mul per nonzero x_j, and coords reduces
    [v | 0] against one Echelon of the rows [b_j | e_j], built on its
    first call.  The b_j are independent, so every pivot
    lies in the first n columns and v = sum x_j b_j reduces to [0 | -x];
    a vector outside the span keeps a nonzero part in those columns."""

    def __init__(self, F, vectors, n):
        self.F = F
        self.vectors = [tuple(v) for v in vectors]
        self.n = n
        self._raw = [[c.data for c in v] for v in self.vectors]
        self._echelon = None

    def combine(self, x):
        F = self.F
        out = [F.zero_data()] * self.n
        for c, b in zip(x, self._raw):
            if not c.is_zero():
                out = F.sub_mul(out, F.neg(c.data), b)
        return tuple(Element(F, a) for a in out)

    def coords(self, vec):
        """The coordinates of vec in the basis, or None if vec is outside
        the span."""
        F, n, k = self.F, self.n, len(self.vectors)
        if len(vec) != n:
            raise WittKitError(f"vector of length {len(vec)} in F^{n}")
        z = F.zero_data()
        if self._echelon is None:
            self._echelon = Echelon(F)
            for j, raw in enumerate(self._raw):
                tag = [z] * k
                tag[j] = F.one_data()
                self._echelon.insert(raw + tag)
        red = self._echelon.reduce([c.data for c in vec] + [z] * k)
        if red[:n].count(z) != n:
            return None
        return tuple(Element(F, F.neg(c)) for c in red[n:])


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
    return Matrix.from_cols(F, [fn(unit_vector(F, n, j)) for j in range(n)], nrows)


def span_basis(vectors, ring):
    """Deterministic basis of the span (first independent vectors kept)."""
    ech = Echelon(ring)
    return [tuple(v) for v in vectors if ech.insert([c.data for c in v])]
