"""Integer Smith normal form and finitely presented abelian groups.

Everything is plain Python ints (exact, arbitrary precision).  A presented
group is Z^n modulo the column span of a relation matrix.  Each
presentation is factored once: PresentedGroup keeps its Smith form and
reuses it for the invariant factors and for membership tests.  Comparing
two presented groups (kernel and cokernel of a map given on generators)
takes one more Smith form, of the block matrix [images | target
relations].
"""

from __future__ import annotations

from .errors import WittKitError


def smith_normal_form(a):
    """Return (d, u, v) with u*a*v = d, u and v unimodular, d diagonal with
    d[i][i] | d[i+1][i+1].  a is a list of int rows (may be empty)."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):  # row i += c * row j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):  # col i += c * col j
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0:
                    if piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # make the pivot divide the rest of the block
        redo = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    add_row(t, i, 1)
                    redo = True
                    break
            if redo:
                break
        if redo:
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return d, u, v


class PresentedGroup:
    """Z^ngens modulo the columns of relations (list of column vectors).

    The relation matrix A is factored once, u*A*v = d, and that one Smith
    form answers every later question: the invariant factors come from d,
    membership from u, and the integer relations among the columns
    from v."""

    def __init__(self, ngens, relation_columns):
        self.ngens = ngens
        self.relations = [list(c) for c in relation_columns]
        for c in self.relations:
            if len(c) != ngens:
                raise WittKitError("relation length mismatch")
        k = len(self.relations)
        if ngens:
            rows = [[c[i] for c in self.relations] for i in range(ngens)]
            d, self._snf_u, self._snf_v = smith_normal_form(rows)
            diag = [d[i][i] for i in range(min(ngens, k))]
        else:
            # a 0 x k matrix: every integer combination of columns vanishes
            diag, self._snf_u = [], []
            self._snf_v = [[int(i == j) for j in range(k)] for i in range(k)]
        self._rank = sum(1 for x in diag if x != 0)
        # one diagonal entry per generator, 0 past the rank
        self._diag = diag + [0] * (ngens - len(diag))
        self.factors = [x for x in diag if x not in (0, 1)] + [0] * (ngens - self._rank)

    def contains(self, vec):
        """Is vec (length ngens) in the span of the relation columns?  With
        u*A*v = d, A x = vec has an integer solution iff each coordinate of
        u*vec is divisible by the matching diagonal entry of d."""
        for row, di in zip(self._snf_u, self._diag):
            w = sum(x * y for x, y in zip(row, vec))
            if (w % di if di else w) != 0:
                return False
        return True

    def is_trivial(self):
        return all(f == 1 for f in self.factors) or not self.factors


def hom_kernel_cokernel_trivial(src, dst, gen_images):
    """For the map src -> dst sending generator i to the integer combination
    gen_images[i] of dst generators: return (kernel_trivial, coker_trivial).

    Both come from one Smith form of [F | dst relations].  Its cokernel
    Z^n / (image columns + dst relations) is the cokernel of the map.  Its
    integer nullspace, projected to the F-coordinates, is the lattice
    {x : F x in span(dst relations)}; the kernel is that lattice modulo the
    src relations.  The span of lattice + src relations always contains the
    src relations, so it equals their span, and the kernel is trivial, iff
    every lattice vector lies in the span of the src relations."""
    n = dst.ngens
    m = src.ngens
    f_cols = [list(c) for c in gen_images]
    if len(f_cols) != m or any(len(c) != n for c in f_cols):
        raise WittKitError("gen_images shape mismatch")
    aug = PresentedGroup(n, f_cols + dst.relations)
    coker_trivial = aug.is_trivial()
    v = aug._snf_v
    ker_trivial = all(
        src.contains([v[i][j] for i in range(m)]) for j in range(aug._rank, len(v))
    )
    return ker_trivial, coker_trivial


def lattice_contains(cols, vec):
    """Is vec in the sublattice of Z^n spanned by the given columns?"""
    return PresentedGroup(len(vec), cols).contains(vec)
