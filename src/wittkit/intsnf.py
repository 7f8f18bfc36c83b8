"""Integer Smith normal form and finitely presented abelian groups.

Everything is plain Python ints (exact, arbitrary precision).  A presented
group is Z^n modulo the column span of a relation matrix.  In each
presentation the unit pivots are eliminated, and the core left over is
factored once: PresentedGroup keeps the eliminations and the core's Smith
form (d and the row transform u; it builds no column transform) and reuses
them for the invariant factors and for membership tests.
Comparing two presented groups (kernel and cokernel of a map given on
generators) takes one more Smith form, of the block matrix [images |
target core relations] in target core coordinates.
"""

from __future__ import annotations

from collections import deque

from .errors import WittKitError


def smith_normal_form(a, with_v=True):
    """Return (d, u, v) with u*a*v = d, u and v unimodular, d diagonal with
    d[i][i] | d[i+1][i+1].  a is a list of int rows (may be empty).  With
    with_v False the column transform v (n x n for n columns) is not
    built, and None stands in its place."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)] if with_v else []

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
    return d, u, v if with_v else None


def _eliminate_unit_pivots(ngens, relations):
    """Remove unit pivots from Z^ngens / <relations>.

    Each step takes a column with an entry u = +-1, pivoting on the
    generator g of fewest occurrences among its unit entries, substitutes
    e_g = -u * (column - u e_g) into every other column and drops the
    column and g.  That is unimodular, so the quotient is unchanged.
    Columns are looked at first in, first out, and a column is queued
    again after each substitution into it.  Returns the steps (g, u,
    column as a dict) in elimination order, the surviving generators, and
    the nonzero surviving columns as dicts.  A step costs the entries it
    rewrites, so a presentation with no unit entry costs one pass over its
    nonzeros."""
    cols = {j: {g: x for g, x in enumerate(rel) if x} for j, rel in enumerate(relations)}
    occurs = [set() for _ in range(ngens)]
    for j, col in cols.items():
        for g in col:
            occurs[g].add(j)
    steps = []
    pending = deque(cols)
    while pending:
        j = pending.popleft()
        col = cols.get(j)
        units = [g for g, x in col.items() if x in (1, -1)] if col else ()
        if not units:
            continue
        g = min(units, key=lambda h: len(occurs[h]))
        u = col[g]
        del cols[j]
        for h in col:
            occurs[h].discard(j)
        for k in occurs[g]:
            other = cols[k]
            a = u * other[g]
            for h, x in col.items():
                y = other.get(h, 0) - a * x
                if y:
                    other[h] = y
                    occurs[h].add(k)
                else:
                    del other[h]
                    if h != g:  # occurs[g] is being walked; it is emptied below
                        occurs[h].discard(k)
            pending.append(k)
        occurs[g] = set()
        steps.append((g, u, col))
    eliminated = {g for g, _, _ in steps}
    core = [g for g in range(ngens) if g not in eliminated]
    return steps, core, [col for col in cols.values() if col]


class PresentedGroup:
    """Z^ngens modulo the columns of relations (list of column vectors).

    Unit pivots are eliminated first, and the small core that is left is
    factored once, u*A*v = d.  The eliminations take a vector to core
    coordinates; d gives the invariant factors and u membership.
    relations keeps the full list of columns."""

    def __init__(self, ngens, relation_columns):
        self.ngens = ngens
        self.relations = [list(c) for c in relation_columns]
        for c in self.relations:
            if len(c) != ngens:
                raise WittKitError("relation length mismatch")
        self._steps, self._core, cols = _eliminate_unit_pivots(ngens, self.relations)
        self._core_relations = [[c.get(g, 0) for g in self._core] for c in cols]
        r = len(self._core)
        rows = [[c[i] for c in self._core_relations] for i in range(r)]
        d, self._snf_u, _ = smith_normal_form(rows, with_v=False)
        diag = [d[i][i] for i in range(min(r, len(cols)))]
        rank = sum(1 for x in diag if x != 0)
        # one diagonal entry per core generator, 0 past the rank
        self._diag = diag + [0] * (r - len(diag))
        self.factors = [x for x in diag if x not in (0, 1)] + [0] * (r - rank)

    def _core_coordinates(self, vec):
        """vec (length ngens) in core coordinates: the same class of the
        group, with every eliminated generator substituted out."""
        vec = list(vec)
        for g, u, col in self._steps:
            a = u * vec[g]
            if a:
                for h, x in col.items():
                    vec[h] -= a * x
        return [vec[g] for g in self._core]

    def contains(self, vec):
        """Is vec (length ngens) in the span of the relation columns?  It
        is iff its core coordinates w are in the span of the core columns
        A, and with u*A*v = d that holds iff each coordinate of u*w is
        divisible by the matching diagonal entry of d."""
        w = self._core_coordinates(vec)
        for row, di in zip(self._snf_u, self._diag):
            s = sum(x * y for x, y in zip(row, w))
            if (s % di if di else s) != 0:
                return False
        return True


def hom_kernel_cokernel_trivial(src, dst, gen_images):
    """For the map src -> dst sending generator i to the integer combination
    gen_images[i] of dst generators: return (kernel_trivial, coker_trivial).

    Every image, of core and eliminated src generators alike, is taken to
    dst core coordinates F, and both verdicts come from one Smith form of
    [F | dst core relations].  Its cokernel is the cokernel of the map.
    Its integer nullspace, projected to the F-coordinates, is the lattice
    {x in Z^src.ngens : F x in span(dst core relations)} over all src
    generators, so the answer stays exact for a map that does not respect
    the src relations.  The kernel is that lattice modulo the src
    relations.  The span of lattice + src relations always contains the
    src relations, so it equals their span, and the kernel is trivial, iff
    every lattice vector lies in the span of the src relations."""
    n = dst.ngens
    m = src.ngens
    f_cols = [list(c) for c in gen_images]
    if len(f_cols) != m or any(len(c) != n for c in f_cols):
        raise WittKitError("gen_images shape mismatch")
    cols = [dst._core_coordinates(c) for c in f_cols] + dst._core_relations
    r = len(dst._core)
    # smith_normal_form reads the column count off the first row: with no
    # dst core generator, one zero row makes v the identity
    rows = [[c[i] for c in cols] for i in range(r)] or [[0] * len(cols)]
    d, _, v = smith_normal_form(rows)
    diag = [d[i][i] for i in range(min(len(rows), len(cols)))]
    rank = sum(1 for x in diag if x != 0)
    # the diagonal entries 1 come first, so the cokernel vanishes iff r of them are 1
    coker_trivial = diag.count(1) == r
    ker_trivial = all(src.contains([v[i][j] for i in range(m)]) for j in range(rank, len(v)))
    return ker_trivial, coker_trivial


def lattice_contains(cols, vec):
    """Is vec in the sublattice of Z^n spanned by the given columns?"""
    return PresentedGroup(len(vec), cols).contains(vec)
