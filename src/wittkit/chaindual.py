"""Bounded complexes of free modules and the signed hom-complex duality.

Cohomological indexing with explicit finite support: a complex stores
ranks and differentials d^p: E^p -> E^{p+1}, and d.d = 0 is asserted at
construction.

The hom complex follows Hom(E, I)^n = prod over j-i=n of Hom(E^i, I^j)
with differential df = d.f - (-1)^{|f|} f.d.  Twisted sources never stay
implicit: a semilinear map with matrix S acts on coordinates as
x |-> S.sigma(x), so composing with a linear map multiplies on the left
as usual while precomposition picks up an entrywise sigma.  The
double-dual identification composes sign-twisted evaluation
x |-> (f |-> (-1)^{|x||f|} f(x)) with the coefficient involution; both
legs appear as explicit matrices in can_map.
"""

from __future__ import annotations

from collections import Counter

from .errors import NotEquivariant, NotInvolutive, RingMismatch, WittKitError
from .linalg import Matrix


class FreeComplex:
    def __init__(self, ring, ranks, diffs=None, check=True):
        self.ring = ring
        self.ranks = {p: r for p, r in ranks.items() if r > 0}
        diffs = diffs or {}
        self.diffs = {}
        for p, m in diffs.items():
            if self.rank(p) == 0 or self.rank(p + 1) == 0:
                continue
            if m.nrows != self.rank(p + 1) or m.ncols != self.rank(p):
                raise WittKitError(
                    f"d^{p} must be {self.rank(p + 1)}x{self.rank(p)}, got {m.nrows}x{m.ncols}"
                )
            self.diffs[p] = m
        if check:
            self.assert_d_squared_zero()

    def rank(self, p):
        return self.ranks.get(p, 0)

    def degrees(self):
        return sorted(self.ranks)

    def support(self):
        ds = self.degrees()
        return (ds[0], ds[-1]) if ds else (0, 0)

    def diff(self, p):
        if p in self.diffs:
            return self.diffs[p]
        return Matrix.zeros(self.ring, self.rank(p + 1), self.rank(p))

    def assert_d_squared_zero(self):
        for p in self.degrees():
            if self.rank(p + 2) and self.rank(p):
                if not (self.diff(p + 1) * self.diff(p)).is_zero():
                    raise WittKitError(f"d^{p + 1} . d^{p} != 0")

    def __repr__(self):
        parts = " -> ".join(f"{self.rank(p)}@{p}" for p in self.degrees())
        return f"FreeComplex({self.ring}, {parts or 'zero'})"


def ring_in_degree(ring, degree=0, rank=1):
    return FreeComplex(ring, {degree: rank})


class DualityData:
    """Coefficient complex with involution.

    sigma_mats[p] is the matrix of the semilinear map sigma_I on I^p;
    construction verifies the involutive identity S.sigma(S) = id and
    compatibility with the coefficient differential.  check=False skips
    both so deliberately broken data can be handed to
    verify_duality_axioms."""

    def __init__(self, rwi, coefficient, sigma_mats=None, check=True):
        if coefficient.ring != rwi.ring:
            raise RingMismatch("coefficient complex lives over a different ring")
        self.rwi = rwi
        self.coefficient = coefficient
        if sigma_mats is None:
            sigma_mats = {p: Matrix.identity(rwi.ring, coefficient.rank(p))
                          for p in coefficient.degrees()}
        self.sigma_mats = dict(sigma_mats)
        for p in coefficient.degrees():
            if p not in self.sigma_mats:
                raise WittKitError(f"missing sigma_I in degree {p}")
        if check:
            bad = self.involutive_defect()
            if bad is not None:
                raise NotInvolutive(f"sigma_*(sigma_I).sigma_I != id at {bad}")
            bad = self.equivariance_defect()
            if bad is not None:
                raise NotEquivariant(f"sigma_I does not commute with d_I at {bad}")

    def sigma(self, p):
        return self.sigma_mats[p]

    def involutive_defect(self):
        for p in self.coefficient.degrees():
            s = self.sigma(p)
            m = s * s.map_entries(self.rwi.conj)
            d = _first_defect(m, Matrix.identity(self.rwi.ring, s.nrows))
            if d is not None:
                return (p,) + d
        return None

    def equivariance_defect(self):
        cx = self.coefficient
        for p in cx.degrees():
            if cx.rank(p + 1) == 0:
                continue
            lhs = cx.diff(p) * self.sigma(p)
            rhs = self.sigma(p + 1) * cx.diff(p).map_entries(self.rwi.conj)
            d = _first_defect(lhs, rhs)
            if d is not None:
                return (p,) + d
        return None


def trivial_duality(rwi, degree=0):
    return DualityData(rwi, ring_in_degree(rwi.ring, degree))


def _first_defect(got, want):
    """First (row, col, value) where the matrices disagree; entries out of
    range count as zero so collapsed zero-size shapes compare cleanly."""
    zero = got.ring.zero
    for r in range(max(got.nrows, want.nrows)):
        for c in range(max(got.ncols, want.ncols)):
            g = got.rows[r][c] if r < got.nrows and c < got.ncols else zero
            w = want.rows[r][c] if r < want.nrows and c < want.ncols else zero
            if g != w:
                return (r, c, g)
    return None


# ---------------------------------------------------------------------------
# hom complex


def hom_layout(E, I, n):
    """Block layout of Hom(E, I)^n as (source degree i, offset, rank E^i,
    rank I^{i+n}); inside a block the flattened index a*s + b is the map
    sending source basis vector a to target basis vector b."""
    out = []
    off = 0
    for i in E.degrees():
        s = I.rank(i + n)
        r = E.rank(i)
        if r and s:
            out.append((i, off, r, s))
            off += r * s
    return out


def _hom_general(E, I, conj):
    """Hom complex; a non-None conj applies sigma entrywise to the source
    differentials, which is the matrix of d on the twisted module."""
    if E.ring != I.ring:
        raise RingMismatch(f"{E.ring} vs {I.ring}")
    ring = E.ring
    em, en = E.support()
    im, inn = I.support()
    ranks = {}
    layouts = {}
    for n in range(im - en, inn - em + 1):
        lay = hom_layout(E, I, n)
        if lay:
            layouts[n] = lay
            ranks[n] = sum(r * s for (_, _, r, s) in lay)
    diffs = {}
    for n in sorted(ranks):
        if n + 1 not in ranks:
            continue
        dst = {i: (off, r, s) for (i, off, r, s) in layouts[n + 1]}
        eps_n = ring.el(1 if n % 2 == 0 else -1)
        cols = []
        for (i, off, r, s) in layouts[n]:
            dI = I.diff(i + n)
            for a in range(r):
                for b in range(s):
                    col = [ring.zero] * ranks[n + 1]
                    # d_I . f stays in the block with source degree i
                    if i in dst and I.rank(i + n + 1):
                        doff, dr, ds = dst[i]
                        for b2 in range(ds):
                            col[doff + a * ds + b2] = col[doff + a * ds + b2] + dI.rows[b2][b]
                    # -(-1)^n f . d precomposes with d_E^{i-1}
                    if (i - 1) in dst and E.rank(i - 1):
                        doff, dr, ds = dst[i - 1]
                        dE = E.diff(i - 1)
                        if conj is not None:
                            dE = dE.map_entries(conj)
                        for a2 in range(dr):
                            col[doff + a2 * ds + b] = col[doff + a2 * ds + b] - eps_n * dE.rows[a][a2]
                    cols.append(col)
        diffs[n] = Matrix.from_cols(ring, cols)
    return FreeComplex(ring, ranks, diffs), layouts


def hom_complex(E, I):
    """Hom(E, I) with the signed differential (untwisted source)."""
    return _hom_general(E, I, None)[0]


def duality_functor(E, D):
    """Hom(sigma_* E, I): the dual complex under the duality data D."""
    if E.ring != D.rwi.ring:
        raise RingMismatch(f"{E.ring} vs {D.rwi.ring}")
    return _hom_general(E, D.coefficient, D.rwi.conj)[0]


def _dual_with_layout(E, D):
    return _hom_general(E, D.coefficient, D.rwi.conj)


def dual_chain_map(D, E, F, umats):
    """Matrices of u^#: F^# -> E^# for a chain map u: E -> F given by
    umats[p].  (u^# f)_i = f_i . u_i, and precomposing a semilinear map
    multiplies its matrix on the right by sigma(u_i)."""
    rwi = D.rwi
    ring = rwi.ring
    Edual, elay = _dual_with_layout(E, D)
    Fdual, flay = _dual_with_layout(F, D)
    out = {}
    for n in Fdual.degrees():
        dst = {i: (off, r, s) for (i, off, r, s) in elay.get(n, [])}
        rows_total = Edual.rank(n)
        cols = []
        for (i, foff, fr, s) in flay[n]:
            u = umats.get(i)
            su = u.map_entries(rwi.conj) if u is not None else None
            for a in range(fr):
                for b in range(s):
                    col = [ring.zero] * rows_total
                    if su is not None and i in dst:
                        eoff, er, es = dst[i]
                        for a2 in range(er):
                            col[eoff + a2 * es + b] = su.rows[a][a2]
                    cols.append(col)
        out[n] = Matrix.from_cols(ring, cols) if cols else Matrix.zeros(ring, rows_total, 0)
    return out


def can_map(E, D):
    """Degreewise matrices of can: E -> E^##.

    can(x)(f) = (-1)^{|x||f|} sigma_I(f_{|x|}(x)): evaluation extracts the
    degree-|x| block of f's coordinates, sigma_I acts through its matrix,
    and the sign is (-1)^{pq} for x in degree p against f in degree q."""
    ring = E.ring
    Edual, dlay = _dual_with_layout(E, D)
    Eddual, ddlay = _dual_with_layout(Edual, D)
    out = {}
    for p in E.degrees():
        rows_total = Eddual.rank(p)
        cols = []
        for a in range(E.rank(p)):
            col = [ring.zero] * rows_total
            for (q, qoff, qr, qs) in ddlay.get(p, []):
                blocks = {i: (off, r, s) for (i, off, r, s) in dlay.get(q, [])}
                if p not in blocks:
                    continue
                poff, pr, ps = blocks[p]
                sg = ring.el(1 if (p * q) % 2 == 0 else -1)
                S = D.sigma(q + p)
                # the functional coordinate poff + a*ps + b reads f_p(e_a)_b
                for b in range(ps):
                    k = poff + a * ps + b
                    for b2 in range(qs):
                        col[qoff + k * qs + b2] = col[qoff + k * qs + b2] + sg * S.rows[b2][b]
            cols.append(col)
        out[p] = Matrix.from_cols(ring, cols) if cols else Matrix.zeros(ring, rows_total, 0)
    return out


def verify_duality_axioms(E, D):
    """Checks (a) can is a chain map, (b) (can_E)^# . can_{E^#} = id, and
    (c) the involutive identity for sigma_I.  Returns a report mapping
    each axiom to (passed, first failing entry or None)."""
    ring = E.ring
    report = {}
    Edual, _ = _dual_with_layout(E, D)
    Eddual, _ = _dual_with_layout(Edual, D)
    can = can_map(E, D)

    ok, witness = True, None
    for p in E.degrees():
        if E.rank(p + 1) == 0 and Eddual.rank(p + 1) == 0:
            continue
        cnext = can.get(p + 1, Matrix.zeros(ring, Eddual.rank(p + 1), E.rank(p + 1)))
        d = _first_defect(cnext * E.diff(p), Eddual.diff(p) * can[p])
        if d is not None:
            ok, witness = False, (p,) + d
            break
    report["can_chain_map"] = (ok, witness)

    can_dual = dual_chain_map(D, E, Eddual, can)
    can_of_dual = can_map(Edual, D)
    ok, witness = True, None
    for n in Edual.degrees():
        v = can_of_dual[n]
        w = can_dual.get(n, Matrix.zeros(ring, Edual.rank(n), v.nrows))
        d = _first_defect(w * v, Matrix.identity(ring, Edual.rank(n)))
        if d is not None:
            ok, witness = False, (n,) + d
            break
    report["double_dual_identity"] = (ok, witness)

    w = D.involutive_defect()
    if w is None:
        w = D.equivariance_defect()
    report["sigma_involutive"] = (w is None, w)
    report["all_pass"] = all(v[0] for k, v in report.items() if k != "all_pass")
    return report


# ---------------------------------------------------------------------------
# seeded generators for the axiom checks


def random_invertible(ring, n, rng):
    if n == 0:
        return Matrix.identity(ring, 0)
    if ring.is_finite:
        els = list(ring.elements())
        pick = lambda: els[rng.randrange(len(els))]
    else:
        pick = lambda: ring.random_element(rng)
    while True:
        m = Matrix(ring, [[pick() for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def random_free_complex(ring, rng, degree_span=(0, 2), max_strands=3):
    """Seeded complex with d^2 = 0: identity strands [R -> R] at random
    degrees plus loose free summands, then conjugated degreewise by
    random invertible matrices so the differentials look arbitrary."""
    lo, hi = degree_span
    strands = [rng.randrange(lo, hi) for _ in range(rng.randrange(1, max_strands + 1))]
    src = Counter(strands)
    dst = Counter(p + 1 for p in strands)
    loose = Counter(rng.randrange(lo, hi + 1) for _ in range(rng.randrange(0, 3)))
    ranks = {}
    for p in range(lo, hi + 2):
        r = src[p] + dst[p] + loose[p]
        if r:
            ranks[p] = r
    # slot order per degree: strand sources, then strand targets, then loose
    diffs = {}
    for p in sorted(ranks):
        if not ranks.get(p + 1):
            continue
        rows = [[ring.zero] * ranks[p] for _ in range(ranks[p + 1])]
        seen = 0
        for q in strands:
            if q == p:
                rows[src[p + 1] + seen][seen] = ring.one
                seen += 1
        diffs[p] = Matrix(ring, rows)
    E = FreeComplex(ring, ranks, diffs)
    G = {p: random_invertible(ring, E.rank(p), rng) for p in E.degrees()}
    new_diffs = {}
    for p in E.degrees():
        if E.rank(p + 1):
            new_diffs[p] = G[p + 1] * E.diff(p) * G[p].inverse()
    return FreeComplex(ring, E.ranks, new_diffs)
