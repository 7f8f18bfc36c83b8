"""Koszul complexes for regular sequences and the conormal sign.

A FreeComplex is a bounded complex of free modules in cohomological
degrees: ranks and differentials d^p: E^p -> E^{p+1}, with d.d = 0
asserted at construction.  The Koszul complex of a sequence is one.

Supported sequences keep every ideal question linear: affine-linear
forms with independent linear parts (reduction = substitution for the
pivot variables), or a single generator in one variable (reduction =
division in that variable).  Regularity itself is the caller's
hypothesis; the augmentation end is spot-checked.

The involution transport follows the semilinear matrix calculus used
everywhere else: a semilinear map with matrix A acts as x |-> A.sigma(x),
the induced map on the i-th exterior power has the i-th compound matrix,
and the conormal line picks up det of the coefficient matrix of
sigma(x_i) = sum a_ij x_j.
"""

from __future__ import annotations

import itertools

from .errors import (
    EngineError,
    IdealNotInvariant,
    ImproperIdeal,
    WittKitError,
)
from .linalg import Matrix
from .rings import Element, PolynomialRing


class FreeComplex:
    def __init__(self, ring, ranks, diffs=None):
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
        self.assert_d_squared_zero()

    def rank(self, p):
        return self.ranks.get(p, 0)

    def degrees(self):
        return sorted(self.ranks)

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


def _constant(ring, data):
    """The constant polynomial with coefficient data of the base, as data
    of the polynomial ring."""
    return ring.normalize([((0,) * ring.nv, data)])


class RegularSequenceData:
    """A sequence x_1..x_d in a polynomial ring, with the free rank-1
    target coefficient L = R."""

    def __init__(self, ring, sequence):
        if not isinstance(ring, PolynomialRing):
            raise WittKitError("Koszul data needs a polynomial ring")
        self.ring = ring
        self.sequence = [ring.el(x) for x in sequence]
        if not self.sequence:
            raise WittKitError("empty sequence")
        if len(self.sequence) > ring.nv:
            raise WittKitError("sequence longer than the number of variables")
        self._setup_reduction()

    def d(self):
        return len(self.sequence)

    # -- reduction to normal forms mod the ideal --------------------------
    def _setup_reduction(self):
        ring = self.ring
        base = ring.base
        if all(ring.total_degree(x.data) <= 1 for x in self.sequence):
            self._mode = "linear"
            # rows: coefficients of the variables, augmented by the constant
            rows = []
            for x in self.sequence:
                row = [ring.coefficient(x.data, tuple(1 if j == i else 0 for j in range(ring.nv)))
                       for i in range(ring.nv)]
                row.append(ring.coefficient(x.data, (0,) * ring.nv))
                rows.append([base.el(c) for c in row])
            rref, pivots = Matrix(base, rows).rref()
            if ring.nv in pivots:
                raise ImproperIdeal("the sequence generates the unit ideal")
            if len(pivots) < len(self.sequence):
                raise WittKitError("linear parts are dependent; not a regular sequence shape")
            # pivot variable = -(constant + free-variable tail)
            images = [ring.gen(v) for v in ring.variables]
            for r, pc in enumerate(pivots):
                expr = -Element(ring, _constant(ring, rref.rows[r][ring.nv].data))
                for c in range(ring.nv):
                    if c == pc:
                        continue
                    coef = rref.rows[r][c]
                    if not coef.is_zero():
                        expr = expr - Element(ring, ring.normalize([((tuple(1 if j == c else 0 for j in range(ring.nv))), coef.data)]))
                images[pc] = expr
            self._subst = images
            return
        if len(self.sequence) == 1:
            x = self.sequence[0]
            used = [i for i in range(ring.nv) if any(e[i] for e, _ in x.data)]
            if len(used) == 1:
                self._mode = "univariate"
                self._var = used[0]
                self._divisor = x
                self._divdeg = max(e[self._var] for e, _ in x.data)
                if self._divdeg == 0:
                    raise ImproperIdeal("the generator is a nonzero constant")
                lead = [(e, c) for e, c in x.data if e[self._var] == self._divdeg]
                if len(lead) != 1 or any(k for j, k in enumerate(lead[0][0]) if j != self._var):
                    raise WittKitError("generator is not monic-shaped in its variable")
                self._lead = Element(ring.base, lead[0][1])
                return
        raise WittKitError("unsupported sequence shape (need affine-linear forms or one univariate generator)")

    def reduce(self, elem):
        """Normal form of elem modulo the ideal (x_1, ..., x_d)."""
        ring = self.ring
        elem = ring.el(elem)
        if self._mode == "linear":
            out = ring.zero
            for e, c in elem.data:
                term = Element(ring, _constant(ring, c))
                for v, k in zip(self._subst, e):
                    term = term * v ** k
                out = out + term
            return out
        v = self._var
        k = self._divdeg
        inv_lead = self._lead.inverse()
        cur = elem
        while True:
            top = [(e, c) for e, c in cur.data if e[v] >= k]
            if not top:
                return cur
            e, c = max(top, key=lambda t: t[0][v])
            shift = tuple((x - k) if j == v else x for j, x in enumerate(e))
            mono = Element(ring, ring.normalize([(shift, (Element(ring.base, c) * inv_lead).data)]))
            cur = cur - mono * self._divisor

    def in_ideal(self, elem):
        return self.reduce(elem).is_zero()


def _combos(d, i):
    return list(itertools.combinations(range(d), i))


def koszul_complex(data):
    """Lambda^d E -> ... -> Lambda^0 E = R in degrees -d..0, with
    d(e_S) = sum over t of (-1)^{t+1} x_{S_t} e_{S minus S_t}."""
    ring = data.ring
    d = data.d()
    ranks = {-i: len(_combos(d, i)) for i in range(d + 1)}
    diffs = {}
    for i in range(1, d + 1):
        src = _combos(d, i)
        dst = {s: r for r, s in enumerate(_combos(d, i - 1))}
        rows = [[ring.zero for _ in src] for _ in dst]
        for c, S in enumerate(src):
            for t, idx in enumerate(S):
                rest = tuple(x for x in S if x != idx)
                sign = ring.el(1 if t % 2 == 0 else -1)
                rows[dst[rest]][c] = rows[dst[rest]][c] + sign * data.sequence[idx]
        diffs[-i] = Matrix(ring, rows)
    K = FreeComplex(ring, ranks, diffs)
    # augmentation spot check: the image of d^{-1} generates exactly the
    # ideal the reduction machinery quotients by
    for c in range(d):
        if not data.in_ideal(K.diff(-1).rows[0][c]):
            raise EngineError("augmentation end of the Koszul complex escaped the ideal")
    return K


# ---------------------------------------------------------------------------
# involution transport


def _monomial_coords(ring, elems):
    """Common monomial coordinate table for a list of polynomials."""
    monos = sorted({e for x in elems for e, _ in x.data})
    table = {m: i for i, m in enumerate(monos)}
    base = ring.base
    vecs = []
    for x in elems:
        v = [base.zero] * len(monos)
        for e, c in x.data:
            v[table[e]] = base.el(c)
        vecs.append(tuple(v))
    return vecs, monos


def sequence_combination(data, targets):
    """Solve target_i = sum_j a_ij x_j with constant a_ij by linear
    algebra on monomial coordinates; None when no solution exists."""
    ring = data.ring
    base = ring.base
    vecs, _ = _monomial_coords(ring, list(data.sequence) + list(targets))
    d = data.d()
    xmat = Matrix.from_cols(base, vecs[:d])
    rows = []
    for tv in vecs[d:]:
        sol = xmat.solve(tv)
        if sol is None:
            return None
        rows.append([Element(base, s.data) for s in sol])
    return rows


def _compound(ring, A, i):
    """i-th compound matrix (minors det A[S', S]); the matrix of the i-th
    exterior power in wedge-basis order."""
    d = A.nrows
    src = _combos(d, i)
    dst = _combos(d, i)
    if i == 0:
        return Matrix.identity(ring, 1)
    rows = []
    for Sp in dst:
        row = []
        for S in src:
            sub = Matrix(ring, [[A.rows[r][c] for c in S] for r in Sp])
            row.append(sub.det())
        rows.append(row)
    return Matrix(ring, rows)


def involution_transport(data, rwi):
    """Transport of the Koszul complex along an ambient involution whose
    image sequence generates the same ideal.

    Builds the coefficient matrix A with sigma(x_i) = sum_j A_ji x_j and
    verifies three exact identities: the augmentation square
    X.A = sigma(X), the chain-map condition on every exterior power, and
    the two-route beta compatibility square, which holds for every
    functional value exactly when sigma maps each x_i into the ideal.
    Reports pass/fail for each with the first failing entry; for the beta
    square that is the first x_i whose image escapes the ideal."""
    if rwi.ring != data.ring:
        raise WittKitError("involution lives on a different ring")
    ring = data.ring
    d = data.d()
    targets = [rwi.conj(x) for x in data.sequence]
    comb = sequence_combination(data, targets)
    if comb is None:
        raise IdealNotInvariant("sigma of the sequence is not a constant combination of it")
    # A columns = coefficient vectors of sigma(x_i), lifted to constants
    A = Matrix(ring, [[Element(ring, _constant(ring, comb[i][j].data))
                       for i in range(d)] for j in range(d)])
    report = {"matrix": A}

    X = Matrix(ring, [list(data.sequence)])
    lhs = X * A
    ok, witness = True, None
    for c in range(d):
        if lhs.rows[0][c] != targets[c]:
            ok, witness = False, (0, c, lhs.rows[0][c])
            break
    report["augmentation_square"] = (ok, witness)

    K = koszul_complex(data)
    ok, witness = True, None
    for i in range(1, d + 1):
        D = K.diff(-i)
        left = _compound(ring, A, i - 1) * D.map_entries(rwi.conj)
        right = D * _compound(ring, A, i)
        for r in range(left.nrows):
            for c in range(left.ncols):
                if left.rows[r][c] != right.rows[r][c]:
                    ok, witness = False, (i, r, c)
                    break
            if not ok:
                break
        if not ok:
            break
    report["chain_map"] = (ok, witness)

    # beta square: dualizing the top transport sends the functional value c
    # to sigma(det A).sigma(c), transporting the conormal first reduces c;
    # the two agree mod J for every c exactly when sigma(J) lies in J
    witness = next((x for x, y in zip(data.sequence, targets) if not data.in_ideal(y)), None)
    report["beta_square"] = (witness is None, witness)
    report["all_pass"] = all(v[0] for k, v in report.items()
                             if k not in ("matrix", "all_pass"))
    return report


def conormal_sign(data, rwi):
    """The unit u with (omega tensor L, sigma) = (L restricted, u.sigma):
    dualizing det of the conormal involution gives sigma(det A), and L = R
    adds no twist.  Returned as a normal-form ring element;
    sigma(u).u = 1 is asserted."""
    report = involution_transport(data, rwi)
    if not report["all_pass"]:
        raise EngineError("involution transport failed; conormal sign undefined")
    detA = report["matrix"].det()
    u = data.reduce(rwi.conj(detA))
    if data.reduce(rwi.conj(u) * u - data.ring.one) != data.ring.zero:
        raise EngineError("conormal unit fails sigma(u) u = 1")
    return u
