"""Witt-group comparison along the residue tower of an Artinian
Gorenstein local ring with involution.

The map under test is transfer along pi: R -> k applied to forms valued
in the socle coefficient pi^flat E, E = R.  Both Witt groups are
presented by explicit class enumeration; the comparison is the honest
one: the integer matrix of the induced map, then Smith kernel and
cokernel.  Presentations at unstable bounds are reported as computed,
isomorphism verdict included, with no smoothing over.
"""

from __future__ import annotations

from functools import cached_property

from .coefficients import standard_coefficient
from .errors import ImproperIdeal, WittKitError
from .forms import coefficient_change
from .intsnf import hom_kernel_cokernel_trivial
from .modules import chain_components
from .rings import QuotientRing, RingMap, identity_map, involution
from .transfer import GammaComparison, TransferCoefficient, transfer_form
from .wittgroup import require_valid_bound, witt_group


def _induced_involution(rwi, p):
    """sigma on the quotient p.dst, p(sigma(x)) on each generator x of
    p.dst lifted by name to rwi.ring; well defined because sigma keeps
    the kernel of p, which the involution constructor re-verifies."""
    ring = rwi.ring
    return involution(p.dst, {nm: p(rwi.conj(ring.gen(nm))) for nm in p.dst.generator_names()})


class DevissageData:
    """The tower pi: R -> k, the induced involution on k, and the socle
    coefficient pi^flat E for E = R.

    The tower is read off the single chain component (e, t, n) of R: n = 1
    is a field, its own residue field, and n > 1 is k[t]/(t^n) with
    pi(t) = 0, so R is local and every ring automorphism keeps its maximal
    ideal (the transfer coefficient checks it again as equivariance of
    pi).  The R-side WittEngine checks the Gorenstein condition, strong
    duality of E = R, with the sign of its query.  sigma on k is
    pi(sigma(x)) on the generators."""

    def __init__(self, rwi):
        ring = rwi.ring
        self.rwi = rwi
        self.ring = ring
        try:
            [(_, _, self.n)] = chain_components(ring)
        except (WittKitError, ValueError):  # no module theory, or two components
            raise WittKitError(f"no residue tower for {ring}") from None
        if self.n == 1:
            self.k = ring
            self.pi = identity_map(ring)
            self.rwi_k = rwi
        else:
            k = ring.base
            self.k = k
            self.pi = RingMap(ring, k, [k.gen(nm) for nm in k.generator_names()] + [k.zero])
            self.rwi_k = _induced_involution(rwi, self.pi)
        self.coef = standard_coefficient(rwi)

    @cached_property
    def tc(self):
        """The transfer coefficient along pi, built on first read: only
        verify_devissage reads it, the localcase check transfers through
        GammaComparison."""
        return TransferCoefficient(self.pi, self.rwi_k, self.coef)


def _class_map(src, dst, push):
    """Integer columns of the induced map on presentations, plus the
    well-definedness check (relations land in relations)."""
    images = []
    for f in src.classes:
        g = push(f)
        col = [0] * len(dst.classes)
        col[dst.class_index(g)] = 1
        images.append(col)
    well = True
    for rel in src.presentation.relations:
        vec = [0] * len(dst.classes)
        for i, c in enumerate(rel):
            if c:
                for j in range(len(dst.classes)):
                    vec[j] += c * images[i][j]
        if not dst.presentation.contains(vec):
            well = False
            break
    ker, coker = hom_kernel_cokernel_trivial(src.presentation, dst.presentation, images)
    return images, well, ker, coker


class ComparisonReport:
    """Outcome of one presentation-level map: source and target
    WittGroupResults, the class-map matrix (columns), and the verdicts."""

    def __init__(self, source, target, matrix, well_defined, kernel_trivial, cokernel_trivial):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.well_defined = well_defined
        self.kernel_trivial = kernel_trivial
        self.cokernel_trivial = cokernel_trivial
        self.iso = well_defined and kernel_trivial and cokernel_trivial
        self.stable = source.stable and target.stable

    def describe(self):
        verdict = "ISOMORPHISM" if self.iso else "NOT AN ISOMORPHISM"
        tag = "stable" if self.stable else "unstable"
        return f"{verdict} ({tag})"

    def __repr__(self):
        return (f"ComparisonReport({self.describe()}: "
                f"{self.source.describe()} -> {self.target.describe()})")


def verify_devissage(rwi, epsilon, bound):
    """W(k, pi^flat E) -> W(finite-length R-modules, E) through the
    transfer, compared at the same length bound (at least 1) on both
    sides."""
    require_valid_bound(bound)
    data = DevissageData(rwi)
    Wk = witt_group(data.tc.coefficient, epsilon, bound)
    WR = witt_group(data.coef, epsilon, bound)
    return ComparisonReport(Wk, WR, *_class_map(Wk, WR, lambda f: transfer_form(data.tc, f)))


# ---------------------------------------------------------------------------
# the factorization through an invariant quotient


def _ideal_valuation(ring, g):
    """(t)-adic valuation of g in k[t]/(t^n); n for g = 0."""
    if g.is_zero():
        return ring.n
    degs = [i for i, c in enumerate(g.data) if c != ring.base.zero_data()]
    return min(degs)


class LocalcaseReport:
    """Commutativity of the two transfer routes on every k-class, plus
    the p_* comparison between R/J and R."""

    def __init__(self, gamma, kside, diagram_checked, diagram_failures, p_star):
        self.gamma = gamma
        self.kside = kside
        self.diagram_checked = diagram_checked
        self.diagram_failures = diagram_failures
        self.diagram_commutes = not diagram_failures
        self.p_star = p_star

    def describe(self):
        d = (f"diagram commutes on all {self.diagram_checked} classes"
             if self.diagram_commutes
             else f"diagram fails on {len(self.diagram_failures)} of {self.diagram_checked} classes")
        return f"{d}; p_*: {self.p_star.describe()}"

    def __repr__(self):
        return f"LocalcaseReport({self.describe()})"


def verify_localcase_factorization(rwi, J, epsilon, bound):
    """Tower R -> R/J -> k: checks that transferring directly and through
    R/J give the same class for every enumerated k-form (after moving
    coefficients along gamma), and that p_* is an isomorphism of the two
    Witt presentations.

    J is a principal invariant ideal, given by a generating element; the
    bound is at least 1."""
    require_valid_bound(bound)
    data = DevissageData(rwi)
    ring = data.ring
    g = ring.el(J)
    if data.n == 1:
        if not g.is_zero():
            raise ImproperIdeal("a field has no proper nonzero ideal")
        T, p, q, rwi_T = ring, identity_map(ring), data.pi, data.rwi
    else:
        m = _ideal_valuation(ring, g)
        if m == 0:
            raise ImproperIdeal("J is the unit ideal")
        if m == 1:
            T, p, q, rwi_T = data.k, data.pi, identity_map(data.k), data.rwi_k
        else:
            # T = R/(t^m); J = 0 has m = n, and T is R itself
            base = ring.base
            names = base.generator_names()
            T = QuotientRing(base, [0] * m + [1], ring.var)
            p = RingMap(ring, T, [T.gen(nm) for nm in names] + [T.gen(ring.var)])
            q = RingMap(T, data.k, [data.k.gen(nm) for nm in names] + [data.k.zero])
            # sigma(t) is a unit times t, so sigma(J) = J
            rwi_T = _induced_involution(data.rwi, p)
    gamma = GammaComparison(p, q, rwi_T, data.rwi_k, data.coef)
    Wk = witt_group(gamma.direct.coefficient, epsilon, bound)
    WT = witt_group(gamma.inner.coefficient, epsilon, bound)
    WR = witt_group(data.coef, epsilon, bound)

    ginv = gamma.matrix.inverse()
    failures = []
    for f in Wk.classes:
        direct = transfer_form(gamma.direct, f)
        fq = coefficient_change(f, gamma.composite.coefficient, ginv)
        through = transfer_form(gamma.inner, transfer_form(gamma.composite, fq))
        if WR.class_index(direct) != WR.class_index(through):
            failures.append(f)

    p_star = ComparisonReport(WT, WR, *_class_map(WT, WR, lambda h: transfer_form(gamma.inner, h)))
    return LocalcaseReport(gamma, Wk, len(Wk.classes), failures, p_star)
