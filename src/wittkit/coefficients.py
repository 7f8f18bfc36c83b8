"""Duality coefficients and the dual-module functor.

A duality coefficient over a ring with involution (R, sigma) is a
finite-length module I together with a semilinear identification
i: I -> I (i(a x) = sigma(a) i(x)) squaring to the identity.  The dual of
a module M is D(M) = Hom_R(sigma_* M, I), i.e. additive maps h with
h(a x) = sigma(a) h(x), carrying the R-action (a h)(x) = a h(x).  The
canonical map can: M -> D(D(M)) sends x to the evaluation functional
f |-> i(f(x)); a coefficient is a strong duality for M when can is
bijective.  That is decided as nondegeneracy of the hyperbolic form H(M):
its adjoint on M + D(M) is (y, g) |-> (g, epsilon can(y)), bijective
exactly when can is.  Everything is computed as scalar-field linear
algebra via the coordinate machinery in modules.py.
"""

from __future__ import annotations

from .errors import (
    CoefficientMismatch,
    NotACoefficientIso,
    NotInvolutive,
    NotSesquilinear,
    NotStrongDuality,
)
from .linalg import Matrix
from .modules import HomModule, free_module, indecomposable_factor_anns, map_matrix
from .rings import Element


class DualityCoefficient:
    """(I, i) with i semilinear and i . i = id, both verified on scalar
    coordinates at construction; imap is i as a callable on elements of
    the module I.

    The coefficient owns the dual modules taken against it: dual(M) builds
    D(M) once per module key and hands the same DualModule to every later
    caller, and hyperbolic(N, epsilon) keeps H(N) the same way for the
    strong-duality check and every WittEngine on this coefficient.  Forms
    decide nondegeneracy without the dual.  require_strong(epsilon) checks
    once per coefficient that it is a strong duality on every indecomposable
    module N: the adjoint of H(N) is (y, g) |-> (g, epsilon can(y)), so N
    is reflexive exactly when H(N) is nondegenerate."""

    def __init__(self, rwi, module, imap):
        if module.rwi != rwi:
            raise CoefficientMismatch("coefficient module built over a different involution")
        self.rwi = rwi
        self.ring = rwi.ring
        self.module = module
        self.imat = map_matrix(module, module, imap)
        F = module.F
        if self.imat.nrows != module.sdim or self.imat.ncols != module.sdim:
            raise CoefficientMismatch("identification matrix has the wrong size")
        for g in self.ring.algebra_generators():
            a = module.action_matrix(g)
            ac = module.action_matrix(rwi.conj(g))
            if self.imat * a != ac * self.imat:
                raise NotSesquilinear(f"i(a x) != sigma(a) i(x) for a = {g!r}")
        if self.imat * self.imat != Matrix.identity(F, module.sdim):
            raise NotInvolutive("i . i is not the identity on the coefficient module")
        self._duals = {}
        self._hyperbolic = {}
        self._strong = False

    def dual(self, module):
        """D(module), built on first request.  The key of a module leaves
        out sigma, so the involution is compared before the lookup."""
        if module.rwi != self.rwi:
            raise CoefficientMismatch("module and coefficient use different involutions")
        d = self._duals.get(module.key)
        if d is None:
            d = self._duals[module.key] = DualModule(self, module)
        return d

    def hyperbolic(self, N, epsilon=1):
        """H(N) for this sign (forms.hyperbolic_form), built on first
        request and handed to every later caller, so the form the strong
        duality check builds is the engine's hyperbolic block for its
        sign."""
        from .forms import hyperbolic_form
        self.dual(N)  # compares the involution before the lookup
        h = self._hyperbolic.get((N.key, epsilon))
        if h is None:
            h = self._hyperbolic[N.key, epsilon] = hyperbolic_form(self, N, epsilon)
        return h

    def require_strong(self, epsilon=1):
        """Raise NotStrongDuality unless every indecomposable cyclic module
        N is reflexive, i.e. H(N) is nondegenerate, for the caller's
        epsilon (an engine's own hyperbolic blocks): the adjoint is
        bijective for both signs or for neither.  WittEngine checks with
        the sign of its query (a devissage check's Gorenstein condition
        too), so it builds H(N) for that sign only.  A success is kept on
        the coefficient, so the check runs once; a failure names which half
        of bijectivity of can: N -> D(D(N)) fails."""
        if not self._strong:
            for a in indecomposable_factor_anns(self.ring):
                N = self.rwi.module([a])
                if not self.hyperbolic(N, epsilon).is_nondegenerate():
                    DDN = self.dual(self.dual(N).module).module
                    why = (f"D(D(N)) has scalar dimension {DDN.sdim}, N has {N.sdim}"
                           if DDN.sdim != N.sdim else "can: N -> D(D(N)) is not injective")
                    raise NotStrongDuality(f"{N!r} is not reflexive against {self!r}: {why}")
            self._strong = True
        return self

    def i(self, x):
        return self.module.from_vec(self.imat.apply(self.module.to_vec(x)))

    def __eq__(self, other):
        return (
            isinstance(other, DualityCoefficient)
            and self.rwi == other.rwi
            and self.module == other.module
            and self.imat == other.imat
        )

    def __hash__(self):
        return hash((self.rwi, self.module, self.imat))

    def __repr__(self):
        return f"DualityCoefficient({self.ring}, I={self.module!r})"


def standard_coefficient(rwi):
    """I = R with i = sigma."""
    I = free_module(rwi, 1)
    return DualityCoefficient(rwi, I, lambda x: (rwi.conj(x[0]),))


class DualModule(HomModule):
    """D(M) = Hom_R(sigma_* M, I), decomposed into cyclic factors.

    Elements of the abstract module convert to and from concrete hom
    matrices (I.sdim x M.sdim over the scalar field); eval pairs a dual
    element with a module element."""

    def __init__(self, coef, source):
        if source.rwi != coef.rwi:
            raise CoefficientMismatch("module and coefficient use different involutions")
        self.coef = coef
        self.source = source
        I = coef.module
        # h(a x) = sigma(a) h(x): H . A_g = B_sigma(g) . H on each generator g
        pairs = ((source.action_matrix(g), I.action_matrix(coef.rwi.conj(g)))
                 for g in source.ring.algebra_generators())
        super().__init__(coef.rwi, I.sdim, source.sdim, pairs)

    def _act(self, a, flat):
        """(a h)(x) = a h(x): the raw action of a on I applied to each
        column of h."""
        I = self.coef.module
        a, m = I.ring.el(a).data, self._ncols
        raw = [x.data for x in flat]
        cols = [I._apply(a, raw[c::m]) for c in range(m)]
        return tuple(Element(self.F, cols[c][r]) for r in range(self._nrows) for c in range(m))

    def eval(self, delem, x):
        H = self.hom_matrix(delem)
        return self.coef.module.from_vec(H.apply(self.source.to_vec(x)))


def check_coefficient_iso(c1, c2, jmap):
    """Verify j: I1 -> I2 is an R-linear bijection with j . i1 = i2 . j;
    returns the scalar matrix.  Raises NotACoefficientIso otherwise."""
    if c1.rwi != c2.rwi:
        raise CoefficientMismatch("coefficients live over different involutions")
    J = jmap if isinstance(jmap, Matrix) else map_matrix(c1.module, c2.module, jmap)
    if J.nrows != c2.module.sdim or J.ncols != c1.module.sdim:
        raise NotACoefficientIso("comparison matrix has the wrong shape")
    if c1.module.sdim != c2.module.sdim or J.rank() != c1.module.sdim:
        raise NotACoefficientIso("comparison map is not bijective")
    for g in c1.ring.algebra_generators():
        if J * c1.module.action_matrix(g) != c2.module.action_matrix(g) * J:
            raise NotACoefficientIso(f"comparison map is not R-linear at {g!r}")
    if J * c1.imat != c2.imat * J:
        raise NotACoefficientIso("comparison map does not intertwine the identifications")
    return J
