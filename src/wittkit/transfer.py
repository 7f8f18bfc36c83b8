"""Transfer along finite equivariant ring maps.

For pi: R -> S with S module-finite over R, the transfer coefficient is
pi^flat I = Hom_R(S, I) with S-action (b.f)(m) = f(b m) and the
involution f |-> sigma_I . f . sigma_S.  A form over S valued in
pi^flat I pushes forward to a form over R on the restricted module by
evaluation at one: b_R(x, y) = b_S(x, y)(1_S).  For a tower
R -> R/J -> k the comparison gamma(f): a |-> f(a)(1) identifies the
iterated transfer coefficient with the direct one; gamma is validated
as a coefficient isomorphism, not assumed.

Everything is linear algebra over the shared scalar field: Hom_R(S, I)
is a modules.HomModule, cut out of the space of scalar matrices by the
R-linearity constraints on algebra generators, exactly as the dual module
D(M) = Hom_R(sigma_* M, I) in coefficients.py.
"""

from __future__ import annotations

from .coefficients import DualityCoefficient, check_coefficient_iso
from .errors import (
    CoefficientMismatch,
    DomainMismatch,
    EngineError,
    NotEquivariant,
    NotFinite,
    RingMismatch,
)
from .forms import HermitianForm
from .linalg import Solver, matrix_of_map, span_basis, svec_matrix_of_additive_map, unit_vector
from .modules import ActionSpace, FLModule, HomModule
from .rings import Element, check_equivariant_map, compose_maps


def _mult_matrix(S, b):
    return svec_matrix_of_additive_map(S, S, lambda x: b * x)


class TransferCoefficient(HomModule):
    """pi^flat I as a duality coefficient over the target ring.

    Alongside the abstract FLModule decomposition this keeps the concrete
    presentation: every element converts to the scalar matrix of an
    R-linear map S -> I (hom_matrix / element_of_hom), which is what
    evaluation needs."""

    def __init__(self, pi, rwi_dst, coef, generators=None):
        R = coef.rwi.ring
        S = rwi_dst.ring
        if pi.src != R:
            raise DomainMismatch(f"map source {pi.src} != coefficient ring {R}")
        if pi.dst != S:
            raise DomainMismatch(f"map target {pi.dst} != {S}")
        F = R.scalar_field()
        if S.scalar_field() != F:
            raise RingMismatch("transfer needs a shared scalar field")
        if not check_equivariant_map(pi, coef.rwi, rwi_dst):
            raise NotEquivariant(f"{pi!r} does not intertwine the involutions")
        self.pi = pi
        self.rwi_src = coef.rwi
        self.rwi_dst = rwi_dst
        self.source_coef = coef

        if generators is None:
            generators = [Element(S, d) for d in S.scalar_basis()]
        span = []
        for g in generators:
            g = S.el(g)
            for bdata in R.scalar_basis():
                prod = pi(Element(R, bdata)) * g
                span.append(tuple(F.el(c) for c in S.to_svec(prod.data)))
        if len(span_basis(span, F)) != S.scalar_dim():
            raise NotFinite("generating set does not span the target as an R-module")

        I = coef.module
        # R-linear h: S -> I: H . A_g = B_g . H with A_g multiplication by pi(g)
        pairs = ((_mult_matrix(S, pi(g)), I.action_matrix(g)) for g in R.algebra_generators())
        super().__init__(rwi_dst, I.sdim, S.scalar_dim(), pairs)

        sig_S = svec_matrix_of_additive_map(S, S, rwi_dst.conj)

        def imap(x):
            return self.element_of_hom(coef.imat * self.hom_matrix(x) * sig_S)

        # the coefficient constructor re-verifies semilinearity and i.i = id
        self.coefficient = DualityCoefficient(rwi_dst, self.module, imap)

    def _act(self, b, flat):
        """(b f)(m) = f(b m)."""
        S = self.rwi_dst.ring
        return self._flatten(self._unflatten(flat) * _mult_matrix(S, S.el(b)))

    def eval(self, elem, s_elem):
        S = self.rwi_dst.ring
        vec = tuple(self.F.el(c) for c in S.to_svec(S.el(s_elem).data))
        I = self.source_coef.module
        return I.from_vec(self.hom_matrix(elem).apply(vec))

    def eval_at_one(self, elem):
        return self.eval(elem, self.rwi_dst.ring.one)

    def evaluation_matrix(self):
        """Scalar matrix of f |-> f(1_S) from coefficient coordinates to I
        coordinates; for pi = id this realizes the evaluation iso."""
        I = self.source_coef.module
        return matrix_of_map(self.F, self.module.sdim,
                             lambda u: I.to_vec(self.eval_at_one(self.module.from_vec(u))), nrows=I.sdim)

    def __repr__(self):
        return f"TransferCoefficient({self.pi!r})"


def flat_coefficient(pi, rwi_dst, coef, generators=None):
    return TransferCoefficient(pi, rwi_dst, coef, generators)


class RestrictedModule:
    """An FLModule over S viewed as an R-module through pi, decomposed
    into cyclic R-factors with conversion both ways."""

    def __init__(self, pi, rwi_src, M):
        if pi.dst != M.ring:
            raise DomainMismatch(f"map target {pi.dst} != module ring {M.ring}")
        if pi.src != rwi_src.ring:
            raise DomainMismatch(f"map source {pi.src} != {rwi_src.ring}")
        self.pi = pi
        self.rwi_src = rwi_src
        self.over = M
        F = M.F
        basis = [unit_vector(F, M.sdim, i) for i in range(M.sdim)]

        def act(a, vec):
            return M.to_vec(M.scal(pi(a), M.from_vec(vec)))

        space = ActionSpace(rwi_src, basis, act)
        pieces = space.decompose()
        self.module = FLModule(rwi_src, [ann for _, ann in pieces])
        self._gen_vecs = [v for v, _ in pieces]
        if self.module.sdim != M.sdim:
            raise EngineError("restriction of scalars lost dimensions")
        self._coords = Solver(matrix_of_map(
            F, self.module.sdim, lambda u: M.to_vec(self.from_restricted(self.module.from_vec(u))),
            nrows=M.sdim))

    def from_restricted(self, x):
        M = self.over
        out = M.zero()
        for rep, gv in zip(x, self._gen_vecs):
            out = M.add(out, M.scal(self.pi(rep), M.from_vec(gv)))
        return out

    def to_restricted(self, m):
        vec = self.over.to_vec(m)
        if not vec:
            return self.module.zero()
        sol = self._coords.solve(tuple(vec))
        if sol is None:
            raise EngineError("element escaped the restricted module")
        return self.module.from_vec(sol)


def restrict_scalars(pi, rwi_src, M):
    return RestrictedModule(pi, rwi_src, M)


def transfer_form(tc, form):
    """Push a form over S valued in pi^flat I down to R by evaluation at
    one.  Nondegeneracy is preserved and asserted."""
    if form.coef != tc.coefficient:
        raise CoefficientMismatch("form is not valued in this transfer coefficient")
    rm = RestrictedModule(tc.pi, tc.rwi_src, form.module)
    gens = [rm.from_restricted(g) for g in rm.module.generators()]
    gram = [[tc.eval_at_one(form.evaluate(x, y)) for y in gens] for x in gens]
    out = HermitianForm(tc.source_coef, rm.module, gram, form.epsilon)
    if form.is_nondegenerate() and not out.is_nondegenerate():
        raise EngineError("transfer of a nondegenerate form came out degenerate")
    return out


class GammaComparison:
    """gamma: q^flat p^flat I -> pi^flat I for a tower p: R -> T,
    q: T -> k with pi = q.p; gamma(f)(a) = f(a)(1_T).

    Attributes: inner = p^flat I over T, composite = q^flat(p^flat I)
    over k, direct = pi^flat I over k, matrix = the validated coefficient
    isomorphism on scalar coordinates."""

    def __init__(self, p, q, rwi_mid, rwi_dst, coef):
        self.p = p
        self.q = q
        self.pi = compose_maps(q, p)
        self.inner = TransferCoefficient(p, rwi_mid, coef)
        self.composite = TransferCoefficient(q, rwi_dst, self.inner.coefficient)
        self.direct = TransferCoefficient(self.pi, rwi_dst, coef)
        F = coef.module.F
        k = rwi_dst.ring

        def gamma(u):
            H1 = self.composite.hom_matrix(self.composite.module.from_vec(u))  # (p^flat I).sdim x k.sdim

            def column(a):
                # gamma(f)(e_a) = f(e_a)(1_T)
                return coef.module.to_vec(self.inner.eval_at_one(self.inner.module.from_vec(H1.apply(a))))

            Hg = matrix_of_map(F, k.scalar_dim(), column)
            return self.direct.module.to_vec(self.direct.element_of_hom(Hg))

        J = matrix_of_map(F, self.composite.module.sdim, gamma)
        # raises NotACoefficientIso when the comparison square fails
        self.matrix = check_coefficient_iso(self.composite.coefficient,
                                            self.direct.coefficient, J)


def compose_flats_gamma(p, q, rwi_mid, rwi_dst, coef):
    return GammaComparison(p, q, rwi_mid, rwi_dst, coef)
