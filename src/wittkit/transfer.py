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
D(M) = Hom_R(sigma_* M, I) in coefficients.py.  The restriction of an
S-module to R (RestrictedModule) is a modules.Decomposition too, of the
whole scalar space of the module: the dual, pi^flat I and every
restriction are split into cyclic factors by the same code.

A TransferCoefficient keeps the restrictions it transfers along:
restriction(M) builds one RestrictedModule per module key and involution
on first request, and transfer_form reads it from there.  Its module
comes from RingWithInvolution.module like every other, and the Echelon
behind its coordinates is only built if of_ambient is called.  A
RestrictedModule acts by the raw action of pi(a) on the coordinates of M
(FLModule._apply), wrapped in Elements for the Decomposition.

transfer_form works on raw scalar data (Element.data: ints mod p, or
Fractions over QQ).  The form over S is scalar-bilinear, so its value on
two ambient vectors u, v is sum u_c1 v_c2 T[c1][c2] with T its
coordinate tensor; evaluation at one is a scalar-linear map from the
coordinates of pi^flat I to those of I, kept on the TransferCoefficient
as a matrix of raw data.  The results are the Gram key of the pushed
form, which is set up on it (forms._form_of_keys), validated and
checked for nondegeneracy like any other; its Gram entries are made
only if they are read.
"""

from __future__ import annotations

from operator import mul

from .coefficients import DualityCoefficient, check_coefficient_iso
from .errors import (
    CoefficientMismatch,
    DomainMismatch,
    EngineError,
    NotEquivariant,
    RingMismatch,
)
from .forms import _form_of_keys
from .linalg import Matrix, unit_vector
from .modules import Decomposition, HomModule, map_matrix
from .rings import Element, check_equivariant_map, compose_maps


class TransferCoefficient(HomModule):
    """pi^flat I as a duality coefficient over the target ring.

    Alongside the abstract FLModule decomposition this keeps the concrete
    presentation: every element converts to the scalar matrix of an
    R-linear map S -> I (hom_matrix / element_of_hom), which is what
    evaluation needs."""

    def __init__(self, pi, rwi_dst, coef):
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
        # S as a free module over itself, on the scalar coordinates of S
        S1 = self._s_module = rwi_dst.module([S.zero])

        I = coef.module
        # R-linear h: S -> I: H . A_g = B_g . H with A_g multiplication by pi(g)
        pairs = ((S1.action_matrix(pi(g)), I.action_matrix(g)) for g in R.algebra_generators())
        super().__init__(rwi_dst, I.sdim, S.scalar_dim(), pairs)

        sig_S = map_matrix(S1, S1, lambda x: (rwi_dst.conj(x[0]),))

        def imap(x):
            return self.element_of_hom(coef.imat * self.hom_matrix(x) * sig_S)

        # the coefficient constructor re-verifies semilinearity and i.i = id
        self.coefficient = DualityCoefficient(rwi_dst, self.module, imap)
        self._restrictions = {}
        # evaluation at one on raw coordinates: (pi^flat I).sdim -> I.sdim
        self._at_one = [[e.data for e in row]
                        for row in map_matrix(self.module, I, self.eval_at_one).rows]

    def restriction(self, M):
        """M restricted to the source ring along pi, as a RestrictedModule
        built on first request.  The module key leaves out sigma, so the
        involution of M is part of the key."""
        key = (M.rwi, M.key)
        rm = self._restrictions.get(key)
        if rm is None:
            rm = self._restrictions[key] = RestrictedModule(self.pi, self.rwi_src, M)
        return rm

    def _act(self, b, flat):
        """(b f)(m) = f(b m): each row of f times the columns of the raw
        action of b on S."""
        S1, m, norm = self._s_module, self._ncols, self.F.normalize
        cols = list(zip(*S1._act_rows(S1.ring.el(b).data)))
        raw = [x.data for x in flat]
        return tuple(Element(self.F, norm(sum(map(mul, raw[r * m:(r + 1) * m], col))))
                     for r in range(self._nrows) for col in cols)

    def eval(self, elem, s_elem):
        S = self.rwi_dst.ring
        vec = tuple(self.F.el(c) for c in S.to_svec(S.el(s_elem).data))
        I = self.source_coef.module
        return I.from_vec(self.hom_matrix(elem).apply(vec))

    def eval_at_one(self, elem):
        return self.eval(elem, self.rwi_dst.ring.one)

    def __repr__(self):
        return f"TransferCoefficient({self.pi!r})"


class RestrictedModule(Decomposition):
    """An FLModule over S viewed as an R-module through pi: the
    Decomposition of all of F^(M.sdim) under a . v = pi(a) v, the raw
    action of pi(a) on the coordinates of M.  Its ambient vectors are the
    scalar coordinates of M (M.to_vec)."""

    def __init__(self, pi, rwi_src, M):
        if pi.dst != M.ring:
            raise DomainMismatch(f"map target {pi.dst} != module ring {M.ring}")
        if pi.src != rwi_src.ring:
            raise DomainMismatch(f"map source {pi.src} != {rwi_src.ring}")
        self.pi = pi
        self.rwi_src = rwi_src
        self.over = M
        F = M.F

        def act(a, vec):
            return tuple(Element(F, x) for x in M._apply(pi(a).data, [c.data for c in vec]))

        super().__init__(rwi_src, [unit_vector(F, M.sdim, i) for i in range(M.sdim)], act, M.sdim)


def transfer_form(tc, form):
    """Push a form over S valued in pi^flat I down to R by evaluation at
    one, b_R(x, y) = b_S(x, y)(1_S), on raw coordinates.  For restricted
    generators with ambient vectors u and v (RestrictedModule.gens) the
    Gram entry is E . sum u_c1 v_c2 T[c1][c2], with T the coordinate
    tensor of form and E the evaluation matrix of tc, reduced in the
    scalar field: the Gram key of the result, which is validated like the
    table of any form.  Nondegeneracy is preserved and asserted."""
    if form.coef != tc.coefficient:
        raise CoefficientMismatch("form is not valued in this transfer coefficient")
    rm = tc.restriction(form.module)
    norm = rm.F.normalize
    tab = form._coord_tensor()
    at_one = tc._at_one
    width = tc.module.sdim
    # the ambient vector of generator i of rm.module, act(1, gens[i]), is
    # gens[i] itself
    vecs = [[c.data for c in g] for g in rm.gens]
    keys = []
    for u in vecs:
        left = [(a, tab[c1]) for c1, a in enumerate(u) if a]
        row = []
        for v in vecs:
            acc = [0] * width
            for a, trow in left:
                for c2, b in enumerate(v):
                    if b:
                        ab = a * b
                        acc = [x + ab * t for x, t in zip(acc, trow[c2])]
            row.append(tuple(norm(sum(map(mul, erow, acc))) for erow in at_one))
        keys.append(row)
    out = _form_of_keys(tc.source_coef, rm.module, keys, form.epsilon)
    out._validate()
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
        at_one = Matrix(coef.module.F, self.inner._at_one)

        def gamma(f):
            # gamma(f)(a) = f(a)(1_T): evaluation at one after f
            return self.direct.element_of_hom(at_one * self.composite.hom_matrix(f))

        J = map_matrix(self.composite.module, self.direct.module, gamma)
        # raises NotACoefficientIso when the comparison square fails
        self.matrix = check_coefficient_iso(self.composite.coefficient,
                                            self.direct.coefficient, J)
