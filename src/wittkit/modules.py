"""Finite-length modules over a ring with involution.

An FLModule is a direct sum of cyclic quotients R/(g_i), each stored with
canonical representatives computed by reduction against the row-reduced
scalar span of the ideal (g_i).  All linear algebra happens over the scalar
field of the ring (the prime field in finite characteristic, QQ otherwise),
which is also what makes semilinear maps tractable: they are scalar-linear.

Supported base rings for module theory: fields from the tower, nilpotent
univariate quotients k[t]/(t^n), and products of two equal fields.

Every module the library builds comes from RingWithInvolution.module,
which keeps one FLModule per annihilator tuple on the ring with
involution.  Whatever is kept on a module is therefore built once per
shape, and only when first read: its cyclic factors (with the echelon of
each ideal) at construction, the action_matrix of each ring element, and
the search tables of forms.py (_int_elements, _scalar_action_ints and
_ann_kernel).  A Decomposition factors its coordinate solver on the first
of_ambient call.
"""

from __future__ import annotations

import itertools

from .errors import EngineError, EnumerationBoundExceeded, WittKitError
from .linalg import Echelon, Matrix, Solver, matrix_of_map, span_basis, unit_vector
from .rings import Element, ProductRing, QuotientRing, RingWithInvolution


def is_nilpotent_quotient(ring):
    """k[t]/(t^n) with n >= 1, i.e. local with principal nilpotent maximal
    ideal (t)."""
    if not isinstance(ring, QuotientRing) or ring.is_field:
        return False
    z = ring.base.zero_data()
    return all(c == z for c in ring.modulus[:-1])


def uniformizer(ring):
    if not is_nilpotent_quotient(ring):
        raise WittKitError(f"{ring} is not a nilpotent univariate quotient")
    return ring.gen(ring.var)


def simple_scalar_dim(ring):
    """Scalar dimension of the simple module(s); the unit of length."""
    if ring.is_field:
        return ring.scalar_dim()
    if is_nilpotent_quotient(ring):
        return ring.base.scalar_dim()
    if isinstance(ring, ProductRing):
        if not (ring.r1.is_field and ring.r2.is_field and ring.r1 == ring.r2):
            raise WittKitError("product module theory needs equal field factors")
        return ring.r1.scalar_dim()
    raise WittKitError(f"no module theory over {ring}")


def indecomposable_factor_anns(ring):
    """Annihilator generators of the indecomposable cyclic modules, in
    canonical order (largest factors first)."""
    if ring.is_field:
        return [ring.zero]
    if is_nilpotent_quotient(ring):
        t = uniformizer(ring)
        return [t ** a for a in range(ring.n, 0, -1)]
    if isinstance(ring, ProductRing):
        simple_scalar_dim(ring)  # validates shape
        e1, e2 = ring.idempotents()
        return [e2, e1]  # ann e2 -> factor k x 0, ann e1 -> factor 0 x k
    raise WittKitError(f"no module theory over {ring}")


class CyclicFactor:
    """R/(ann): canonical representatives are ring elements whose scalar
    vector vanishes on the pivot coordinates of the ideal span."""

    def __init__(self, ring, ann):
        self.ring = ring
        self.ann = ring.el(ann)
        F = ring.scalar_field()
        d = ring.scalar_dim()
        self._ideal = Echelon(F)
        for bdata in ring.scalar_basis():
            self._ideal.insert(ring.to_svec(ring.mul(self.ann.data, bdata)))
        pivots = self._ideal.pivots()
        self.free_coords = [c for c in range(d) if c not in pivots]
        self.sdim = len(self.free_coords)
        self.F = F
        self.length = self.sdim // simple_scalar_dim(ring) if self.sdim else 0
        if self.sdim % simple_scalar_dim(ring) != 0:
            raise EngineError("factor dimension not a multiple of the simple dimension")
        self.key = (-self.sdim, tuple(sorted(tuple(F.sort_key(x) for x in row)
                                             for _, row in self._ideal.rows)))

    def reduce(self, elem):
        ring = self.ring
        vec = self._ideal.reduce(ring.to_svec(ring.el(elem).data))
        return Element(ring, ring.from_svec(tuple(vec)))

    def coords(self, rep):
        vec = self.ring.to_svec(rep.data)
        return tuple(self.F.el(vec[c]) for c in self.free_coords)

    def from_coords(self, coords):
        d = self.ring.scalar_dim()
        vec = [self.F.zero.data] * d
        for c, v in zip(self.free_coords, coords):
            vec[c] = self.F.el(v).data
        return Element(self.ring, self.ring.from_svec(tuple(vec)))

    def elements(self):
        opts = [e for e in self.F.elements()]
        for combo in itertools.product(opts, repeat=self.sdim):
            yield self.from_coords(combo)


class FLModule:
    """Direct sum of cyclic factors.  Elements are tuples of canonical
    factor representatives."""

    def __init__(self, rwi, anns):
        if not isinstance(rwi, RingWithInvolution):
            raise WittKitError("FLModule needs a RingWithInvolution")
        self.rwi = rwi
        self.ring = rwi.ring
        self.factors = tuple(CyclicFactor(self.ring, a) for a in anns)
        self.F = self.ring.scalar_field()
        self.sdim = sum(f.sdim for f in self.factors)
        self.length = sum(f.length for f in self.factors)
        self._offsets = []
        off = 0
        for f in self.factors:
            self._offsets.append(off)
            off += f.sdim
        self._action_cache = {}
        self.key = (self.ring._key, tuple(f.key for f in self.factors))

    def __eq__(self, other):
        return isinstance(other, FLModule) and self.rwi == other.rwi and self.key == other.key

    def __hash__(self):
        return hash((self.rwi, self.key))

    def __repr__(self):
        if not self.factors:
            return f"FLModule({self.ring}, 0)"
        parts = ", ".join(repr(f.ann) for f in self.factors)
        return f"FLModule({self.ring}, ann=[{parts}])"

    def shape(self):
        return tuple(f.length for f in self.factors)

    # -- elements ---------------------------------------------------------
    def zero(self):
        return tuple(self.ring.zero for _ in self.factors)

    def element(self, reps):
        if len(reps) != len(self.factors):
            raise WittKitError("component count mismatch")
        return tuple(f.reduce(self.ring.el(r)) for f, r in zip(self.factors, reps))

    def generators(self):
        n = len(self.factors)
        return [self.element(unit_vector(self.ring, n, i)) for i in range(n)]

    def add(self, x, y):
        return tuple(f.reduce(a + b) for f, a, b in zip(self.factors, x, y))

    def neg(self, x):
        return tuple(f.reduce(-a) for f, a in zip(self.factors, x))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def scal(self, a, x):
        a = self.ring.el(a)
        return tuple(f.reduce(a * r) for f, r in zip(self.factors, x))

    def is_zero(self, x):
        return all(r.is_zero() for r in x)

    def elements(self, limit=None):
        count = self.size()
        if limit is not None and count > limit:
            raise EnumerationBoundExceeded(f"|M| = {count} exceeds limit {limit}")
        for combo in itertools.product(*[list(f.elements()) for f in self.factors]):
            yield tuple(combo)

    def size(self):
        if not self.F.is_finite:
            raise EnumerationBoundExceeded(f"{self.ring} modules are not enumerable")
        return self.F.size() ** self.sdim

    def random_element(self, rng):
        return tuple(f.reduce(self.ring.random_element(rng)) for f in self.factors)

    # -- scalar coordinates ------------------------------------------------
    def to_vec(self, x):
        out = []
        for f, r in zip(self.factors, x):
            out.extend(f.coords(r))
        return tuple(out)

    def from_vec(self, vec):
        out = []
        for f, off in zip(self.factors, self._offsets):
            out.append(f.from_coords(vec[off:off + f.sdim]))
        return tuple(out)

    def to_ints(self, x):
        return tuple(c.data for c in self.to_vec(x))

    def from_ints(self, ints):
        return self.from_vec(tuple(self.F.el(c) for c in ints))

    def action_matrix(self, a):
        """Scalar matrix of multiplication by the ring element a."""
        a = self.ring.el(a)
        ck = a.data
        if ck in self._action_cache:
            return self._action_cache[ck]
        m = map_matrix(self, self, lambda x: self.scal(a, x))
        self._action_cache[ck] = m
        return m

    def conj_vec(self, vec):
        """Coordinate action of sigma on representatives: componentwise
        sigma on factor reps (well defined only when each ideal (ann) is
        sigma-invariant; callers that need it check that)."""
        x = self.from_vec(vec)
        y = tuple(f.reduce(self.rwi.conj(r)) for f, r in zip(self.factors, x))
        return self.to_vec(y)


def map_matrix(M, N, fn):
    """Scalar matrix of an additive map M -> N of FLModules, given as a
    callable on module elements."""
    return matrix_of_map(M.F, M.sdim, lambda u: N.to_vec(fn(M.from_vec(u))), nrows=N.sdim)


def module_from_shape(rwi, shape):
    """Shape entries are cyclic lengths: over a field every entry must be 1
    (free rank); over k[t]/(t^n) an entry a gives the factor k[t]/(t^a)."""
    ring = rwi.ring
    anns = []
    for a in shape:
        if ring.is_field:
            if a != 1:
                raise WittKitError("over a field all cyclic factors have length 1")
            anns.append(ring.zero)
        elif is_nilpotent_quotient(ring):
            if not 1 <= a <= ring.n:
                raise WittKitError(f"cyclic length {a} out of range 1..{ring.n}")
            anns.append(uniformizer(ring) ** a)
        else:
            raise WittKitError(f"module_from_shape does not support {ring}; pass annihilators")
    return rwi.module(anns)


def free_module(rwi, rank):
    return rwi.module([rwi.ring.zero] * rank)


# ---------------------------------------------------------------------------
# submodules


def submodule_span(M, elems):
    """Scalar basis (tuples of scalar Elements) of the R-submodule
    generated by elems."""
    vecs = []
    for v in elems:
        for bdata in M.ring.scalar_basis():
            vecs.append(M.to_vec(M.scal(Element(M.ring, bdata), v)))
    return span_basis(vecs, M.F)


class ActionSpace:
    """An R-module structure on a scalar subspace: a basis (in ambient
    coordinates of some FLModule or hom space) plus internal action
    matrices for the algebra generators.  decompose() peels off cyclic
    summands with exact annihilators; Decomposition turns the pieces into
    an FLModule."""

    def __init__(self, rwi, basis, act):
        """act(a: Element, ambient_vec) -> ambient_vec."""
        self.rwi = rwi
        self.ring = rwi.ring
        self.F = rwi.ring.scalar_field()
        self.basis = [tuple(v) for v in basis]
        self._act = act
        self._solver = None  # factored on the first _to_internal call

    def dim(self):
        return len(self.basis)

    def _to_internal(self, vec):
        if not self.basis:
            return ()
        if self._solver is None:
            self._solver = Solver(Matrix.from_cols(self.F, self.basis))
        sol = self._solver.solve(tuple(vec))
        if sol is None:
            raise EngineError("vector outside the action space")
        return sol

    def _from_internal(self, coords):
        n = len(self.basis[0]) if self.basis else 0
        out = [self.F.zero] * n
        for c, b in zip(coords, self.basis):
            out = [x + c * y for x, y in zip(out, b)]
        return tuple(out)

    def internal_action_matrix(self, a):
        cols = [self._to_internal(self._act(a, b)) for b in self.basis]
        return Matrix.from_cols(self.F, cols) if cols else Matrix(self.F, [])

    def decompose(self):
        """[(ambient generator vector, annihilator Element)], canonical
        order (largest cyclic factors first, then discovery order)."""
        ring = self.ring
        if ring.is_field:
            return self._decompose_field(self.basis, ann=ring.zero)
        if isinstance(ring, ProductRing):
            e1, e2 = ring.idempotents()
            out = []
            for e, co in ((e1, e2), (e2, e1)):
                comp = span_basis([self._act(e, b) for b in self.basis], self.F)
                out.extend(self._decompose_field(comp, ann=co))
            return out
        if is_nilpotent_quotient(ring):
            return self._decompose_local()
        raise WittKitError(f"decompose does not support {ring}")

    def _decompose_field(self, comp_basis, ann):
        ring = self.ring
        out = []
        taken = Echelon(self.F)
        for b in comp_basis:
            if taken.contains([c.data for c in b]):
                continue
            out.append((tuple(b), ann))
            for bd in ring.scalar_basis():
                taken.insert([c.data for c in self._act(Element(ring, bd), b)])
        return out

    def _decompose_local(self):
        ring = self.ring
        t = uniformizer(ring)
        out = []
        space = self
        while space.basis:
            # maximal t-order vector in the current space
            best, best_ord = None, -1
            for b in space.basis:
                o, v = 0, tuple(b)
                while any(not c.is_zero() for c in v):
                    o += 1
                    v = self._act(t, v)
                if o > best_ord:
                    best, best_ord = tuple(b), o
            a = best_ord
            target = self.rwi.module([t ** a])
            psi = _split_map(space, target, best)
            out.append((best, t ** a))
            # new space: kernel of psi inside the old one
            rows = []
            for j in range(target.sdim):
                rows.append([psi[j][i] for i in range(space.dim())])
            kmat = Matrix(self.F, rows) if rows else Matrix(self.F, [[]])
            kernel = kmat.nullspace_basis()
            space = ActionSpace(self.rwi, [space._from_internal(k) for k in kernel], self._act)
        out.sort(key=lambda p: _ann_sort_key(self.ring, p[1]), )
        return out


def _ann_sort_key(ring, ann):
    # free factors (ann = 0) first, then decreasing factor size
    f = CyclicFactor(ring, ann)
    return f.key


def _split_map(space, target, gen_vec):
    """An R-linear map space -> target (an FLModule with one factor)
    sending gen_vec to the generator 1; returned as a matrix over the
    scalar field (target.sdim x space.dim()).  Existence is guaranteed for
    a maximal-order generator over k[t]/(t^n); failure is an engine bug."""
    F = space.F
    ring = space.ring
    sd, td = space.dim(), target.sdim
    # unknown H: td x sd with H . A_g = B_g . H for algebra generators g,
    # plus H(gen coords) = coords of the generator of target
    pairs = ((space.internal_action_matrix(g), target.action_matrix(g))
             for g in ring.algebra_generators())
    rows = _hom_rows(F, pairs, td, sd)
    rhs = [F.zero] * len(rows)
    gcoords = space._to_internal(gen_vec)
    one_vec = target.to_vec(target.element([ring.one]))
    for i in range(td):
        row = [F.zero] * (td * sd)
        for j in range(sd):
            row[i * sd + j] = gcoords[j]
        rows.append(row)
        rhs.append(one_vec[i])
    sol = Matrix(F, rows).solve(tuple(rhs))
    if sol is None:
        raise EngineError("no splitting map found; decomposition invariant violated")
    return [[sol[i * sd + j] for j in range(sd)] for i in range(td)]


class Decomposition:
    """An R-stable subspace of F^n as an FLModule.  basis spans the
    subspace, act(a: Element, vec) -> vec is the action on F^n, and the
    ActionSpace decomposition gives self.module with the generator vectors
    self.gens.  to_ambient and of_ambient convert between elements of
    self.module and vectors of F^n; the solver behind of_ambient is
    factored on its first call."""

    def __init__(self, rwi, basis, act, n):
        self.F = rwi.ring.scalar_field()
        self.act = act
        self._n = n
        pieces = ActionSpace(rwi, basis, act).decompose()
        self.module = rwi.module([ann for _, ann in pieces])
        self.gens = [v for v, _ in pieces]
        if self.module.sdim != len(basis):
            raise EngineError(f"{type(self).__name__} decomposition lost dimensions")
        self._solver = None

    def to_ambient(self, elem):
        """The vector sum of act(rep_i, g_i) over the components of elem."""
        out = (self.F.zero,) * self._n
        for rep, gv in zip(elem, self.gens):
            out = tuple(a + b for a, b in zip(out, self.act(rep, gv)))
        return out

    def of_ambient(self, vec):
        """The element of self.module whose ambient vector is vec;
        EngineError if vec is outside the subspace."""
        if not vec:
            return self.module.zero()
        if self._solver is None:
            self._solver = Solver(matrix_of_map(
                self.F, self.module.sdim, lambda u: self.to_ambient(self.module.from_vec(u)),
                nrows=self._n))
        sol = self._solver.solve(tuple(vec))
        if sol is None:
            raise EngineError(f"vector is outside the subspace of {type(self).__name__}")
        return self.module.from_vec(sol)


def decompose_submodule(M, elems):
    """Cyclic decomposition of the submodule of M generated by elems.
    Returns (FLModule, [generator elements of M], ActionSpace basis)."""
    basis = submodule_span(M, elems)

    def act(a, vec):
        return M.to_vec(M.scal(a, M.from_vec(vec)))

    dec = Decomposition(M.rwi, basis, act, M.sdim)
    return dec.module, [M.from_vec(v) for v in dec.gens], basis


# ---------------------------------------------------------------------------
# hom spaces


def _hom_rows(F, pairs, nrows, ncols):
    """The linear system H . A - B . H = 0, one row per entry and pair, in
    the entries of an unknown nrows x ncols matrix H flattened row-major."""
    rows = []
    for A, B in pairs:
        for i in range(nrows):
            for j in range(ncols):
                row = [F.zero] * (nrows * ncols)
                # (H A)_{ij} = sum_k H_{ik} A_{kj}
                for k in range(ncols):
                    row[i * ncols + k] = row[i * ncols + k] + A[k, j]
                # (B H)_{ij} = sum_k B_{ik} H_{kj}
                for k in range(nrows):
                    row[k * ncols + j] = row[k * ncols + j] - B[i, k]
                rows.append(row)
    return rows


def hom_space_basis(F, pairs, nrows, ncols):
    """Scalar basis of {H (nrows x ncols) : H . A = B . H for every (A, B)
    in pairs}, each H flattened row-major.  With A and B the actions of the
    algebra generators on the source and on the target this is a hom space
    of modules.  pairs is only read when neither size is zero.
    Deterministic order from the nullspace computation."""
    if nrows == 0 or ncols == 0:
        return []
    rows = _hom_rows(F, pairs, nrows, ncols)
    if not rows:
        return [unit_vector(F, nrows * ncols, i) for i in range(nrows * ncols)]
    return Matrix(F, rows).nullspace_basis()


class HomModule(Decomposition):
    """A hom space of scalar matrices (nrows x ncols) with an R-action, as
    the Decomposition of its row-major flattenings.

    The space is cut out by hom_space_basis from pairs; subclasses supply
    the action as the method _act(a, flat) -> flat on flattened matrices.
    Every element of self.module converts to the matrix of a map
    (hom_matrix) and back (element_of_hom), which is what evaluation
    needs."""

    def __init__(self, rwi, nrows, ncols, pairs):
        self._nrows, self._ncols = nrows, ncols
        basis = hom_space_basis(rwi.ring.scalar_field(), pairs, nrows, ncols)
        super().__init__(rwi, basis, self._act, nrows * ncols)

    def _act(self, a, flat):
        raise NotImplementedError

    def _flatten(self, H):
        return tuple(H.rows[r][c] for r in range(self._nrows) for c in range(self._ncols))

    def _unflatten(self, flat):
        m = self._ncols
        return Matrix(self.F, [[flat[r * m + c] for c in range(m)] for r in range(self._nrows)])

    def hom_matrix(self, elem):
        return self._unflatten(self.to_ambient(elem))

    def element_of_hom(self, H):
        """The element of self.module whose hom matrix is H (a Matrix or
        its row-major flattening); EngineError if H is outside the space."""
        return self.of_ambient(self._flatten(H) if isinstance(H, Matrix) else H)


def check_module_axioms(M, rng, samples=25):
    """Sampled module axioms (seeded): associativity and distributivity of
    the action, compatibility of reduce with ring arithmetic."""
    for _ in range(samples):
        a = M.ring.random_element(rng)
        b = M.ring.random_element(rng)
        x = M.random_element(rng)
        y = M.random_element(rng)
        assert M.scal(a, M.add(x, y)) == M.add(M.scal(a, x), M.scal(a, y))
        assert M.scal(a * b, x) == M.scal(a, M.scal(b, x))
        assert M.scal(a + b, x) == M.add(M.scal(a, x), M.scal(b, x))
        assert M.add(x, M.neg(x)) == M.zero()
    return True
