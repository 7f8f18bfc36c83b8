"""Finite-length modules over a ring with involution.

An FLModule is a direct sum of cyclic quotients R/(g_i), each stored with
canonical representatives computed by reduction against the row-reduced
scalar span of the ideal (g_i).  All linear algebra happens over the scalar
field of the ring (the prime field in finite characteristic, QQ otherwise),
which is also what makes semilinear maps tractable: they are scalar-linear.

The ring family is decided once, by chain_components: a supported ring is
a product of chain rings e.R, each with a uniformizer pi and a length n
(a field, k[t]/(t^n), or a product of two equal fields), and its
indecomposable cyclic modules are R/(1 - e + pi^a), 1 <= a <= n.  The
simple dimension, the indecomposables, module_from_shape, the cyclic
splitting of every Decomposition and the residue tower of DevissageData
read that description, and nothing else in the library tests the family.

Every module the library builds comes from RingWithInvolution.module,
which keeps one FLModule per annihilator tuple on the ring with
involution, and every module takes its cyclic factors from
RingWithInvolution.factor, which keeps one CyclicFactor (with the echelon
of its ideal) per annihilator.  Whatever is kept on a factor is built
once per annihilator, and whatever is kept on a module once per shape,
each only when first read:
  - on a factor, the raw rows (Element.data) of the scalar matrix of each
    ring element, keyed by its data (_act_rows);
  - on a module, the raw rows of each ring element, the block diagonal of
    its factors' rows (_act_rows), and the Matrix of them (action_matrix);
    the raw products sigma(r1) r2 of the representatives of every pair of
    scalar basis vectors (_pair_products), from which forms.py builds the
    coordinate tensor of every plain form on the module; and the search
    tables of forms.py (_scalar_action_ints and _ann_rows), read off the
    same raw rows.
_apply is the one raw action: the rows of a ring element times a raw
coordinate vector, normalized in the scalar field (so QQ stays exact).
A Decomposition builds the Basis behind its conversions on the first
one, and that Basis its Echelon on the first of_ambient.
"""

from __future__ import annotations

from operator import mul

from .errors import EngineError, EnumerationBoundExceeded, WittKitError
from .linalg import Basis, Echelon, Matrix, matrix_of_map, span_basis, unit_vector
from .rings import Element, ProductRing, QuotientRing, RingWithInvolution


def chain_components(ring):
    """The ring as a product of chain rings e.R: one (e, pi, n) per
    factor, e its idempotent, pi a uniformizer of e.R and n the length of
    e.R, so that pi^n = 0.  A field is [(1, 0, 1)], k[t]/(t^n) with
    n >= 2 (a quotient by a power of its variable) is [(1, t, n)] and
    k x k is [(e1, 0, 1), (e2, 0, 1)]; every other ring has no module
    theory here.  This is the one place that tells the families apart."""
    if ring.is_field:
        return [(ring.one, ring.zero, 1)]
    if isinstance(ring, QuotientRing):
        z = ring.base.zero_data()
        if all(c == z for c in ring.modulus[:-1]):
            return [(ring.one, ring.gen(ring.var), ring.n)]
    if isinstance(ring, ProductRing):
        if not (ring.r1.is_field and ring.r2.is_field and ring.r1 == ring.r2):
            raise WittKitError("product module theory needs equal field factors")
        return [(e, ring.zero, 1) for e in ring.idempotents()]
    raise WittKitError(f"no module theory over {ring}")


def simple_scalar_dim(ring):
    """Scalar dimension of the simple module(s); the unit of length."""
    return ring.scalar_dim() // sum(n for _, _, n in chain_components(ring))


def indecomposable_factor_anns(ring):
    """Annihilator generators 1 - e + pi^a of the indecomposable cyclic
    modules e.R/(pi^a), component by component, a from n down to 1
    (largest factors first)."""
    return [ring.one - e + pi ** a for e, pi, n in chain_components(ring) for a in range(n, 0, -1)]


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
        unit = simple_scalar_dim(ring)
        self.length = self.sdim // unit if self.sdim else 0
        if self.sdim % unit != 0:
            raise EngineError("factor dimension not a multiple of the simple dimension")
        self.key = (-self.sdim, tuple(sorted(tuple(F.sort_key(x) for x in row)
                                             for _, row in self._ideal.rows)))
        self._actions = {}

    def reduce(self, elem):
        ring = self.ring
        vec = self._ideal.reduce(ring.to_svec(ring.el(elem).data))
        return Element(ring, ring.from_svec(tuple(vec)))

    def coords(self, rep):
        vec = self.ring.to_svec(rep.data)
        return tuple(Element(self.F, vec[c]) for c in self.free_coords)

    def from_coords(self, coords):
        F = self.F
        vec = [F.zero_data()] * self.ring.scalar_dim()
        for c, v in zip(self.free_coords, coords):
            vec[c] = F.el(v).data
        return Element(self.ring, self.ring.from_svec(tuple(vec)))

    def _act_rows(self, a):
        """Raw rows of the scalar matrix of multiplication by the ring
        element with data a on R/(ann), in the factor's coordinates; kept
        per a.  Column k is the reduced product of a with the
        representative of unit coordinate vector k."""
        rows = self._actions.get(a)
        if rows is None:
            ring, F = self.ring, self.F
            zero = [F.zero_data()] * ring.scalar_dim()
            cols = []
            for c in self.free_coords:
                unit = list(zero)
                unit[c] = F.one_data()
                vec = self._ideal.reduce(ring.to_svec(ring.mul(a, ring.from_svec(tuple(unit)))))
                cols.append([vec[r] for r in self.free_coords])
            rows = self._actions[a] = [list(row) for row in zip(*cols)]
        return rows


class FLModule:
    """Direct sum of cyclic factors.  Elements are tuples of canonical
    factor representatives."""

    def __init__(self, rwi, anns):
        if not isinstance(rwi, RingWithInvolution):
            raise WittKitError("FLModule needs a RingWithInvolution")
        self.rwi = rwi
        self.ring = rwi.ring
        self.factors = tuple(rwi.factor(a) for a in anns)
        self.F = self.ring.scalar_field()
        self.sdim = sum(f.sdim for f in self.factors)
        self.length = sum(f.length for f in self.factors)
        self._offsets = []
        off = 0
        for f in self.factors:
            self._offsets.append(off)
            off += f.sdim
        self._action_cache = {}
        self._raw_actions = {}
        self._pairs = None
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

    def size(self):
        if not self.F.is_finite:
            raise EnumerationBoundExceeded(f"{self.ring} modules are not enumerable")
        return self.F.size() ** self.sdim

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

    def action_matrix(self, a):
        """Scalar matrix of multiplication by the ring element a, as a
        Matrix of _act_rows(a.data); kept per a."""
        a = self.ring.el(a)
        m = self._action_cache.get(a.data)
        if m is None:
            m = self._action_cache[a.data] = Matrix(self.F, self._act_rows(a.data), self.sdim)
        return m

    def _act_rows(self, a):
        """Raw rows of the scalar matrix of multiplication by the ring
        element with data a, kept per a: the block diagonal of the
        factors' rows, since to_vec concatenates the factor coordinates
        and scal acts factor by factor."""
        rows = self._raw_actions.get(a)
        if rows is None:
            zero = self.F.zero_data()
            rows = self._raw_actions[a] = []
            for f, off in zip(self.factors, self._offsets):
                left, right = [zero] * off, [zero] * (self.sdim - off - f.sdim)
                rows.extend(left + row + right for row in f._act_rows(a))
        return rows

    def _apply(self, a, vec):
        """The raw coordinates of a x for the element x with raw
        coordinates vec (to_ints), a being ring data: _act_rows(a) times
        vec, normalized in the scalar field."""
        norm = self.F.normalize
        return tuple([norm(sum(map(mul, row, vec))) for row in self._act_rows(a)])

    def _pair_products(self):
        """The factor index of each scalar coordinate, and the raw products
        sigma(r1) r2 of the representatives r1, r2 of every pair of scalar
        basis vectors; kept on the module.  A plain form's coordinate
        tensor is product (c1, c2) applied to its Gram key (i, j), i and j
        the factors of c1 and c2."""
        if self._pairs is None:
            ring, sig = self.ring, self.rwi.conj
            reps = [(i, f.from_coords(unit_vector(self.F, f.sdim, k)))
                    for i, f in enumerate(self.factors) for k in range(f.sdim)]
            self._pairs = ([i for i, _ in reps],
                           [[ring.mul(sig(r1).data, r2.data) for _, r2 in reps] for _, r1 in reps])
        return self._pairs


def map_matrix(M, N, fn):
    """Scalar matrix of an additive map M -> N of FLModules, given as a
    callable on module elements."""
    return matrix_of_map(M.F, M.sdim, lambda u: N.to_vec(fn(M.from_vec(u))), nrows=N.sdim)


def module_from_shape(rwi, shape):
    """Shape entries are cyclic lengths over a ring with one chain
    component (e, pi, n): an entry a, 1 <= a <= n, gives the factor
    R/(1 - e + pi^a), which is k[t]/(t^a) over k[t]/(t^n) and the free
    rank one module over a field.  The empty shape is the zero module."""
    ring = rwi.ring
    if not shape:
        return rwi.module([])
    components = chain_components(ring)
    if len(components) != 1:
        raise WittKitError(f"module_from_shape does not support {ring}; pass annihilators")
    (e, pi, n), = components
    for a in shape:
        if not 1 <= a <= n:
            raise WittKitError(f"cyclic length {a} out of range 1..{n}")
    return rwi.module([ring.one - e + pi ** a for a in shape])


def free_module(rwi, rank):
    return rwi.module([rwi.ring.zero] * rank)


# ---------------------------------------------------------------------------
# cyclic decomposition


def _split(rwi, basis, act, n):
    """[(generator vector, annihilator Element)] of the R-stable span of
    basis in F^n, act(a: Element, vec) -> vec being the action.

    For each chain component (e, pi, _) the e-parts of basis span a
    module over e.R.  Split off the cyclic summand e.R/(pi^a) of a vector
    of maximal pi-order a through a map onto it (_split_map), and go on
    with its kernel; the orders never grow, since the kernel is a summand.
    A summand that fills what is left needs no map.  The pieces come
    component by component, largest factors first, then in discovery
    order."""
    ring = rwi.ring
    F = ring.scalar_field()
    out = []
    for e, pi, _ in chain_components(ring):
        level = Basis(F, span_basis([act(e, b) for b in basis], F), n)
        while level.vectors:
            orders = []
            for b in level.vectors:
                o, v = 0, b
                while any(not c.is_zero() for c in v):
                    o += 1
                    v = act(pi, v)
                orders.append(o)
            a = max(orders)
            j = orders.index(a)
            ann = ring.one - e + pi ** a
            out.append((level.vectors[j], ann))
            target = rwi.module([ann])
            if target.sdim == len(level.vectors):
                break
            psi = _split_map(level, act, target, j)
            level = Basis(F, [level.combine(k) for k in psi.nullspace_basis()], n)
    return out


def _split_map(level, act, target, j):
    """An R-linear map from the span of level onto target (an FLModule
    with one factor) sending level.vectors[j] to the generator 1, as a
    target.sdim x len(level.vectors) Matrix on level coordinates.

    level.vectors[j] has coordinates e_j, so the value of a map H at it
    is column j of H: the map is the combination of the hom space basis
    whose columns j sum to the generator.  Existence is guaranteed for a
    vector of maximal pi-order in a module over a chain ring; failure is
    an engine bug."""
    F = level.F
    sd, td = len(level.vectors), target.sdim
    pairs = []
    for g in target.ring.algebra_generators():
        cols = [level.coords(act(g, b)) for b in level.vectors]
        if None in cols:
            raise EngineError("the span to split is not R-stable")
        pairs.append((Matrix.from_cols(F, cols), target.action_matrix(g)))
    homs = hom_space_basis(F, pairs, td, sd)
    at_j = Matrix.from_cols(F, [[h[i * sd + j] for i in range(td)] for h in homs])
    sol = at_j.solve(target.to_vec(target.element([target.ring.one]))) if homs else None
    if sol is None:
        raise EngineError("no splitting map found; decomposition invariant violated")
    flat = Basis(F, homs, td * sd).combine(sol)
    return Matrix(F, [flat[i * sd:(i + 1) * sd] for i in range(td)])


class Decomposition:
    """An R-stable subspace of F^n as an FLModule.  basis spans the
    subspace, act(a: Element, vec) -> vec is the action on F^n, and
    _split gives self.module with the generator vectors self.gens, chain
    component by chain component.  to_ambient and of_ambient are combine
    and coords of one Basis, the ambient vectors of self.module's scalar
    basis; it is built on the first conversion, and its Echelon on the
    first of_ambient."""

    def __init__(self, rwi, basis, act, n):
        self.F = rwi.ring.scalar_field()
        self.act = act
        self._n = n
        pieces = _split(rwi, basis, act, n)
        self.module = rwi.module([ann for _, ann in pieces])
        self.gens = [v for v, _ in pieces]
        if self.module.sdim != len(basis):
            raise EngineError(f"{type(self).__name__} decomposition lost dimensions")
        self._basis = None

    def _ambient_basis(self):
        if self._basis is None:
            vecs = [self.act(f.from_coords(unit_vector(self.F, f.sdim, i)), g)
                    for f, g in zip(self.module.factors, self.gens) for i in range(f.sdim)]
            self._basis = Basis(self.F, vecs, self._n)
        return self._basis

    def to_ambient(self, elem):
        """The vector sum of act(rep_i, g_i) over the components of elem."""
        return self._ambient_basis().combine(self.module.to_vec(elem))

    def of_ambient(self, vec):
        """The element of self.module whose ambient vector is vec;
        EngineError if vec is outside the subspace."""
        x = self._ambient_basis().coords(vec)
        if x is None:
            raise EngineError(f"vector is outside the subspace of {type(self).__name__}")
        return self.module.from_vec(x)


# ---------------------------------------------------------------------------
# hom spaces


def hom_space_basis(F, pairs, nrows, ncols):
    """Scalar basis of {H (nrows x ncols) : H . A = B . H for every (A, B)
    in pairs}, each H flattened row-major.  With A and B the actions of the
    algebra generators on the source and on the target this is a hom space
    of modules.  pairs is only read when neither size is zero.
    Deterministic order from the nullspace computation."""
    if nrows == 0 or ncols == 0:
        return []
    # one row per entry (i, j) of H . A - B . H and pair, on raw data,
    # reduced as it is made: the Matrix whose nullspace is taken holds
    # only the reduced rows, which span the same space
    add, neg, zero = F.add, F.neg, F.zero_data()
    rows = Echelon(F)
    made = False
    for A, B in pairs:
        a = [[x.data for x in row] for row in A.rows]
        b = [[neg(x.data) for x in row] for row in B.rows]
        for i in range(nrows):
            for j in range(ncols):
                row = [zero] * (nrows * ncols)
                for k in range(ncols):
                    row[i * ncols + k] = add(row[i * ncols + k], a[k][j])
                for k in range(nrows):
                    row[k * ncols + j] = add(row[k * ncols + j], b[i][k])
                rows.insert(row)
                made = True
    if not made:
        return [unit_vector(F, nrows * ncols, i) for i in range(nrows * ncols)]
    return Matrix(F, [row for _, row in rows.rows], nrows * ncols).nullspace_basis()


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

