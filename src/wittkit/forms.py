"""Epsilon-hermitian forms on finite-length modules.

A form is stored as a Gram table over the coefficient module: entries
b(g_i, g_j) for the cyclic generators g_i.  Sesquilinearity follows the
convention b(a x, y) = sigma(a) b(x, y), b(x, a y) = a b(x, y), and
epsilon-symmetry means b(y, x) = epsilon . i(b(x, y)).

Construction validates three things: the Gram entries are killed by the
factor annihilators on both slots (otherwise the table does not descend to
the quotients; tested as raw actions on the Gram key), epsilon-symmetry
holds on every pair of scalar basis vectors (on the raw coordinate tensor,
against epsilon times the matrix of i), and epsilon is +1 or -1.
Nondegeneracy is a separate predicate (the adjoint into the dual module
being bijective), since degenerate forms are legitimate objects to build
and then reject.  It is decided without
building the dual module: one rank on the coordinate tensor and the
dimension of the dual, a sum of kernels in I.  The dual module itself is
read only by hyperbolic_form, whose forms the coefficient keeps
(DualityCoefficient.hyperbolic) for its strong-duality check and for
the hyperbolic blocks of every engine.

Tables live where they are decided, and each is built on first read.  Per
shape, on the module (one FLModule per annihilator tuple, from
RingWithInvolution.module): the integer action matrices of the scalar
basis (_scalar_action_ints) and the linear conditions for being killed by
each annihilator (_ann_rows; on the coefficient module I they also give
the kernel dimensions that nondegeneracy counts), both read off the
module's raw action rows.  No table lists the elements of a module:
element k is the tuple of base-p digits of k, and the searches walk those
tuples in index order (_candidates).  Per form, on the form: the Gram
key, the Gram entries, the coordinate tensor (raw I-coordinates, the one
scalar pairing table), the norm reader (a plain form's norm table, as int
codes), the fingerprint and nondegeneracy.

A form is set up from one of two sources.  A plain form has its Gram key
(raw I-coordinates of the entries), and every other table of it is
computed from that key.  A form built from a table (__init__) makes its
key from its coerced entries; transfer_form and wittgroup (its Gram
enumeration and its empty form) hold raw coordinates already and set the
key directly (_form_of_keys).  A plain form's tensor entry for scalar basis vectors in
factors i and j is the raw action, on I, of the module's kept product
sigma(r1) r2 of their representatives applied to key (i, j).  An
orthogonal sum has its parts: it takes its summands' keys as they are and
composes its per-form tables from theirs, apart from nondegeneracy, which
it decides on its composed tensor like any form.  On every form the Gram
entries are Elements made from the key (I.from_vec) only when form.gram
is read.
"""

from __future__ import annotations

from collections import Counter
from operator import mul

from .coefficients import check_coefficient_iso
from .errors import (
    CoefficientMismatch,
    Degenerate,
    EnumerationBoundExceeded,
    FormMismatch,
    NotEpsilonSymmetric,
    NotSesquilinear,
)
from .linalg import Echelon, Matrix
from .modules import free_module, module_from_shape, simple_scalar_dim


class HermitianForm:
    def __init__(self, coef, module, gram, epsilon):
        _check_table(coef, module, gram, epsilon)
        I = coef.module
        self._setup(coef, module, epsilon,
                    key=tuple(tuple(I.to_ints(_coerce(I, e)) for e in row) for row in gram))
        self._validate()

    def _setup(self, coef, module, epsilon, key=None, parts=None):
        """Every form is set up here, from one of two sources: key, the raw
        I-coordinates (I.to_ints) of reduced Gram entries (__init__ makes
        it from its coerced entries, _form_of_keys takes it as given); or
        parts, (summands, order) on a form built by orthogonal_sum or
        canonical_order, whose factor a is factor order[a] of the
        summands' factors taken one summand after another, and whose
        tables are composed from theirs.  The key of a composed form is
        made from its summands' keys on first read."""
        self.coef = coef
        self.module = module
        self.ring = module.ring
        self.epsilon = epsilon
        self._gram = None
        self._gkey = key
        self._ctensor = None
        self._ntab = None
        self._reader = None
        self._fp = None
        self._nondeg = None
        self._parts = parts

    @property
    def gram(self):
        """The Gram table, entries b(g_i, g_j) as reduced elements of the
        coefficient module; made from the Gram key by I.from_vec on first
        read and kept on the form."""
        if self._gram is None:
            I = self.coef.module
            self._gram = [[I.from_vec(k) for k in row] for row in self.gram_key()]
        return self._gram

    def _validate(self):
        I = self.coef.module
        sig = self.coef.rwi.conj
        keys = self.gram_key()
        # sesquilinearity on the Gram key: the raw actions of sigma(ann_i)
        # and ann_j on entry (i, j) vanish
        anns = [(sig(f.ann).data, f.ann.data) for f in self.module.factors]
        zero = (I.F.zero_data(),) * I.sdim
        for i, (sig_ann, _) in enumerate(anns):
            for j, (_, ann) in enumerate(anns):
                key = keys[i][j]
                if key == zero:
                    continue
                if any(I._apply(sig_ann, key)):
                    raise NotSesquilinear(
                        f"entry ({i},{j}) not killed by sigma(ann) of factor {i}"
                    )
                if any(I._apply(ann, key)):
                    raise NotSesquilinear(
                        f"entry ({i},{j}) not killed by ann of factor {j}"
                    )
        # epsilon-symmetry on raw I-coordinates: epsilon . i as one matrix.
        # It squares to the identity (the coefficient checks i . i = id), so
        # the test at (c1, c2) covers (c2, c1), and a failure at c1 > c2
        # would have been met at (c2, c1) first
        norm = I.F.normalize
        eps_i = [[self.epsilon * e.data for e in row] for row in self.coef.imat.rows]
        tab = self._coord_tensor()
        d = self.module.sdim
        for c1 in range(d):
            for c2 in range(c1, d):
                x = tab[c1][c2]
                want = zero if x == zero else tuple(norm(sum(map(mul, row, x))) for row in eps_i)
                if tab[c2][c1] != want:
                    raise NotEpsilonSymmetric(
                        f"b(y,x) != epsilon i(b(x,y)) at coordinate pair ({c1},{c2})"
                    )

    def evaluate(self, x, y):
        I = self.coef.module
        sig = self.coef.rwi.conj
        out = I.zero()
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            sxi = sig(xi)
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                out = I.add(out, I.scal(sxi * yj, self.gram[i][j]))
        return out

    def btensor(self):
        """The ring-valued Gram matrix G = (b(g_i, g_j)) over the cyclic
        generators g_i, as a Matrix over self.ring.  Only defined when the
        coefficient module is free of rank 1 (one factor, zero annihilator),
        where b takes values in the ring itself; any other coefficient
        raises CoefficientMismatch."""
        I = self.coef.module
        if len(I.factors) != 1 or not I.factors[0].ann.is_zero():
            raise CoefficientMismatch(
                "btensor() needs a free rank-1 coefficient module; "
                f"this one has annihilators {[str(f.ann) for f in I.factors]}"
            )
        return Matrix(self.ring, [[e[0] for e in row] for row in self.gram])

    # -- coordinate tensor: b is scalar-bilinear since sigma fixes the
    # -- scalar field pointwise
    def _coord_tensor(self):
        """Raw I-coordinates (I.to_ints) of b(e_c1, e_c2) for every pair of
        scalar basis vectors; the one scalar pairing table of the form.
        Each e_c is a representative r of one cyclic factor, so the entry
        for r1 in factor i and r2 in factor j is sigma(r1) r2 times Gram
        entry (i, j).  A composed form takes the block diagonal of its
        summands' tensors, permuted as its factors are."""
        if self._ctensor is None:
            I = self.coef.module
            d = self.module.sdim
            if self._parts is not None:
                whole = [[I.to_ints(I.zero())] * d for _ in range(d)]
                off = 0
                for f in self._parts[0]:
                    for c1, row in enumerate(f._coord_tensor()):
                        whole[off + c1][off:off + len(row)] = row
                    off += f.module.sdim
                perm = _coord_order(self)
                self._ctensor = [[whole[a][b] for b in perm] for a in perm]
            else:
                factor_of, products = self.module._pair_products()
                keys = self.gram_key()
                zero = (I.F.zero_data(),) * I.sdim
                live = [[k != zero for k in row] for row in keys]
                self._ctensor = [[I._apply(prod, keys[i][j]) if live[i][j] else zero
                                  for j, prod in zip(factor_of, row)]
                                 for i, row in zip(factor_of, products)]
        return self._ctensor

    def eval_vecs(self, xv, yv):
        """The I-coordinates (scalar Elements) of b(x, y), for x and y given
        by their scalar coordinates xv and yv (FLModule.to_vec): the
        coordinate tensor contracted with both, on raw scalars."""
        I = self.coef.module
        F = self.module.F
        tab = self._coord_tensor()
        ys = [(c2, b.data) for c2, b in enumerate(yv) if not b.is_zero()]
        out = [F.zero_data()] * I.sdim
        for c1, a in enumerate(xv):
            if a.is_zero():
                continue
            row = tab[c1]
            for c2, b in ys:
                ab = a.data * b
                out = [o + ab * t for o, t in zip(out, row[c2])]
        return tuple(F.el(o) for o in out)

    # -- structure ---------------------------------------------------------
    def is_nondegenerate(self):
        """Whether the adjoint M -> D(M), y -> b(., y), is bijective.  Kept
        on the form.  It is injective when the d columns b(., e_c), each
        the coordinate tensor's column c flattened, are independent.  The
        dual of a cyclic factor R/(a) is the part of I killed by sigma(a),
        which the bijection i maps onto the part killed by a; so D(M) has
        dimension d exactly when the kernels of the annihilators on I
        (read off _ann_rows of I) add up to d, and then injective means
        bijective."""
        if self._nondeg is None:
            I = self.coef.module
            d = self.module.sdim
            tab = self._coord_tensor()
            dual_dim = sum(I.sdim - len(_ann_rows(I, f.ann).rows) for f in self.module.factors)
            cols = Echelon(self.module.F)
            self._nondeg = dual_dim == d and all(
                cols.insert([x for row in tab for x in row[c]]) for c in range(d))
        return self._nondeg

    def require_nondegenerate(self):
        if not self.is_nondegenerate():
            raise Degenerate(f"form on {self.module!r} has a radical")
        return self

    def shape(self):
        return self.module.shape()

    def gram_key(self):
        """The Gram table as nested tuples of raw coordinates; kept on the
        form, since nothing changes the table after construction.  A
        composed form takes its entries from its summands' keys."""
        if self._gkey is None:
            I = self.coef.module
            picked = _picked(*self._parts)
            keys = [f.gram_key() for f in self._parts[0]]
            zero = I.to_ints(I.zero())
            self._gkey = tuple(tuple(keys[s][i][j] if s == t else zero for t, j in picked)
                               for s, i in picked)
        return self._gkey

    def __eq__(self, other):
        return (
            isinstance(other, HermitianForm)
            and self.coef == other.coef
            and self.module == other.module
            and self.epsilon == other.epsilon
            and self.gram_key() == other.gram_key()
        )

    def __hash__(self):
        return hash((self.coef, self.module, self.epsilon, self.gram_key()))

    def __repr__(self):
        return f"HermitianForm({self.ring}, shape={list(self.shape())}, eps={self.epsilon:+d})"

    # -- invariants --------------------------------------------------------
    def norm_fingerprint(self):
        """Multiset of b(x,x) over all of M, as a sorted table of (code,
        count), each value by its _code; an isometry invariant used for
        fast separation.  Kept on the form.  On a composed form it is the
        convolution of the summands' tables through the _adds rows, since
        b(x+y, x+y) = b(x,x) + b(y,y) when x is orthogonal to y; a
        permutation of factors leaves it unchanged.  Otherwise it counts
        _norm_table, which needs a finite scalar field."""
        return _fingerprint(self)


def _check_table(coef, module, table, epsilon):
    """The checks every form built from a table passes: the coefficient
    and the module share the involution, epsilon is a sign and the table
    is square of the module's factor count."""
    if module.rwi != coef.rwi:
        raise CoefficientMismatch("form module and coefficient disagree on the involution")
    if epsilon not in (1, -1):
        raise FormMismatch(f"epsilon must be +1 or -1, got {epsilon!r}")
    n = len(module.factors)
    if len(table) != n or any(len(row) != n for row in table):
        raise FormMismatch("Gram table size does not match the number of cyclic factors")


def _form_of_keys(coef, module, keys, epsilon):
    """The form whose Gram key is keys, unvalidated: keys holds the raw
    I-coordinates (I.to_ints) of the entries, normalized in the scalar
    field.  I.from_vec of such a vector is a reduced element already, so
    each entry is made once, on the first read of form.gram, and not
    reduced again."""
    _check_table(coef, module, keys, epsilon)
    form = object.__new__(HermitianForm)
    form._setup(coef, module, epsilon, key=tuple(tuple(row) for row in keys))
    return form


def _coerce(I, entry):
    """A Gram entry as a reduced element of the coefficient module I."""
    if isinstance(entry, tuple) and len(entry) == len(I.factors):
        return I.element(entry)
    if len(I.factors) == 1:
        return I.element([I.ring.el(entry)])
    raise FormMismatch("Gram entry is not a coefficient-module element")


def _canonical_permutation(factors):
    return sorted(range(len(factors)), key=lambda k: (factors[k].key, k))


def _picked(summands, order):
    """(summand, factor index) of each factor of the permuted sum."""
    slots = [(s, i) for s, f in enumerate(summands) for i in range(len(f.module.factors))]
    return [slots[k] for k in order]


def _permuted_sum(summands, order):
    """The orthogonal sum of the summands with its cyclic factors taken in
    the given order (indices into the summands' factors, one summand
    after another).  The result carries the summands, so its tables are
    composed from theirs, its Gram key too, which is reduced already and
    is not coerced again."""
    first = summands[0]
    module = first.coef.rwi.module([summands[s].module.factors[i].ann
                                    for s, i in _picked(summands, order)])
    form = object.__new__(HermitianForm)
    form._setup(first.coef, module, first.epsilon, parts=(tuple(summands), tuple(order)))
    return form


def orthogonal_sum(f1, f2):
    """f1 + f2 on the direct sum of their modules, its cyclic factors in
    canonical (key-sorted) order.  The sum carries its two summands and
    that factor order: its norm fingerprint, norm reader and coordinate
    tensor are then composed from the summands' tables, never computed
    from its own elements, and it is nondegenerate when both summands
    are."""
    if f1.coef != f2.coef:
        raise CoefficientMismatch("orthogonal sum needs a common coefficient")
    if f1.epsilon != f2.epsilon:
        raise FormMismatch(f"cannot add eps={f1.epsilon:+d} and eps={f2.epsilon:+d} forms")
    return _permuted_sum((f1, f2), _canonical_permutation(f1.module.factors + f2.module.factors))


def canonical_order(f):
    """The same form with its cyclic factors permuted into the canonical
    (key-sorted) order used when comparing shapes; f itself if they are in
    that order already.  A permuted copy carries f as its one summand, so
    it reads its norms from f's leaves, with its coordinates permuted."""
    order = _canonical_permutation(f.module.factors)
    if order == list(range(len(order))):
        return f
    return _permuted_sum((f,), order)


def coefficient_change(form, new_coef, alpha):
    """Post-compose the pairing with a coefficient isomorphism
    alpha: (I, i) -> (I', i'); the commuting square is validated before
    any entry is touched."""
    J = check_coefficient_iso(form.coef, new_coef, alpha)
    I1 = form.coef.module
    I2 = new_coef.module
    gram = [[I2.from_vec(J.apply(I1.to_vec(e))) for e in row] for row in form.gram]
    return HermitianForm(new_coef, form.module, gram, form.epsilon)


def diagonal_form(coef, entries, epsilon=1, shape=None):
    """<a_1, ..., a_n> on a free module (or on the given cyclic shape)."""
    rwi = coef.rwi
    module = free_module(rwi, len(entries)) if shape is None else module_from_shape(rwi, shape)
    if len(module.factors) != len(entries):
        raise FormMismatch("entry count does not match the shape")
    I = coef.module
    gram = [[I.scal(rwi.ring.el(entries[i]), I.element([rwi.ring.one])) if i == j else I.zero()
             for j in range(len(entries))] for i in range(len(entries))]
    return HermitianForm(coef, module, gram, epsilon)


def hyperbolic_form(coef, N, epsilon=1):
    """H(N) on N + D(N): b((x,f),(y,g)) = g(x) + epsilon i(f(y))."""
    dual = coef.dual(N)
    DN = dual.module
    rwi = coef.rwi
    module = rwi.module([f.ann for f in N.factors] + [f.ann for f in DN.factors])
    I = coef.module
    n = len(N.factors)
    ngens = N.generators()
    dgens = DN.generators()
    eps = rwi.ring.el(epsilon)

    def entry(i, j):
        if i < n and j < n:
            return I.zero()
        if i >= n and j >= n:
            return I.zero()
        if i < n:
            # b((g_i, 0), (0, d_{j-n})) = d_{j-n}(g_i)
            return dual.eval(dgens[j - n], ngens[i])
        # b((0, d_{i-n}), (g_j, 0)) = epsilon i(d_{i-n}(g_j))
        return I.scal(eps, coef.i(dual.eval(dgens[i - n], ngens[j])))

    gram = [[entry(i, j) for j in range(n + len(dgens))] for i in range(n + len(dgens))]
    return HermitianForm(coef, module, gram, epsilon)


# ---------------------------------------------------------------------------
# isometry and metabolicity
#
# isometric backtracks over generator images; is_metabolic makes one
# forward pass over the isotropic vectors, which decides on every ring
# once the coefficient is a strong duality (see its docstring).
#
# Both searches run on integer coordinate vectors mod p.  Element k of a
# module is the tuple of base-p digits of k, most significant first, which
# is the itertools.product order; the coordinate Gram tensor is tabulated
# once per form, and so is b(x, x) of every element of a plain form; spans
# are tracked in a linalg.Echelon over the prime field, on those same ints,
# and grown by the products of a vector with the scalar basis
# (_closure_rows), the vector itself standing for the product with
# whichever basis element acts as the identity.
#
# Both read their candidates (generator images for isometric, isotropic
# vectors for is_metabolic) through one walker, _candidates: the solutions,
# in index order, of an Echelon system of linear conditions (_condition)
# whose norm is a target.  A norm is one int, the _code of its
# I-coordinates, and the walker reads it through the form's _norm_reader as
# a sum of its leaves' table entries, one _adds row lookup per leaf after
# the first.  One odometer walks every system on every form; it never
# decodes an index and no module lists its elements; the tables still
# need a finite scalar field.
#
# isometric keeps the conditions for the annihilator of factor i on f2's
# module (_ann_rows); each level copies them and adds one condition per
# coordinate of I for each image placed.  With no condition at all (level
# 0 of a free factor) the walk reads every element.  The targets are
# f1's Gram table: the generators are unit vectors and Gram entries are
# stored reduced, so b1(g_j, g_i) is entry (j, i).  Over a field, by
# Witt's extension theorem, the first candidate that meets every
# condition extends when f1 and f2 are nondegenerate.  On a degenerate f1
# the radical test (an isometry maps radical onto radical) rejects a wrong
# image of a radical generator at once, not after every later level.
#
# Both searches read linear conditions from _functional(y): the values
# b(y, e_c) on the scalar basis, as one column per coordinate of I, so
# that each coordinate of b(y, x) is one sum(map(mul, x, col)) mod p.
# isometric turns the columns of each placed image into conditions on the
# next images; is_metabolic turns the columns of every row of its
# isotropic span L into the conditions b(r, x) = 0 that cut out L-perp.
#
# A form built by orthogonal_sum or canonical_order carries its summands
# and its factor order (_parts).  Its tables are composed from the
# summands' tables, which are built once and kept on the summands:
#   - norm_fingerprint: the convolution of the summands' count tables;
#   - _norm_reader: its leaves' norm tables, each coordinate weighted by
#     its place in its own leaf's table; it builds no table of its own;
#   - _coord_tensor: the block diagonal of the summands' tensors, permuted
#     by the coordinate permutation;
#   - gram_key: the summands' keys, zero off the diagonal blocks, never
#     coerced again.
# Every other form (a block, a hyperbolic form, a form built from a Gram
# table, a transfer, whose Gram key transfer_form computes from the source
# form's tensor) computes its tables from its own Gram key: the tensor as
# the raw action of the module's kept sigma(r1) r2 on key (i, j) for factor
# representatives r1 and r2, the norm table by prefix recursion over that
# tensor, the fingerprint by counting the table.  Every form, composed or
# not, decides is_nondegenerate on its own tensor and on the kernels of
# its annihilators in I, never through the dual module or its summands.


def _scalar_action_ints(module):
    """The integer action matrices of the scalar basis of the ring, the
    module's raw action rows (_act_rows), None in place of the identity
    matrix: the basis element 1 over fields and k[t]/(t^n); over k x k,
    whose basis is the idempotents, one of them on a module with factors
    of one kind only.  _closure_rows takes the vector itself there
    instead of a product."""
    if getattr(module, "_intact", None) is None:
        ident = [[int(i == j) for j in range(module.sdim)] for i in range(module.sdim)]
        mats = (module._act_rows(d) for d in module.ring.scalar_basis())
        module._intact = [None if m == ident else m for m in mats]
    return module._intact


def _mat_vec(mat, vec, p):
    return tuple(sum(map(mul, r, vec)) % p for r in mat)


def _coord_order(form):
    """The scalar coordinate permutation of a composed form: its
    coordinate a is coordinate perm[a] of the summands' coordinates taken
    one summand after another."""
    summands, order = form._parts
    spans = []
    off = 0
    for f in summands:
        for fac in f.module.factors:
            spans.append(range(off, off + fac.sdim))
            off += fac.sdim
    return [c for k in order for c in spans[k]]


class _AddRows(dict):
    """Row a lists the code of a + b for every code b (coordinates added
    mod p), built on first read."""

    def __init__(self, p, isd):
        super().__init__()
        self.p = p
        self.isd = isd

    def __missing__(self, a):
        p = self.p
        row = [0]
        for i in range(self.isd):
            digit = a // p ** (self.isd - 1 - i) % p
            sums = [*range(digit, p), *range(digit)]
            row = [r * p + s for r in row for s in sums]
        self[a] = row
        return row


def _adds(I):
    """The _AddRows of the codes of the coefficient module I; kept on I."""
    if getattr(I, "_addrows", None) is None:
        I._addrows = _AddRows(I.F.p, I.sdim)
    return I._addrows


def _code(vec, p):
    """The code of an I-coordinate tuple: its base-p digits, most
    significant first, so that numeric order is tuple order."""
    code = 0
    for v in vec:
        code = code * p + v
    return code


def _norm_table(form):
    """The code (_code) of b(x,x) for every x in M: entry k is the norm of
    element k, whose coordinates are the base-p digits of k.  Built by
    prefix recursion over the coordinate tensor: O(p^d) with small
    per-node cost instead of O(p^d d^2).  Only plain forms build one; a
    composed form reads its leaves' tables (_norm_reader)."""
    if form._ntab is not None:
        return form._ntab
    M = form.module
    p = M.F.p
    d = M.sdim
    isd = form.coef.module.sdim
    bt = form._coord_tensor()
    # b(e_k, e_c) + b(e_c, e_k), the coefficient of x_k x_c in b(x, x)
    cross = [[[a + b for a, b in zip(bt[k][c], bt[c][k])] for c in range(d)] for k in range(d)]
    out = []

    def rec(k, acc, lin):
        if k == d:
            out.append(_code([a % p for a in acc], p))
            return
        rec(k + 1, acc, lin)  # x_k = 0
        diag, lin_k, cross_k = bt[k][k], lin[k], cross[k]
        for xv in range(1, p):
            acc2 = [a + xv * u + xv * xv * t for a, u, t in zip(acc, lin_k, diag)]
            lin2 = list(lin)
            for c in range(k + 1, d):
                lin2[c] = [u + xv * t for u, t in zip(lin[c], cross_k[c])]
            rec(k + 1, acc2, lin2)

    rec(0, [0] * isd, [[0] * isd for _ in range(d)])
    # prefix recursion emits x_k = 0 first, then 1..p-1, which is exactly
    # the index order
    form._ntab = out
    return out


def _norm_reader(form):
    """(tables, where, adds), kept on the form: how _candidates reads the
    norm of a point.  tables are the _norm_table codes of the form's
    leaves, the plain forms it is built from (through nested parts);
    where[a] is (leaf, weight) for module coordinate a, the weight being
    the coordinate's place value p^(d_leaf-1-a_leaf) in its leaf's table;
    adds are the _adds rows of I.  The norm of x is the sum over the
    leaves of their entries at the indices the weights give, since
    b(x+y, x+y) = b(x,x) + b(y,y) when x is orthogonal to y."""
    if form._reader is None:
        p = form.module.F.p
        if form._parts is None:
            d = form.module.sdim
            tables = [_norm_table(form)]
            where = [(0, p ** (d - 1 - a)) for a in range(d)]
        else:
            tables, where = [], []
            for f in form._parts[0]:
                ts, ws, _ = _norm_reader(f)
                where += [(leaf + len(tables), w) for leaf, w in ws]
                tables += ts
            where = [where[c] for c in _coord_order(form)]
        form._reader = (tables, where, _adds(form.coef.module))
    return form._reader


def _fingerprint(form):
    """norm_fingerprint, memoized on the form; the summands of a composed
    form are read through here too."""
    if form._fp is None:
        if not form.module.F.is_finite:
            raise EnumerationBoundExceeded(f"{form.ring} modules are not enumerable")
        if form._parts is None:
            form._fp = tuple(sorted(Counter(_norm_table(form)).items()))
        else:
            adds = _adds(form.coef.module)
            summands = form._parts[0]
            counts = dict(_fingerprint(summands[0]))
            for f in summands[1:]:
                table = _fingerprint(f)
                conv = Counter()
                for a, m in counts.items():
                    row = adds[a]
                    for b, n in table:
                        conv[row[b]] += m * n
                counts = conv
            form._fp = tuple(sorted(counts.items()))
    return form._fp


def _condition(col, t):
    """The row of the linear condition sum(x[c] col[c]) = t mod p, as
    _candidates reads it: [col[d-1], ..., col[0], t]."""
    return [*col[::-1], t]


def _ann_rows(module, ann):
    """The conditions for being killed by ann, one per raw action row of
    ann on the module (_act_rows), in an Echelon over the prime field;
    kept on the module per ann."""
    memo = getattr(module, "_annrows", None)
    if memo is None:
        memo = module._annrows = {}
    if ann.data not in memo:
        rows = Echelon(module.F)
        if not ann.is_zero():  # 0 kills everything: no condition
            for row in module._act_rows(ann.data):
                rows.insert(_condition(row, 0))
        memo[ann.data] = rows
    return memo[ann.data]


def _candidates(system, reader, target, d, p):
    """The coordinate tuples x in F_p^d, in index order, that meet every
    _condition in the Echelon system and whose norm, as the _norm_reader
    reader sums it, is the code target; nothing when the conditions are
    inconsistent.

    A condition lists its columns backwards, so each reduced row solves
    for the last coordinate it involves.  The solutions are then base +
    span(dirs), one direction v_q per coordinate q that no row solves for:
    v_q[q] = 1, v_q is 0 at every other such coordinate and before q, and
    base is 0 at all of them.  The dirs are in reduced echelon form with
    leading pivots, x[q] is the coefficient on v_q, and so the coefficient
    tuples in itertools.product order give the solutions in index
    order.  With no condition the dirs are the unit vectors, and the walk
    reads every element in index order."""
    tables, where, adds = reader
    rows = system.rows
    if rows and rows[-1][0] == d:
        return  # a row reduced to 0 = t with t != 0
    solved = [(d - 1 - piv, row) for piv, row in rows]
    base = [0] * d
    for c, row in solved:
        base[c] = row[d]
    dirs = []
    for q in sorted(set(range(d)).difference(c for c, _ in solved)):
        v = [0] * d
        v[q] = 1
        for c, row in solved:
            v[c] = -row[d - 1 - q] % p
        dirs.append(v)
    # the coefficient tuples in itertools.product order, as an odometer:
    # moving digit j on by one, from p - 1 back to 0 included, adds v_j to
    # x, so only the entries of x (and the index into its leaf's table)
    # where v_j is nonzero change; tails[j] holds the moves of digit j and
    # of every later digit, which wraps
    moves = [[(c, a, *where[c]) for c, a in enumerate(v) if a] for v in dirs]
    tails = [sum(moves[j:], []) for j in range(len(moves))]
    x = base
    ks = [0] * len(tables)
    for c, a in enumerate(x):
        leaf, w = where[c]
        ks[leaf] += a * w
    first = tables[0]
    rest = list(enumerate(tables))[1:]
    digits = [0] * len(dirs)
    top = len(dirs) - 1
    while True:
        v = first[ks[0]]
        for i, table in rest:
            v = adds[v][table[ks[i]]]
        if v == target:
            yield tuple(x)
        j = top
        while j >= 0 and digits[j] == p - 1:
            digits[j] = 0
            j -= 1
        if j < 0:
            return
        digits[j] += 1
        for c, a, leaf, w in tails[j]:
            new = (x[c] + a) % p
            ks[leaf] += w * (new - x[c])
            x[c] = new


def _functional(bt, vec, d, isd, p):
    """b(vec, e_c) for every scalar basis vector e_c, as isd int columns
    mod p: entry c of column s is coordinate s of b(vec, e_c)."""
    rows = [(a, bt[i]) for i, a in enumerate(vec) if a]
    return [tuple([sum([a * row[c][s] for a, row in rows]) % p for c in range(d)])
            for s in range(isd)]


def _closure_rows(rows, vec, actmats, p):
    """A copy of the Echelon rows grown by the R-span of vec, the products
    of vec with the _scalar_action_ints matrices inserted in their order
    (vec itself for None); also the number of dimensions gained."""
    new_rows = rows.copy()
    added = 0
    for m in actmats:
        if new_rows.insert(vec if m is None else _mat_vec(m, vec, p)):
            added += 1
    return new_rows, added


def isometric(f1, f2):
    """An isometry f1 -> f2 as a list of generator images, or None.  Image
    i is the image of generator i of f1.module as an integer coordinate
    tuple mod p, as _candidates yields the elements of f2.module; the
    element itself is f2.module.from_vec of those coordinates as scalars.

    Backtracking over images of the cyclic generators of f1.module.  Image
    i must be killed by the annihilator of factor i and match f1's Gram
    entries (j, i) against the images j < i already placed; both
    conditions are linear in its coordinates, and _candidates walks their
    solutions whose norm in f2's _norm_reader is the _code of f1's Gram
    entry (i, i), in index order.  Image i must also keep the partial map
    injective, and lie in the radical of f2 exactly when generator i lies
    in that of f1."""
    if f1.coef != f2.coef or f1.epsilon != f2.epsilon:
        return None
    if f1.module.key != f2.module.key:
        return None
    M1, M2 = f1.module, f2.module
    if M1.sdim == 0:
        return []
    F = M1.F
    if not F.is_finite:
        raise EnumerationBoundExceeded("isometry search needs a finite scalar field")
    p = F.p
    isd = f1.coef.module.sdim
    d = M2.sdim
    n = len(M1.factors)
    # the generators are unit vectors, so b1(g_j, g_i) is Gram entry (j, i)
    cross_t = f1.gram_key()
    targets = [_code(cross_t[i][i], p) for i in range(n)]
    reader = _norm_reader(f2)
    ann_rows = [_ann_rows(M2, fac.ann) for fac in M1.factors]
    bt = f2._coord_tensor()
    actmats = _scalar_action_ints(M2)
    sdims = [fac.sdim for fac in M1.factors]
    # g_i is in the radical of f1 when its Gram row is zero
    live = [any(map(any, row)) for row in cross_t]
    placed = []
    funcs = []  # per placed image: the columns of b2(img, -)

    def candidates(i):
        system = ann_rows[i].copy()
        for j, cols in enumerate(funcs):
            for col, t in zip(cols, cross_t[j][i]):
                system.insert(_condition(col, t))
        return _candidates(system, reader, targets[i], d, p)

    def extend(i, rows):
        if i == n:
            return True
        for cand in candidates(i):
            new_rows, added = _closure_rows(rows, cand, actmats, p)
            if added != sdims[i]:
                continue  # partial map would not be injective
            func = _functional(bt, cand, d, isd, p)
            if any(map(any, func)) != live[i]:
                continue  # an isometry maps the radical onto the radical
            placed.append(cand)
            funcs.append(func)
            if extend(i + 1, new_rows):
                return True
            placed.pop()
            funcs.pop()
        return False

    if extend(0, Echelon(F)):
        return placed
    return None


def is_metabolic(form):
    """Whether form has a Lagrangian: a submodule L totally isotropic with
    |L|^2 = |M| (for a nondegenerate form that forces L = L-perp).

    One forward pass builds a maximal totally isotropic submodule L.  It
    starts from 0 and takes the isotropic vectors in index order; a
    vector outside L and orthogonal to it grows L by its R-span.  The
    vectors orthogonal to L are L-perp, the solutions of b(r, x) = 0 for
    the rows r of L, so the pass walks the isotropic ones of L-perp
    (_candidates), takes the first one outside L, and walks the new
    L-perp from the start each time L grows (a vector is isotropic when
    its _norm_reader norm is the code 0).  That takes the same vectors,
    in the same order, as one walk over every element: each
    index below the last vector taken was passed over for a reason that
    lasts as L grows (it is anisotropic, not orthogonal to L, or in L),
    so only vectors already in L come round again, and the walk skips
    them.  At the end L-perp/L has no nonzero isotropic vector.

    By the sublagrangian lemma, L-perp/L is metabolic whenever M is
    (Quebbemann, Scharlau and Schulte, J. Algebra 59 (1979); Balmer,
    "Witt groups", Handbook of K-theory (2005), section 1); a metabolic
    form with no nonzero isotropic vector is 0.  So M is metabolic
    exactly when L = L-perp, that is when L reaches half the scalar
    dimension.  Over a field this is Witt's theorem.

    The lemma needs an exact, reflexive duality.  The guard is
    coef.require_strong(epsilon), which raises NotStrongDuality unless the
    coefficient is reflexive on every indecomposable.  On the rings with a
    module theory a strong coefficient is also exact: fields and k x k
    are semisimple; over k[t]/(t^n), reflexivity on k gives I a simple
    socle, so I embeds in the injective hull E(k), and reflexivity on R
    gives length End(I) = length R = length E(k), so I = E(k)."""
    M = form.module
    if M.sdim == 0:
        return True
    if M.sdim % 2 == 1:
        return False
    form.require_nondegenerate()
    F = M.F
    if not F.is_finite:
        raise EnumerationBoundExceeded("metabolicity search needs a finite scalar field")
    form.coef.require_strong(form.epsilon)
    p = F.p
    d = M.sdim
    half = d // 2
    if half % simple_scalar_dim(M.ring):
        return False  # a submodule's scalar dimension is a whole length
    isd = form.coef.module.sdim
    bt = form._coord_tensor()
    actmats = _scalar_action_ints(M)
    reader = _norm_reader(form)
    rows = Echelon(F)  # L
    conds = Echelon(F)  # b(r, x) = 0 for every row r of L: x in L-perp
    while True:
        x = next((x for x in _candidates(conds, reader, 0, d, p) if not rows.contains(x)), None)
        if x is None:
            return False
        rows, _ = _closure_rows(rows, x, actmats, p)
        if len(rows.rows) == half:
            return True
        conds = Echelon(F)
        for _, r in rows.rows:
            for col in _functional(bt, r, d, isd, p):
                conds.insert(_condition(col, 0))
