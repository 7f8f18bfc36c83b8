"""Epsilon-hermitian forms on finite-length modules.

A form is stored as a Gram table over the coefficient module: entries
b(g_i, g_j) for the cyclic generators g_i.  Sesquilinearity follows the
convention b(a x, y) = sigma(a) b(x, y), b(x, a y) = a b(x, y), and
epsilon-symmetry means b(y, x) = epsilon . i(b(x, y)).

Construction validates three things: the Gram entries are killed by the
factor annihilators on both slots (otherwise the table does not descend to
the quotients), epsilon-symmetry holds on every pair of scalar basis
vectors, and epsilon is +1 or -1.  Nondegeneracy is a separate predicate
(the adjoint into the dual module being bijective), since degenerate forms
are legitimate objects to build and then reject.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .coefficients import DualModule, check_coefficient_iso
from .errors import (
    CoefficientMismatch,
    Degenerate,
    EnumerationBoundExceeded,
    FormMismatch,
    NotEpsilonSymmetric,
    NotSesquilinear,
)
from .linalg import Matrix, matrix_of_map, unit_vector
from .modules import FLModule, free_module, module_from_shape


class HermitianForm:
    def __init__(self, coef, module, gram, epsilon, check=True):
        if module.rwi != coef.rwi:
            raise CoefficientMismatch("form module and coefficient disagree on the involution")
        self.coef = coef
        self.module = module
        self.ring = module.ring
        if epsilon not in (1, -1):
            raise FormMismatch(f"epsilon must be +1 or -1, got {epsilon!r}")
        self.epsilon = epsilon
        self.eps_el = self.ring.el(epsilon)
        n = len(module.factors)
        if len(gram) != n or any(len(row) != n for row in gram):
            raise FormMismatch("Gram table size does not match the number of cyclic factors")
        I = coef.module
        self.gram = [[self._coerce(I, e) for e in row] for row in gram]
        self._ctensor = None
        if check:
            self._validate()

    def _coerce(self, I, entry):
        if isinstance(entry, tuple) and len(entry) == len(I.factors):
            return I.element(entry)
        if len(I.factors) == 1:
            return I.element([self.ring.el(entry)])
        raise FormMismatch("Gram entry is not a coefficient-module element")

    def _validate(self):
        I = self.coef.module
        sig = self.coef.rwi.conj
        for i, fi in enumerate(self.module.factors):
            for j, fj in enumerate(self.module.factors):
                e = self.gram[i][j]
                if not I.is_zero(I.scal(sig(fi.ann), e)):
                    raise NotSesquilinear(
                        f"entry ({i},{j}) not killed by sigma(ann) of factor {i}"
                    )
                if not I.is_zero(I.scal(fj.ann, e)):
                    raise NotSesquilinear(
                        f"entry ({i},{j}) not killed by ann of factor {j}"
                    )
        F = self.module.F
        for c1 in range(self.module.sdim):
            x = self._coord_elem(c1)
            for c2 in range(self.module.sdim):
                y = self._coord_elem(c2)
                lhs = self.evaluate(y, x)
                rhs = I.scal(self.eps_el, self.coef.i(self.evaluate(x, y)))
                if lhs != rhs:
                    raise NotEpsilonSymmetric(
                        f"b(y,x) != epsilon i(b(x,y)) at coordinate pair ({c1},{c2})"
                    )

    def _coord_elem(self, c):
        return self.module.from_vec(unit_vector(self.module.F, self.module.sdim, c))

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
        if self._ctensor is None:
            d = self.module.sdim
            tab = []
            for c1 in range(d):
                x = self._coord_elem(c1)
                row = []
                for c2 in range(d):
                    y = self._coord_elem(c2)
                    row.append(self.coef.module.to_vec(self.evaluate(x, y)))
                tab.append(row)
            self._ctensor = tab
        return self._ctensor

    def eval_vecs(self, xv, yv):
        I = self.coef.module
        F = self.module.F
        tab = self._coord_tensor()
        out = [F.zero] * I.sdim
        for c1, a in enumerate(xv):
            if a.is_zero():
                continue
            for c2, b in enumerate(yv):
                if b.is_zero():
                    continue
                ab = a * b
                out = [o + ab * t for o, t in zip(out, tab[c1][c2])]
        return tuple(out)

    # -- structure ---------------------------------------------------------
    def adjoint(self, dual=None):
        """phi: M -> D(M), phi(y) = b(., y), as (DualModule, scalar matrix)."""
        dual = dual if dual is not None else DualModule(self.coef, self.module)
        F = self.module.F
        d = self.module.sdim

        def phi(yv):
            H = matrix_of_map(F, d, lambda xv: self.eval_vecs(xv, yv))
            return dual.module.to_vec(dual.element_of_hom(H))

        return dual, matrix_of_map(F, d, phi)

    def is_nondegenerate(self, dual=None):
        dual, mat = self.adjoint(dual)
        return dual.module.sdim == self.module.sdim and (
            self.module.sdim == 0 or mat.rank() == self.module.sdim
        )

    def require_nondegenerate(self, dual=None):
        if not self.is_nondegenerate(dual):
            raise Degenerate(f"form on {self.module!r} has a radical")
        return self

    def rank(self):
        return len(self.module.factors)

    def shape(self):
        return self.module.shape()

    def neg(self):
        I = self.coef.module
        g = [[I.neg(e) for e in row] for row in self.gram]
        return HermitianForm(self.coef, self.module, g, self.epsilon, check=False)

    def gram_key(self):
        I = self.coef.module
        return tuple(tuple(I.to_ints(e) if I.F.is_finite else tuple(c.data for c in I.to_vec(e))
                           for e in row) for row in self.gram)

    def __eq__(self, other):
        return (
            isinstance(other, HermitianForm)
            and self.coef == other.coef
            and self.module == other.module
            and self.epsilon == other.epsilon
            and self.gram == other.gram
        )

    def __hash__(self):
        return hash((self.coef, self.module, self.epsilon, self.gram_key()))

    def __repr__(self):
        return f"HermitianForm({self.ring}, shape={list(self.shape())}, eps={self.epsilon:+d})"

    # -- invariants --------------------------------------------------------
    def norm_fingerprint(self):
        """Multiset of b(x,x) over all of M, as a sorted count table; an
        isometry invariant used for fast separation."""
        I = self.coef.module
        if self.module.F.is_finite:
            return tuple(sorted(Counter(_norm_table(self)).items()))
        counts = Counter()
        for x in self.module.elements():
            counts[I.to_ints(self.evaluate(x, x))] += 1
        return tuple(sorted(counts.items()))


def orthogonal_sum(f1, f2):
    if f1.coef != f2.coef:
        raise CoefficientMismatch("orthogonal sum needs a common coefficient")
    if f1.epsilon != f2.epsilon:
        raise FormMismatch(f"cannot add eps={f1.epsilon:+d} and eps={f2.epsilon:+d} forms")
    anns = [f.ann for f in f1.module.factors] + [f.ann for f in f2.module.factors]
    keys = [f.key for f in f1.module.factors] + [f.key for f in f2.module.factors]
    order = sorted(range(len(anns)), key=lambda k: (keys[k], k))
    module = FLModule(f1.coef.rwi, [anns[k] for k in order])
    I = f1.coef.module
    n1 = len(f1.module.factors)

    def entry(i, j):
        if i < n1 and j < n1:
            return f1.gram[i][j]
        if i >= n1 and j >= n1:
            return f2.gram[i - n1][j - n1]
        return I.zero()

    gram = [[entry(order[a], order[b]) for b in range(len(order))] for a in range(len(order))]
    return HermitianForm(f1.coef, module, gram, f1.epsilon, check=False)


def canonical_order(f):
    """The same form with its cyclic factors permuted into the canonical
    (key-sorted) order used when comparing shapes."""
    factors = f.module.factors
    order = sorted(range(len(factors)), key=lambda k: (factors[k].key, k))
    if order == list(range(len(factors))):
        return f
    module = FLModule(f.module.rwi, [factors[k].ann for k in order])
    gram = [[f.gram[order[a]][order[b]] for b in range(len(order))] for a in range(len(order))]
    return HermitianForm(f.coef, module, gram, f.epsilon, check=False)


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


def hyperbolic_form(coef, N, epsilon=1, dual=None):
    """H(N) on N + D(N): b((x,f),(y,g)) = g(x) + epsilon i(f(y))."""
    dual = dual if dual is not None else DualModule(coef, N)
    DN = dual.module
    rwi = coef.rwi
    module = FLModule(rwi, [f.ann for f in N.factors] + [f.ann for f in DN.factors])
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
# Search runs entirely on integer coordinate vectors mod p: module elements
# and Gram values are tabulated once per form and cached, and spans are
# tracked with a small mod-p rref.  Both procedures need the module to be
# enumerable, so a finite scalar field is a hard requirement.


def _int_elements(module):
    if getattr(module, "_intel", None) is None:
        p = module.F.p
        module._intel = [v for v in itertools.product(range(p), repeat=module.sdim)]
    return module._intel


def _int_matrix(m):
    return [[e.data for e in row] for row in m.rows]


def _int_btensor(form):
    if getattr(form, "_ibt", None) is None:
        form._ibt = [[tuple(c.data for c in cell) for cell in row] for row in form._coord_tensor()]
    return form._ibt


def _scalar_action_ints(module):
    if getattr(module, "_intact", None) is None:
        from .rings import Element
        module._intact = [
            _int_matrix(module.action_matrix(Element(module.ring, d)))
            for d in module.ring.scalar_basis()
        ]
    return module._intact


def _mat_vec(mat, vec, p):
    return tuple(sum(r[i] * vec[i] for i in range(len(vec))) % p for r in mat)


def _norm_table(form):
    """b(x,x) as an I-coordinate int tuple for every x in M, in the order
    of _int_elements.  Built by prefix recursion: O(p^d) with small
    per-node cost instead of O(p^d d^2)."""
    if getattr(form, "_ntab", None) is not None:
        return form._ntab
    M = form.module
    p = M.F.p
    d = M.sdim
    isd = form.coef.module.sdim
    bt = _int_btensor(form)
    out = []

    def rec(k, acc, lin):
        if k == d:
            out.append(tuple(a % p for a in acc))
            return
        rec(k + 1, acc, lin)  # x_k = 0
        diag = bt[k][k]
        for xv in range(1, p):
            acc2 = [acc[s] + xv * lin[k][s] + xv * xv * diag[s] for s in range(isd)]
            lin2 = list(lin)
            for c in range(k + 1, d):
                lin2[c] = [lin[c][s] + xv * (bt[k][c][s] + bt[c][k][s]) for s in range(isd)]
            rec(k + 1, acc2, lin2)

    rec(0, [0] * isd, [[0] * isd for _ in range(d)])
    # prefix recursion emits x_k = 0 first, then 1..p-1, which is exactly
    # the itertools.product order used by _int_elements
    form._ntab = out
    return out


def _norm_index(form):
    if getattr(form, "_nidx", None) is None:
        idx = {}
        for k, v in enumerate(_norm_table(form)):
            idx.setdefault(v, []).append(k)
        form._nidx = idx
    return form._nidx


def _rref_reduce(rows, vec, p):
    v = list(vec)
    for piv, row in rows:
        c = v[piv]
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return v


def _rref_insert(rows, vec, p):
    """Insert vec into the fully reduced row list; returns False if vec was
    already in the span."""
    v = _rref_reduce(rows, vec, p)
    piv = next((k for k, c in enumerate(v) if c), None)
    if piv is None:
        return False
    inv = pow(v[piv], p - 2, p)
    v = [(c * inv) % p for c in v]
    for n, (q, row) in enumerate(rows):
        c = row[piv]
        if c:
            rows[n] = (q, [(a - c * b) % p for a, b in zip(row, v)])
    rows.append((piv, v))
    rows.sort(key=lambda r: r[0])
    return True


def _closure_rows(rows, vec, actmats, p):
    """New rref rows spanning the old span plus R.vec; also the number of
    dimensions gained."""
    new_rows = list(rows)
    added = 0
    for m in actmats:
        if _rref_insert(new_rows, _mat_vec(m, vec, p), p):
            added += 1
    return new_rows, added


def isometric(f1, f2):
    """An isometry f1 -> f2 as a list of generator images (elements of
    f2.module), or None.

    Backtracking over images of the cyclic generators of f1.module,
    constrained by annihilators, Gram values against already-placed
    generators, and injectivity of the partial map."""
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
    I = f1.coef.module
    isd = I.sdim
    d = M2.sdim
    gens1 = M1.generators()
    n = len(gens1)
    diag_t = [I.to_ints(f1.evaluate(g, g)) for g in gens1]
    cross_t = [[I.to_ints(f1.evaluate(gens1[j], gens1[i])) for i in range(n)] for j in range(n)]
    elems = _int_elements(M2)
    nidx = _norm_index(f2)
    annmats = [None if fac.ann.is_zero() else _int_matrix(M2.action_matrix(fac.ann))
               for fac in M1.factors]
    actmats = _scalar_action_ints(M2)
    pools = []
    for i, fac in enumerate(M1.factors):
        pool = []
        for k in nidx.get(diag_t[i], []):
            v = elems[k]
            if annmats[i] is not None and any(_mat_vec(annmats[i], v, p)):
                continue
            pool.append(v)
        if not pool:
            return None
        pools.append(pool)
    bt = _int_btensor(f2)
    sdims = [fac.sdim for fac in M1.factors]
    placed = []
    funcs = []  # per placed image: tuple over coords c of the I-value b2(img, e_c)

    def functional(img):
        out = []
        for c in range(d):
            acc = [0] * isd
            for i1, a in enumerate(img):
                if a:
                    cell = bt[i1][c]
                    for s in range(isd):
                        acc[s] += a * cell[s]
            out.append(tuple(x % p for x in acc))
        return out

    def extend(i, rows):
        if i == n:
            return True
        for cand in pools[i]:
            ok = True
            for j in range(len(placed)):
                fj = funcs[j]
                acc = [0] * isd
                for c, a in enumerate(cand):
                    if a:
                        cell = fj[c]
                        for s in range(isd):
                            acc[s] += a * cell[s]
                if tuple(x % p for x in acc) != cross_t[j][i]:
                    ok = False
                    break
            if not ok:
                continue
            new_rows, added = _closure_rows(rows, cand, actmats, p)
            if added != sdims[i]:
                continue  # partial map would not be injective
            placed.append(cand)
            funcs.append(functional(cand))
            if extend(i + 1, new_rows):
                return True
            placed.pop()
            funcs.pop()
        return False

    if extend(0, []):
        return [M2.from_ints(v) for v in placed]
    return None


def is_metabolic(form, dual=None):
    """Search for a Lagrangian: a submodule L totally isotropic with
    |L|^2 = |M| (for a nondegenerate form that forces L = L-perp).
    Breadth-first over totally isotropic submodules."""
    M = form.module
    if M.sdim == 0:
        return True
    if M.sdim % 2 == 1:
        return False
    form.require_nondegenerate(dual)
    F = M.F
    if not F.is_finite:
        raise EnumerationBoundExceeded("metabolicity search needs a finite scalar field")
    p = F.p
    d = M.sdim
    half = d // 2
    if M.ring.is_field and half % M.ring.scalar_dim():
        return False  # submodules are vector spaces over the ring itself
    isd = form.coef.module.sdim
    elems = _int_elements(M)
    norms = _norm_table(form)
    zero = (0,) * isd
    iso = [elems[k] for k, v in enumerate(norms) if v == zero and any(elems[k])]
    bt = _int_btensor(form)
    actmats = _scalar_action_ints(M)

    def row_funcs(rows):
        out = []
        for _, r in rows:
            func = []
            for c in range(d):
                acc = [0] * isd
                for i1, a in enumerate(r):
                    if a:
                        cell = bt[i1][c]
                        for s in range(isd):
                            acc[s] += a * cell[s]
                func.append(tuple(x % p for x in acc))
            out.append(func)
        return out

    def key_of(rows):
        return tuple((piv, tuple(r)) for piv, r in rows)

    frontier = [([], [])]
    seen = {key_of([])}
    while frontier:
        nxt = []
        for rows, funcs in frontier:
            for v in iso:
                if not any(_rref_reduce(rows, v, p)):
                    continue
                ok = True
                for func in funcs:
                    acc = [0] * isd
                    for c, a in enumerate(v):
                        if a:
                            cell = func[c]
                            for s in range(isd):
                                acc[s] += a * cell[s]
                    if any(x % p for x in acc):
                        ok = False
                        break
                if not ok:
                    continue
                rows2, _ = _closure_rows(rows, v, actmats, p)
                if len(rows2) > half:
                    continue
                if len(rows2) == half:
                    # totally isotropic with half the scalar dimension:
                    # nondegeneracy forces L = L-perp
                    return True
                k = key_of(rows2)
                if k in seen:
                    continue
                seen.add(k)
                nxt.append((rows2, row_funcs(rows2)))
        frontier = nxt
    return False
