"""Witt groups of finite rings with involution by explicit classification.

The engine enumerates isometry classes of nondegenerate epsilon-hermitian
forms shape by shape.  Single-factor shapes are classified exhaustively.
Larger shapes are generated by orthogonal sums of single-factor classes and
hyperbolic forms on indecomposables: over the rings supported here (finite
fields, k[t]/(t^n), k x k) every nondegenerate form splits orthogonally
into pieces with at most two cyclic factors, so this closure reaches every
class.  Only the blocks kept on their own shape are summed (a hyperbolic
block isometric to a sum met there first adds no class), and only the
shapes that sums of blocks reach are walked, since no other shape holds a
class.  The closure property is not taken on faith at runtime: class lookup
proceeds by fingerprint bucketing plus an honest backtracking isometry
search, and a form that matches no enumerated class raises EngineError
(tests also cross-validate against brute-force Gram enumeration on shapes
small enough to afford it).

The Witt group at a length bound b is presented by one generator per class
of length <= b and relations [m] = 0 for metabolic m and [c + blk] - [c] -
[blk] for each sum of a class and a block met by class enumeration within
b (_presentation_at).  The same pass presents bound b + 1; the result records
whether the inclusion of generators is an isomorphism (then bound-stable)."""

from __future__ import annotations

import itertools
from collections import Counter
from operator import mul

from .errors import (
    CoefficientMismatch,
    EngineError,
    EnumerationBoundExceeded,
    FormMismatch,
    InvalidBound,
    NotFinite,
)
from .forms import (
    _form_of_keys,
    canonical_order,
    is_metabolic,
    isometric,
    orthogonal_sum,
)
from .intsnf import PresentedGroup, hom_kernel_cokernel_trivial
from .linalg import Matrix
from .modules import indecomposable_factor_anns

# the most elements of a module, and of Gram tables on a factor, that class
# enumeration takes on (EnumerationBoundExceeded beyond)
MAX_SIZE = 400000


class WittEngine:
    def __init__(self, coef, epsilon):
        ring = coef.rwi.ring
        if not ring.is_finite:
            raise NotFinite(f"class enumeration needs a finite ring, not {ring}")
        self.coef = coef
        self.rwi = coef.rwi
        self.ring = ring
        self.epsilon = epsilon
        # key-sorted, so modules assembled from these anns in index order
        # come out in the canonical factor order
        facts = sorted((self.rwi.factor(a) for a in indecomposable_factor_anns(ring)),
                       key=lambda f: f.key)
        self._anns = [f.ann for f in facts]
        self._facts = facts
        self._ann_by_key = {f.key: f.ann for f in facts}
        coef.require_strong(epsilon)
        self._blocks = None
        self._classes = {}
        self._lookups = {}
        self._sums = {}

    # -- invariants, kept where computed (metabolic is asked once per class)
    def dual_of(self, module):
        return self.coef.dual(module)

    def fingerprint(self, form):
        return form.norm_fingerprint()

    def metabolic(self, form):
        return is_metabolic(form)

    # -- building blocks ---------------------------------------------------
    def one_factor_classes(self, ann):
        """Exhaustive classification on R/(ann): the nondegenerate forms
        among every Gram table on the module, one per isometry class."""
        module = self.rwi.module([ann])
        tables = enumerate_gram_tables(self.coef, module, self.epsilon)
        return self._distinct(f for f in tables if f.is_nondegenerate())[0]

    def _distinct(self, forms):
        """One form per isometry class among forms (the first met, sorted by
        fingerprint and Gram key) and the class each form was matched to,
        in the order met; each match is also lookup's answer for its form.
        Every form here is in canonical factor order already (a one-factor
        Gram table, an orthogonal_sum, or a block on its own canonical
        shape), so each is keyed as it is."""
        found = []
        matches = []
        for s in forms:
            fp = self.fingerprint(s)
            match = next((g for g in found
                          if self.fingerprint(g) == fp and isometric(s, g) is not None), None)
            if match is None:
                found.append(s)
                match = s
            self._lookups[_keypair(s)] = match
            matches.append(match)
        found.sort(key=lambda f: (self.fingerprint(f), f.gram_key()))
        return found, matches

    def blocks(self):
        """Forms that generate everything under orthogonal sums: all
        single-factor classes, then H(N) for each indecomposable N.
        _block_sums sums only those that enumeration keeps on their own
        shape; every single-factor class is kept there."""
        if self._blocks is None:
            out = []
            for a in self._anns:
                out.extend(self.one_factor_classes(a))
            for a in self._anns:
                N = self.rwi.module([a])
                h = canonical_order(self.coef.hyperbolic(N, self.epsilon))
                out.append(h.require_nondegenerate())
            self._blocks = out
        return self._blocks

    # -- shapes and classes ------------------------------------------------
    def shapes_up_to(self, bound):
        """Every shape of length <= bound, in (length, key) order."""
        return self._shapes_summing([(k,) for k in range(len(self._facts))], bound)

    def _block_shapes(self, bound):
        """The shapes of length <= bound that sums of blocks reach, in
        (length, key) order; no other shape holds a class."""
        index = {f.key: k for k, f in enumerate(self._facts)}
        parts = {tuple(index[f.key] for f in b.module.factors) for b in self.blocks()}
        return self._shapes_summing(sorted(parts), bound)

    def _shapes_summing(self, parts, bound):
        """The modules whose factors are a sum of parts (key-sorted tuples
        of indices into the factors, each part used any number of times)
        of length <= bound, in (length, key) order: an unbounded knapsack
        over the parts, one shape per multiset of factors."""
        lens = [f.length for f in self._facts]
        reached = {(): 0}
        frontier = [()]
        while frontier:
            grown = []
            for s in frontier:
                for p in parts:
                    t = tuple(sorted(s + p))
                    length = reached[s] + sum(lens[k] for k in p)
                    if length <= bound and t not in reached:
                        reached[t] = length
                        grown.append(t)
            frontier = grown
        mods = [self.rwi.module([self._anns[k] for k in s]) for s in reached if s]
        mods.sort(key=lambda m: (m.length, m.key))
        return mods

    def require_shapes_fit(self, bound):
        """Raise EnumerationBoundExceeded unless every module of
        shapes_up_to(bound) is within MAX_SIZE, which classes() would
        otherwise find out only after enumerating the smaller shapes.
        Uses the indecomposable factors alone: most[L] is the largest
        scalar dimension of a shape of length <= L (an unbounded
        knapsack), and the error names the size at the first length
        that overflows."""
        q = self.ring.scalar_field().size()
        most = [0]
        for total in range(1, bound + 1):
            most.append(max((most[total - f.length] + f.sdim
                             for f in self._facts if f.length <= total), default=0))
            if most[total] and q ** most[total] > MAX_SIZE:
                raise EnumerationBoundExceeded(
                    f"module of size {q ** most[total]} exceeds the engine limit {MAX_SIZE}"
                )

    def classes(self, module):
        order = sorted(range(len(module.factors)), key=lambda k: (module.factors[k].key, k))
        if order != list(range(len(module.factors))):
            module = self.rwi.module([module.factors[k].ann for k in order])
        if module.key in self._classes:
            return self._classes[module.key]
        if module.size() > MAX_SIZE:
            raise EnumerationBoundExceeded(
                f"module of size {module.size()} exceeds the engine limit {MAX_SIZE}"
            )
        if not module.factors:
            empty = _form_of_keys(self.coef, module, [], self.epsilon)
            self._classes[module.key] = [empty]
            return self._classes[module.key]
        pairs = list(self._block_sums(module))
        found, matches = self._distinct(_summed(module, c, blk) for c, blk in pairs)
        self._classes[module.key] = found
        self._sums[module.key] = [(g, c, b) for (c, b), g in zip(pairs, matches) if c.module.factors]
        return found

    def _block_sums(self, module):
        """Every kept block of blocks() that holds the first factor of
        module, paired with each class of the rest of module (the empty
        form when nothing is left): the summands of the sums that present
        module.  A block on a smaller shape is kept when it is the class
        that enumeration kept on that shape (classified first); a block
        that matched an earlier class there is isometric to a sum of kept
        blocks, and leaving it out loses no class (_presentation_at)."""
        pivot = module.factors[0].key
        skeys = Counter(f.key for f in module.factors)
        for blk in self.blocks():
            bkeys = Counter(f.key for f in blk.module.factors)
            if pivot not in bkeys or (bkeys - skeys):
                continue
            if blk.module.key != module.key:
                if blk.module.key not in self._classes:
                    self.classes(blk.module)
                if self._lookups[_keypair(blk)] is not blk:
                    continue
            rest = skeys - bkeys
            rest_anns = []
            for k, mult in sorted(rest.items()):
                rest_anns.extend([self._ann_by_key[k]] * mult)
            for c in self.classes(self.rwi.module(rest_anns)):
                yield c, blk

    def lookup(self, form):
        """The enumerated class isometric to form; EngineError on a miss,
        which would mean the sum closure missed a class.  The error names
        the shape, the form's fingerprint and how many classes of that
        shape shared it (each of those was searched).  The answer is kept
        per canonical form, so asking again runs no isometry search, nor
        does asking about a form that class enumeration met (_distinct)."""
        form = canonical_order(form)
        k = _keypair(form)
        if k in self._lookups:
            return self._lookups[k]
        fp = self.fingerprint(form)
        searched = 0
        for g in self.classes(form.module):
            if self.fingerprint(g) == fp:
                searched += 1
                if isometric(form, g) is not None:
                    self._lookups[k] = g
                    return g
        raise EngineError(
            f"no enumerated class matches a nondegenerate form on {form.module!r}; "
            "the orthogonal-sum closure is incomplete for this ring "
            f"(shape {list(form.shape())}, fingerprint {fp}; {searched} enumerated "
            "classes shared that fingerprint and were searched)"
        )


def group_name(factors):
    if not factors:
        return "0"
    parts = []
    for d in factors:
        parts.append("Z" if d == 0 else f"Z/{d}")
    return " x ".join(parts)


class WittGroupResult:
    def __init__(self, coef, epsilon, bound, classes, presentation, stable, engine):
        self.coef = coef
        self.epsilon = epsilon
        self.bound = bound
        self.classes = classes
        self.presentation = presentation
        self.factors = presentation.factors
        self.stable = stable
        self.engine = engine
        self._index = {(f.module.key, f.gram_key()): i for i, f in enumerate(classes)}

    def class_index(self, form):
        if form.coef != self.coef:
            raise CoefficientMismatch("form uses a different duality coefficient")
        if form.epsilon != self.epsilon:
            raise FormMismatch("form has the wrong symmetry sign")
        form.require_nondegenerate()
        if form.module.length > self.bound:
            raise EnumerationBoundExceeded(
                f"form length {form.module.length} exceeds the bound {self.bound}"
            )
        rep = self.engine.lookup(form)
        return self._index[(rep.module.key, rep.gram_key())]

    def describe(self):
        name = group_name(self.factors)
        tag = "stable" if self.stable else "unstable"
        return f"{name} ({tag})"

    def __repr__(self):
        return f"WittGroupResult({self.engine.ring}, eps={self.epsilon:+d}, bound={self.bound}: {self.describe()})"


def _presentation_at(engine, bound):
    """Presentations at bound and bound + 1 from one pass over the shapes
    up to bound + 1 that sums of blocks reach, and the classes generating
    the second (the first pres.ngens, of length <= bound, generate the
    first).  Columns: [m] for each metabolic class m and [cls(c + blk)] -
    [c] - [blk] for each sum c + blk, c nonempty, met by class enumeration
    (cls: the class _distinct matched a form to; blk is then a kept block
    of a smaller shape, its own class); at bound, those whose shape fits.

    No class is lost.  A block H left out on a larger shape matched, on
    its own shape, a class g = cls(c0 + b0) met before it, b0 a kept block
    holding H's first (pivot) factor; so c + H is isometric to
    cls(c + c0) + b0, met on the same shape before c + H would be, and
    every class keeps its first-met representative.  Each class is a sum
    of blocks, so a shape that no such sum reaches holds none.

    The columns span every pair relation [cls(f + g)] - [f] - [g] within
    the bound, and each column is one.  Every class g was kept from a sum
    on its shape, a kept blk alone (g = blk) or c + blk, blk holding the
    shape's pivot.  Induct on len f + len g; say the pivot P of
    shape(f + g) is in g, so it is g's pivot.  If g = blk, f + blk is met
    on shape(f + g).  Else g = cls(c + blk); h = cls(f + c) has [h] =
    [f] + [c] by induction, h + blk is met on shape(f + g) as blk holds P,
    and [cls(f + g)] = [h] + [blk] = [f] + [g]."""
    mods = engine._block_shapes(bound + 1)
    classes = [f for m in mods for f in engine.classes(m)]
    idx = {_keypair(f): i for i, f in enumerate(classes)}
    n = len(classes)
    cols = [(f.module.length, [int(j == i) for j in range(n)])
            for i, f in enumerate(classes) if engine.metabolic(f)]
    for m in mods:
        for match, c, blk in engine._sums[m.key]:
            col = [0] * n
            col[idx[_keypair(match)]] += 1
            col[idx[_keypair(c)]] -= 1
            col[idx[_keypair(blk)]] -= 1
            cols.append((m.length, col))
    k = sum(f.module.length <= bound for f in classes)
    pres = PresentedGroup(k, [col[:k] for length, col in cols if length <= bound])
    return pres, PresentedGroup(n, [col for _, col in cols]), classes


def _summed(module, c, blk):
    """c + blk on module, or blk alone when c is the empty form."""
    s = orthogonal_sum(c, blk) if c.module.factors else blk
    if s.module.key != module.key:
        raise EngineError("orthogonal sum landed on the wrong shape")
    return s


def _keypair(form):
    return (form.module.key, form.gram_key())


def require_valid_bound(bound):
    """InvalidBound for a length bound below 1."""
    if bound < 1:
        raise InvalidBound(f"the length bound must be at least 1, not {bound}")


def witt_group(coef, epsilon, bound):
    """The presented Witt group at the given length bound (at least 1).

    The result records whether its inclusion into the bound+1 presentation
    is an isomorphism; every shape that one needs is checked against
    MAX_SIZE before any class is enumerated."""
    require_valid_bound(bound)
    engine = WittEngine(coef, epsilon)
    engine.require_shapes_fit(bound + 1)
    pres, pres1, classes = _presentation_at(engine, bound)
    images = [[int(i == j) for i in range(pres1.ngens)] for j in range(pres.ngens)]
    ker, coker = hom_kernel_cokernel_trivial(pres, pres1, images)
    return WittGroupResult(coef, epsilon, bound, classes[:pres.ngens], pres, ker and coker, engine)


# ---------------------------------------------------------------------------
# Gram tables


def _gram_slots(coef, module, epsilon):
    """Free parameters of a Gram table: one slot per entry on or above the
    diagonal, each a scalar basis, as raw vectors, of the subspace allowed
    by the annihilator conditions (and epsilon-self-adjointness on the
    diagonal); below-diagonal entries are forced by symmetry."""
    I = coef.module
    F = I.F
    eps_el = coef.rwi.ring.el(epsilon)
    slots = []
    n = len(module.factors)
    for i in range(n):
        for j in range(i, n):
            fi, fj = module.factors[i], module.factors[j]
            conds = I.action_matrix(coef.rwi.conj(fi.ann)).vstack(I.action_matrix(fj.ann))
            if i == j:
                conds = conds.vstack(
                    Matrix.identity(F, I.sdim) - I.action_matrix(eps_el) * coef.imat
                )
            slots.append(((i, j), [tuple(c.data for c in b) for b in conds.nullspace_basis()]))
    return slots


def _gram_from_assignment(coef, module, epsilon, slots, assignment):
    """The form of one assignment of raw scalars to the slots' bases, set
    up on its Gram key: entry (i, j) is the combination of its slot's
    basis, entry (j, i) epsilon i of it, both on raw I-coordinates."""
    I = coef.module
    norm = I.F.normalize
    eps_i = [[epsilon * e.data for e in row] for row in coef.imat.rows]
    zero = (I.F.zero_data(),) * I.sdim
    n = len(module.factors)
    keys = [[zero] * n for _ in range(n)]
    for ((i, j), basis), combo in zip(slots, assignment):
        key = tuple(norm(sum(map(mul, combo, col))) for col in zip(*basis)) if basis else zero
        keys[i][j] = key
        if i != j:
            keys[j][i] = tuple(norm(sum(map(mul, row, key))) for row in eps_i)
    return _form_of_keys(coef, module, keys, epsilon)


def enumerate_gram_tables(coef, module, epsilon):
    """Every valid Gram table on the module, lazily; more than MAX_SIZE
    tables raise EnumerationBoundExceeded before the first."""
    F = coef.module.F
    slots = _gram_slots(coef, module, epsilon)
    total = 1
    for _, basis in slots:
        total *= F.size() ** len(basis)
    if total > MAX_SIZE:
        raise EnumerationBoundExceeded(f"{total} Gram tables exceed the limit {MAX_SIZE}")
    opts = [e.data for e in F.elements()]
    spaces = [list(itertools.product(opts, repeat=len(basis))) for _, basis in slots]
    for assignment in itertools.product(*spaces):
        yield _gram_from_assignment(coef, module, epsilon, slots, assignment)


def sample_gram_tables(coef, module, epsilon, count, rng):
    """count uniformly random valid Gram tables (seeded)."""
    F = coef.module.F
    slots = _gram_slots(coef, module, epsilon)
    opts = [e.data for e in F.elements()]
    for _ in range(count):
        assignment = [tuple(rng.choice(opts) for _ in basis) for _, basis in slots]
        yield _gram_from_assignment(coef, module, epsilon, slots, assignment)
