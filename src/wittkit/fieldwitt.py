"""Diagonalization over fields with involution.

Everything here works on forms whose base ring is a field and whose
coefficient module is free of rank one, so Gram values are read as ring
elements through the coefficient generator.  Diagonal entries come out of
hermitian Gram-Schmidt and are then rescaled along the orbit
lambda |-> N(mu).lambda (mu running through a small deterministic
schedule) to a canonical representative: the first orbit element in
enumeration order for finite fields, the squarefree integer part over the
rationals, and the smallest-height hit over quadratic fields.  Rescaling
is a genuine isometry (v |-> mu.v), so the returned change of basis still
satisfies the congruence identity exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EngineError, NotDiagonalizable, UnsupportedField
from .linalg import Matrix, span_basis
from .modules import map_matrix
from .rings import Rationals


def _require_field_model(form):
    ring = form.ring
    if not ring.is_field:
        raise UnsupportedField(f"{ring} is not a field")
    I = form.coef.module
    if len(I.factors) != 1 or not I.factors[0].ann.is_zero():
        raise UnsupportedField("diagonalize needs a free rank-1 coefficient")


def _antifixed(rwi):
    """An element with sigma(w) = -w, or None when sigma is trivial."""
    if rwi.is_trivial():
        return None
    ring = rwi.ring
    S1 = rwi.module([ring.zero])
    m = map_matrix(S1, S1, lambda x: (rwi.conj(x[0]),))
    ns = (m + Matrix.identity(S1.F, S1.sdim)).nullspace_basis()
    if not ns:
        return None
    return S1.from_vec(ns[0])[0]


def _pivot_schedule(ring, w):
    """Steering scalars t for v = x + t y; w is _antifixed, read over an
    infinite ring only."""
    if ring.is_finite:
        return [e for e in ring.elements() if not e.is_zero()]
    out = [ring.el(a) for a in (1, -1, 2, -2, 3)]
    if w is not None:
        out.extend([w, -w, w + w])
    return out


def _norm_schedule(rwi, w):
    """Rescaling candidates mu with their norms N(mu) = sigma(mu) mu; the
    orbit entry is lambda . N(mu).  w is _antifixed, read over an
    infinite ring only."""
    ring = rwi.ring
    if ring.is_finite:
        out = [e for e in ring.elements() if not e.is_zero()]
    else:
        out = [ring.el(a) for a in (1, 2, 3, Fraction(1, 2), Fraction(1, 3))]
        if w is not None:
            half = ring.el(Fraction(1, 2))
            base = list(out)
            for u in base:
                out.append(u + w)
                out.append((u + w) * half)
            out.append(w)
    return [(mu, rwi.conj(mu) * mu) for mu in out]


def _entry_key(ring, lam):
    """Height order used to pick the canonical rescaled entry.  The
    infinite fields are QQ and the degree-2 quotients QQ[g]/(f), whose
    elements a + b*g are coefficient pairs (a, b)."""
    if ring.is_finite:
        return ring.sort_key(lam.data)
    if isinstance(ring, Rationals):
        q = lam.data
        return (abs(q.denominator), abs(q.numerator), 0 if q > 0 else 1)
    a, b = lam.data
    return (
        abs(a.denominator) + abs(b.denominator),
        abs(a.numerator) + abs(b.numerator),
        0 if (b == 0 and a > 0) else 1,
    )


def _canonical_rescale(ring, v, lam, scal, norms):
    """Replace (v, lambda) by (mu.v, N(mu).lambda) minimizing the entry
    key, mu running through the (mu, N(mu)) pairs of norms."""
    best = (v, lam)
    best_key = _entry_key(ring, lam)
    for mu, n in norms:
        lam2 = lam * n
        k = _entry_key(ring, lam2)
        if k < best_key:
            best = (scal(mu, v), lam2)
            best_key = k
    return best


def diagonalize(form):
    """Diagonal entries and the change-of-basis witness.

    Returns (entries, cob): ring elements d_k and a matrix whose columns
    are the new basis in the original coordinates, so that the congruence
    sigma(C)^T . G . C is the diagonal matrix of the entries, where G is the
    ring-valued Gram matrix form.btensor()."""
    _require_field_model(form)
    rwi = form.coef.rwi
    ring = form.ring
    I = form.coef.module
    # forms with no anisotropic vectors at all: diagonal values live in
    # {v : v = eps.i(v)}, which is zero exactly in the alternating case
    diag_space = (
        Matrix.identity(I.F, I.sdim)
        - I.action_matrix(ring.el(form.epsilon)) * form.coef.imat
    ).nullspace_basis()
    if not diag_space and form.module.sdim > 0:
        raise NotDiagonalizable(
            f"eps={form.epsilon:+d} forms with this involution are alternating"
        )
    form.require_nondegenerate()
    M = form.module
    # the schedules are read over infinite rings only, and the norms are
    # taken once per call
    w = None if ring.is_finite else _antifixed(rwi)
    norms = _norm_schedule(rwi, w)

    # b is scalar-bilinear, so each Gram value comes from the coordinate
    # tensor; the free rank-1 coefficient reads it back as a ring element
    def val(x, y):
        return I.from_vec(form.eval_vecs(M.to_vec(x), M.to_vec(y)))[0]

    rem = list(M.generators())
    entries = []
    basis = []
    while rem:
        v = None
        for u in rem:
            if not val(u, u).is_zero():
                v = u
                break
        if v is None:
            # all diagonal values vanish: steer through a crossing pair
            found = False
            for a in range(len(rem)):
                for b in range(a + 1, len(rem)):
                    if val(rem[a], rem[b]).is_zero():
                        continue
                    for t in _pivot_schedule(ring, w):
                        cand = M.add(rem[a], M.scal(t, rem[b]))
                        if not val(cand, cand).is_zero():
                            v = cand
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if v is None:
                raise EngineError("nondegenerate complement without anisotropic vector")
        lam = val(v, v)
        v, lam = _canonical_rescale(ring, v, lam, M.scal, norms)
        basis.append(v)
        entries.append(lam)
        inv = lam.inverse()
        projected = [M.sub(w, M.scal(val(v, w) * inv, v)) for w in rem]
        rem = span_basis(projected, ring)
    order = sorted(range(len(entries)), key=lambda k: (_entry_key(ring, entries[k]), k))
    entries = [entries[k] for k in order]
    basis = [basis[k] for k in order]
    cob = Matrix.from_cols(ring, basis)
    return entries, cob
