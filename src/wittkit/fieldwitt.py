"""Diagonalization and classical invariants over fields with involution.

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

from .errors import (
    Degenerate,
    EngineError,
    EntryNotRational,
    NotDiagonalizable,
    UnsupportedField,
)
from .forms import HermitianForm
from .linalg import Matrix, span_basis, svec_matrix_of_additive_map
from .rings import Element, QuadraticField, Rationals


def _require_field_model(form):
    ring = form.ring
    if not ring.is_field:
        raise UnsupportedField(f"{ring} is not a field")
    I = form.coef.module
    if len(I.factors) != 1 or not I.factors[0].ann.is_zero():
        raise UnsupportedField("field-level invariants need a free rank-1 coefficient")


def _antifixed(rwi):
    """An element with sigma(w) = -w, or None when sigma is trivial."""
    if rwi.is_trivial():
        return None
    ring = rwi.ring
    m = svec_matrix_of_additive_map(ring, ring, rwi.conj)
    ns = (m + Matrix.identity(ring.scalar_field(), m.nrows)).nullspace_basis()
    if not ns:
        return None
    return Element(ring, ring.from_svec(tuple(c.data for c in ns[0])))


def _pivot_schedule(rwi):
    ring = rwi.ring
    if ring.is_finite:
        return [e for e in ring.elements() if not e.is_zero()]
    out = [ring.el(a) for a in (1, -1, 2, -2, 3)]
    w = _antifixed(rwi)
    if w is not None:
        out.extend([w, -w, w + w])
    return out


def _norm_schedule(rwi):
    """Rescaling candidates mu; the orbit entry is lambda . mu sigma(mu)."""
    ring = rwi.ring
    if ring.is_finite:
        return [e for e in ring.elements() if not e.is_zero()]
    out = [ring.el(a) for a in (1, 2, 3, Fraction(1, 2), Fraction(1, 3))]
    w = _antifixed(rwi)
    if w is not None:
        half = ring.el(Fraction(1, 2))
        base = list(out)
        for u in base:
            out.append(u + w)
            out.append((u + w) * half)
        out.append(w)
    return out


def _entry_key(ring, lam):
    """Height order used to pick the canonical rescaled entry."""
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


def _canonical_rescale(rwi, v, lam, scal):
    """Replace (v, lambda) by (mu.v, N(mu).lambda) minimizing the entry key."""
    ring = rwi.ring
    best = (v, lam)
    best_key = _entry_key(ring, lam)
    for mu in _norm_schedule(rwi):
        lam2 = rwi.conj(mu) * lam * mu
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

    def val(x, y):
        return form.evaluate(x, y)[0]

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
                    for t in _pivot_schedule(rwi):
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
        v, lam = _canonical_rescale(rwi, v, lam, M.scal)
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


def _rational_entry(e):
    if isinstance(e, Element):
        if isinstance(e.ring, QuadraticField):
            a, b = e.data
            if b != 0:
                raise EntryNotRational(f"{e!r} has a sqrt component")
            return a
        if isinstance(e.ring, Rationals):
            return e.data
        raise EntryNotRational(f"{e!r} does not live in a rational model")
    return Fraction(e)


def signature(form_or_entries):
    """Counts (p, n) of positive and negative diagonal entries; the Witt
    class invariant of the complex-conjugation model is p - n."""
    if isinstance(form_or_entries, HermitianForm):
        form = form_or_entries
        _require_field_model(form)
        ring = form.ring
        if not (isinstance(ring, QuadraticField) and ring.d < 0):
            raise UnsupportedField(f"signature needs QQ(sqrt(d)), d < 0, not {ring}")
        if form.coef.rwi.is_trivial():
            raise UnsupportedField("signature needs the conjugation involution")
        entries = diagonalize(form)[0]
    else:
        entries = form_or_entries
    p = n = 0
    for e in entries:
        q = _rational_entry(e)
        if q == 0:
            raise Degenerate("zero diagonal entry")
        if q > 0:
            p += 1
        else:
            n += 1
    return (p, n)


def _finite_is_square(ring, x):
    q = ring.size()
    acc = ring.one
    for _ in range((q - 1) // 2):
        acc = acc * x
    return acc == ring.one


def _finite_canonical_unit(ring, x):
    """First element in enumeration order of the orbit x . {mu^2}."""
    orbit = set()
    for e in ring.elements():
        if e.is_zero():
            continue
        orbit.add((x * (e * e)).data)
    for e in ring.elements():
        if e.data in orbit:
            return e
    raise EngineError("unit orbit missed every field element")


def witt_invariants(form):
    """Rank parity, discriminant class, and signature where defined.

    The record separates Witt classes over the supported models: finite
    fields with trivial involution (parity + signed discriminant), finite
    quadratic extensions with Frobenius (parity alone), QQ(i) as the
    complex model with trivial involution (parity alone), and QQ(sqrt(d)),
    d < 0, with conjugation (signature)."""
    _require_field_model(form)
    if form.epsilon != 1:
        raise UnsupportedField("invariants are defined for eps = +1 forms")
    ring = form.ring
    rwi = form.coef.rwi
    entries, _ = diagonalize(form)
    m = len(entries)
    rec = {"rank": m, "rank_mod_2": m % 2, "discriminant": None, "signature": None}
    sdet = ring.one
    for e in entries:
        sdet = sdet * e
    if (m * (m - 1) // 2) % 2 == 1:
        sdet = -sdet
    if ring.is_finite:
        if rwi.is_trivial():
            rec["discriminant"] = _finite_canonical_unit(ring, sdet)
            rec["witt_trivial"] = m % 2 == 0 and _finite_is_square(ring, sdet)
        else:
            # every fixed-field unit is a norm, so the class carries nothing
            rec["discriminant"] = ring.one
            rec["witt_trivial"] = m % 2 == 0
        return rec
    if isinstance(ring, QuadraticField) and ring.d < 0:
        if rwi.is_trivial():
            if ring.d != -1:
                raise UnsupportedField(
                    "the complex model with trivial involution is QQ(i)"
                )
            rec["discriminant"] = ring.one
            rec["witt_trivial"] = m % 2 == 0
            return rec
        sig = signature(entries)
        rec["signature"] = sig
        rec["discriminant"] = ring.el(1 if _rational_entry(sdet) > 0 else -1)
        rec["witt_trivial"] = sig[0] == sig[1]
        return rec
    raise UnsupportedField(f"no invariant set for {ring} with this involution")
