"""Descriptor grammar for rings, involutions, elements and Gram tables.

Ring descriptors (whitespace optional, one expression per string):

    GF(3)                         prime field
    GF(9)/GF(3)                   finite field, base recorded for display
    QQ    QQ(i)    QQ(sqrt(-5))   rationals and quadratic fields
    GF(3)[t]/(t^2)                univariate quotient ring
    QQ[X,Y]                       polynomial ring
    GF(3)xGF(3)                   product ring

An involution clause may follow: either ", sigma=SPEC" or
"with sigma: SPEC", where SPEC is one of id / frobenius / swap / conj or a
list of generator assignments like "t -> -t, u -> u^3".  Towers for
transfer are written "R -> S" with the canonical map inferred (inclusion
of the prime field GF(p) or QQ, finite-field inclusion, or quotient
k[t]/(t^n) -> k[t]/(t^m)).

Errors raise ParseError with 1-based line and column.
"""

from __future__ import annotations

from .errors import ParseError, WittKitError
from .rings import (
    GF,
    PolynomialRing,
    PrimeField,
    ProductRing,
    QuadraticField,
    QuotientRing,
    Rationals,
    RingMap,
    identity_map,
    involution,
)

_PUNCT = ["->", "(", ")", "[", "]", ",", "/", "^", "+", "-", "*", "=", ":"]


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.value!r}@{self.line}:{self.col}"


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token("op", p, line, col))
                i += len(p)
                col += len(p)
                matched = True
                break
        if matched:
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            name = text[i:j]
            # product separator: x glued to a ring keyword, as in GF(3)xGF(3)
            if name != "x" and name.startswith("x") and name[1:] in ("GF", "QQ"):
                tokens.append(_Token("op", "x", line, col))
                tokens.append(_Token("name", name[1:], line, col + 1))
            else:
                tokens.append(_Token("name", name, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, k=0):
        return self.tokens[min(self.pos + k, len(self.tokens) - 1)]

    def next(self):
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_op(self, value, k=0):
        t = self.peek(k)
        return t.kind == "op" and t.value == value

    def at_name(self, value=None, k=0):
        t = self.peek(k)
        return t.kind == "name" and (value is None or t.value == value)

    def expect_op(self, value):
        t = self.next()
        if t.kind != "op" or t.value != value:
            raise ParseError(f"expected {value!r}, found {self._show(t)}", t.line, t.col)
        return t

    def expect_name(self, value=None):
        t = self.next()
        if t.kind != "name" or (value is not None and t.value != value):
            want = value or "a name"
            raise ParseError(f"expected {want!r}, found {self._show(t)}", t.line, t.col)
        return t

    def expect_int(self):
        t = self.next()
        if t.kind != "int":
            raise ParseError(f"expected an integer, found {self._show(t)}", t.line, t.col)
        return t

    def expect_eof(self):
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected trailing input {self._show(t)}", t.line, t.col)

    @staticmethod
    def _show(t):
        return "end of input" if t.kind == "eof" else repr(t.value)

    # -- ring descriptors -------------------------------------------------
    def parse_ring(self):
        ring = self.parse_atom()
        while self.at_op("x"):
            self.next()
            rhs = self.parse_atom()
            ring = ProductRing(ring, rhs)
        return ring

    def parse_atom(self):
        t = self.peek()
        if t.kind != "name":
            raise ParseError(f"expected a ring, found {self._show(t)}", t.line, t.col)
        if t.value == "GF":
            ring = self._parse_gf()
        elif t.value == "QQ":
            ring = self._parse_qq()
        else:
            raise ParseError(f"unknown ring constructor {t.value!r}", t.line, t.col)
        while self.at_op("["):
            ring = self._parse_suffix(ring)
        return ring

    def _parse_gf(self):
        t = self.expect_name("GF")
        self.expect_op("(")
        q = self.expect_int().value
        self.expect_op(")")
        try:
            ring = GF(q)
        except WittKitError as e:
            raise ParseError(str(e), t.line, t.col) from None
        if self.at_op("/") and self.at_name("GF", 1):
            self.next()
            self.expect_name("GF")
            self.expect_op("(")
            p = self.expect_int().value
            tp = self.expect_op(")")
            if p != ring.char:
                raise ParseError(
                    f"GF({q})/GF({p}): base must be the prime field GF({ring.char})",
                    tp.line, tp.col,
                )
        return ring

    def _parse_qq(self):
        t = self.expect_name("QQ")
        if not self.at_op("("):
            return Rationals()
        self.expect_op("(")
        if self.at_name("i"):
            self.next()
            self.expect_op(")")
            return QuadraticField(-1)
        self.expect_name("sqrt")
        self.expect_op("(")
        sign = 1
        if self.at_op("-"):
            self.next()
            sign = -1
        d = self.expect_int().value
        self.expect_op(")")
        self.expect_op(")")
        try:
            return QuadraticField(sign * d)
        except WittKitError as e:
            raise ParseError(str(e), t.line, t.col) from None

    def _parse_suffix(self, base):
        tb = self.expect_op("[")
        variables = [self.expect_name().value]
        while self.at_op(","):
            self.next()
            variables.append(self.expect_name().value)
        self.expect_op("]")
        if not self.at_op("/"):
            try:
                return PolynomialRing(base, variables)
            except WittKitError as e:
                raise ParseError(str(e), tb.line, tb.col) from None
        self.next()
        self.expect_op("(")
        if len(variables) != 1:
            raise ParseError("quotients are univariate: one variable allowed", tb.line, tb.col)
        var = variables[0]
        poly_ring = PolynomialRing(base, [var])
        modulus = self._parse_expr(poly_ring)
        tc = self.expect_op(")")
        deg = poly_ring.total_degree(modulus.data)
        if deg < 1:
            raise ParseError("modulus must have degree >= 1", tc.line, tc.col)
        coeffs = [poly_ring.coefficient(modulus.data, (k,)).data for k in range(deg + 1)]
        try:
            return QuotientRing(base, coeffs, var)
        except WittKitError as e:
            raise ParseError(str(e), tc.line, tc.col) from None

    # -- involution clause ------------------------------------------------
    def parse_sigma_clause(self, ring, required=False):
        if self.at_op(",") and self.at_name("sigma", 1):
            self.next()
            self.expect_name("sigma")
            if self.at_op("="):
                self.next()
            else:
                self.expect_op(":")
        elif self.at_name("with"):
            self.next()
            self.expect_name("sigma")
            if self.at_op(":"):
                self.next()
            else:
                self.expect_op("=")
        else:
            if required:
                t = self.peek()
                raise ParseError("expected an involution clause", t.line, t.col)
            return involution(ring, "id")
        t = self.peek()
        # a named spec, unless it is a generator of the ring being assigned
        assigned = t.value in ring.generator_names() and self.at_op("->", 1)
        if t.kind == "name" and t.value in ("id", "frobenius", "swap", "conj") and not assigned:
            self.next()
            try:
                return involution(ring, t.value)
            except WittKitError as e:
                raise ParseError(str(e), t.line, t.col) from None
        # generator assignments: name -> expr, name -> expr, ...
        images = {}
        while True:
            tn = self.expect_name()
            self.expect_op("->")
            images[tn.value] = self._parse_expr(ring)
            if self.at_op(",") and self.peek(1).kind == "name" and self.at_op("->", 2):
                self.next()
                continue
            break
        names = ring.generator_names()
        for g in names:
            images.setdefault(g, ring.gen(g))
        for given in images:
            if given not in names:
                raise ParseError(f"{given!r} is not a generator of {ring}", t.line, t.col)
        try:
            return involution(ring, images)
        except WittKitError as e:
            raise ParseError(str(e), t.line, t.col) from None

    # -- element expressions ----------------------------------------------
    def _parse_expr(self, ring):
        left = self._parse_term(ring)
        while self.at_op("+") or (self.at_op("-") and not self.at_op("->", 0)):
            op = self.next().value
            right = self._parse_term(ring)
            left = left + right if op == "+" else left - right
        return left

    def _parse_term(self, ring):
        left = self._parse_factor(ring)
        while self.at_op("*") or self.at_op("/"):
            op = self.next().value
            right = self._parse_factor(ring)
            if op == "*":
                left = left * right
            else:
                t = self.peek()
                try:
                    left = left * right.inverse()
                except WittKitError as e:
                    raise ParseError(str(e), t.line, t.col) from None
        return left

    def _parse_factor(self, ring):
        if self.at_op("-"):
            self.next()
            return -self._parse_factor(ring)
        if self.at_op("+"):
            self.next()
            return self._parse_factor(ring)
        base = self._parse_primary(ring)
        while self.at_op("^"):
            self.next()
            e = self.expect_int().value
            base = base ** e
        return base

    def _parse_primary(self, ring):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return ring.el(t.value)
        if t.kind == "name":
            self.next()
            name = t.value
            if name == "sqrt" and self.at_op("("):
                # quadratic generator written sqrt(d)
                self.next()
                sign = 1
                if self.at_op("-"):
                    self.next()
                    sign = -1
                d = self.expect_int().value
                self.expect_op(")")
                name = f"sqrt({sign * d})"
            if name in ring.generator_names():
                return ring.gen(name)
            raise ParseError(f"unknown name {name!r} in {ring}", t.line, t.col)
        if self.at_op("("):
            self.next()
            v = self._parse_expr(ring)
            self.expect_op(")")
            return v
        raise ParseError(f"expected an element, found {self._show(t)}", t.line, t.col)


# ---------------------------------------------------------------------------
# public entry points


def parse_ring(text):
    p = _Parser(text)
    ring = p.parse_ring()
    p.expect_eof()
    return ring


def parse_ring_with_involution(text):
    """Ring descriptor with optional involution clause (default sigma=id)."""
    p = _Parser(text)
    ring = p.parse_ring()
    rwi = p.parse_sigma_clause(ring)
    p.expect_eof()
    return rwi


def parse_involution(ring, text):
    """Bare involution spec for an already-built ring.

    Accepts the same forms as the sigma clause of a descriptor: a named
    involution (id, frobenius, swap, conj) or generator assignments
    like "t -> -t, u -> u^3".
    """
    p = _Parser("with sigma: " + text)
    rwi = p.parse_sigma_clause(ring, required=True)
    p.expect_eof()
    return rwi


def parse_element(ring, text):
    p = _Parser(text)
    v = p._parse_expr(ring)
    p.expect_eof()
    return v


def parse_gram(ring, text):
    """Nested bracket table [[a, b], [c, d]] of element expressions."""
    p = _Parser(text)
    p.expect_op("[")
    rows = []
    while True:
        p.expect_op("[")
        row = [p._parse_expr(ring)]
        while p.at_op(","):
            p.next()
            row.append(p._parse_expr(ring))
        p.expect_op("]")
        rows.append(row)
        if p.at_op(","):
            p.next()
            continue
        break
    t = p.expect_op("]")
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("Gram table must be square", t.line, t.col)
    p.expect_eof()
    return rows


def parse_sequence(ring, text):
    p = _Parser(text)
    out = [p._parse_expr(ring)]
    while p.at_op(","):
        p.next()
        out.append(p._parse_expr(ring))
    p.expect_eof()
    return out


def parse_tower(text):
    """"R -> S" with involutions; returns (rwi_src, rwi_dst, ringmap).
    The map is the canonical one; each side takes the same involution
    clause as a ring descriptor (sigma=id by default), named or as
    generator assignments."""
    p = _Parser(text)
    src_ring = p.parse_ring()
    src = p.parse_sigma_clause(src_ring)
    p.expect_op("->")
    dst_ring = p.parse_ring()
    dst = p.parse_sigma_clause(dst_ring)
    p.expect_eof()
    return src, dst, canonical_map(src_ring, dst_ring)


def canonical_map(src, dst):
    """The canonical homomorphism src -> dst for supported pairs."""
    if src == dst:
        return identity_map(src)
    if isinstance(src, (PrimeField, Rationals)):
        return RingMap(src, dst, [])
    if (
        isinstance(src, QuotientRing)
        and isinstance(dst, QuotientRing)
        and src.base == dst.base
        and src.var == dst.var
    ):
        return RingMap(src, dst, [dst.gen(n) for n in src.generator_names()])
    if isinstance(src, QuotientRing) and isinstance(dst, PrimeField) and src.base == dst:
        # k[t]/(t^n) -> k, t -> 0 (only well defined for nilpotent t)
        imgs = [dst.zero for _ in src.generator_names()]
        return RingMap(src, dst, imgs)
    raise WittKitError(f"no canonical map {src} -> {dst}")
