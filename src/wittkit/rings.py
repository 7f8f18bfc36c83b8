"""Exact commutative rings with involution.

The tower of constructors:

    PrimeField(p)                 GF(p), p an odd prime
    Rationals()                   QQ
    QuadraticField(d)             QQ(sqrt(d)), d squarefree, (1, sqrt(d)) basis
    QuotientRing(base, f, var)    base[var]/(f), f monic univariate
    PolynomialRing(base, vars)    multivariate polynomials, exact coefficients
    ProductRing(R, R)             componentwise ring structure

Elements are immutable, hashable and carry their ring; arithmetic is exact
(Python ints / fractions).  Characteristic 2 is rejected at construction.

An involution is a verified ring map sigma with sigma . sigma = id:

>>> R = QuotientRing(PrimeField(3), [0, 0, 1], "t")   # GF(3)[t]/(t^2)
>>> sw = involution(R, {"t": -R.gen("t")})
>>> sw.conj(R.gen("t")) == -R.gen("t")
True
>>> F9 = GF(9)
>>> fr = involution(F9, "frobenius")
>>> u = F9.gen("u")
>>> fr.conj(fr.conj(u)) == u
True
"""

from __future__ import annotations

from fractions import Fraction
import itertools

from .errors import (
    CharacteristicTwo,
    DomainMismatch,
    NotAHomomorphism,
    NotAUnit,
    NotInvolutive,
    RingMismatch,
    WittKitError,
)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _squarefree(n):
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class Element:
    """A ring element: a ring reference plus canonical payload data."""

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data

    def _same(self, other):
        if not isinstance(other, Element):
            other = self.ring.el(other)
        if other.ring != self.ring:
            raise RingMismatch(f"elements of {self.ring} and {other.ring}")
        return other

    def __add__(self, other):
        other = self._same(other)
        return Element(self.ring, self.ring.add(self.data, other.data))

    __radd__ = __add__

    def __neg__(self):
        return Element(self.ring, self.ring.neg(self.data))

    def __sub__(self, other):
        other = self._same(other)
        return Element(self.ring, self.ring.add(self.data, self.ring.neg(other.data)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._same(other)
        return Element(self.ring, self.ring.mul(self.data, other.data))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        return Element(self.ring, self.ring.inv(self.data))

    def is_unit(self):
        return self.ring.is_unit(self.data)

    def is_zero(self):
        return self.data == self.ring.zero_data()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.el(other)
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring == other.ring and self.data == other.data

    def __hash__(self):
        return hash((self.ring, self.data))

    def __repr__(self):
        return self.ring.format_element(self.data)


class Ring:
    """Base class.  Subclasses implement the raw-data arithmetic."""

    char = 0
    is_field = False

    def __init__(self):
        self._key = self.key()
        self._hash = hash(self._key)
        self._scalar_basis = None

    # -- identity ---------------------------------------------------------
    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.describe()

    # -- elements ---------------------------------------------------------
    def el(self, x):
        """Coerce x (int, Fraction, Element, raw data) to an Element."""
        if isinstance(x, Element):
            if x.ring != self:
                raise RingMismatch(f"cannot coerce element of {x.ring} into {self}")
            return x
        if isinstance(x, int):
            return Element(self, self.from_int(x))
        return Element(self, self.normalize(x))

    @property
    def zero(self):
        return Element(self, self.zero_data())

    @property
    def one(self):
        return Element(self, self.one_data())

    def gen(self, name):
        names = self.generator_names()
        if name not in names:
            raise WittKitError(f"{self} has no generator {name!r}")
        return Element(self, self.generator_data()[names.index(name)])

    def generator_names(self):
        return []

    def generator_data(self):
        return []

    # -- finiteness and scalar coordinates --------------------------------
    @property
    def is_finite(self):
        return self.char != 0 and self._finite()

    def _finite(self):
        return True

    def elements(self):
        raise WittKitError(f"{self} is not enumerable")

    def size(self):
        raise WittKitError(f"{self} is not finite")

    def scalar_field(self):
        """The prime field (finite case) or QQ over which everything here
        is a finite-dimensional vector space."""
        raise NotImplementedError

    def scalar_dim(self):
        raise NotImplementedError

    def to_svec(self, data):
        raise NotImplementedError

    def from_svec(self, vec):
        raise NotImplementedError

    def scalar_basis(self):
        if self._scalar_basis is None:
            n = self.scalar_dim()
            F = self.scalar_field()
            basis = []
            for i in range(n):
                vec = tuple(F.one_data() if j == i else F.zero_data() for j in range(n))
                basis.append(self.from_svec(vec))
            self._scalar_basis = basis
        return self._scalar_basis

    def algebra_generators(self):
        """Elements that generate self as an algebra over the scalar field
        (used to cut Hom spaces down by semilinearity constraints)."""
        return [Element(self, d) for d in self.generator_data()]

    # -- misc --------------------------------------------------------------
    def random_element(self, rng):
        raise NotImplementedError

    def sort_key(self, data):
        return data

    def format_element(self, data):
        return repr(data)

    def describe(self):
        raise NotImplementedError


class PrimeField(Ring):
    is_field = True

    def __init__(self, p):
        if p == 2:
            raise CharacteristicTwo("prime fields of characteristic 2 are not supported")
        if not _is_prime(p):
            raise WittKitError(f"{p} is not prime")
        self.p = p
        self.char = p
        super().__init__()

    def key(self):
        return ("GF", self.p)

    def describe(self):
        return f"GF({self.p})"

    def normalize(self, x):
        return int(x) % self.p

    def from_int(self, n):
        return n % self.p

    def zero_data(self):
        return 0

    def one_data(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise NotAUnit(f"0 in {self}")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return (Element(self, i) for i in range(self.p))

    def size(self):
        return self.p

    def scalar_field(self):
        return self

    def scalar_dim(self):
        return 1

    def to_svec(self, data):
        return (data,)

    def from_svec(self, vec):
        return vec[0]

    def random_element(self, rng):
        return Element(self, rng.randrange(self.p))

    def format_element(self, data):
        return str(data)


class Rationals(Ring):
    is_field = True
    char = 0

    def key(self):
        return ("QQ",)

    def describe(self):
        return "QQ"

    def _finite(self):
        return False

    def normalize(self, x):
        return Fraction(x)

    def from_int(self, n):
        return Fraction(n)

    def zero_data(self):
        return Fraction(0)

    def one_data(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 in QQ")
        return 1 / a

    def scalar_field(self):
        return self

    def scalar_dim(self):
        return 1

    def to_svec(self, data):
        return (data,)

    def from_svec(self, vec):
        return vec[0]

    def random_element(self, rng):
        return Element(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def sort_key(self, data):
        return (data.numerator, data.denominator)

    def format_element(self, data):
        return str(data)


class QuadraticField(Ring):
    """QQ(sqrt(d)) with basis (1, sqrt(d)); for d = -1 the generator prints
    as i.  Conjugation (the nontrivial automorphism) negates the second
    coordinate."""

    is_field = True
    char = 0

    def __init__(self, d):
        if d in (0, 1):
            raise WittKitError("d must be a squarefree integer != 0, 1")
        if not _squarefree(d):
            raise WittKitError(f"{d} is not squarefree")
        self.d = d
        self.gen_name = "i" if d == -1 else f"sqrt({d})"
        super().__init__()

    def key(self):
        return ("QQ(sqrt)", self.d)

    def describe(self):
        return "QQ(i)" if self.d == -1 else f"QQ(sqrt({self.d}))"

    def _finite(self):
        return False

    def normalize(self, x):
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return (Fraction(x[0]), Fraction(x[1]))
        return (Fraction(x), Fraction(0))

    def from_int(self, n):
        return (Fraction(n), Fraction(0))

    def zero_data(self):
        return (Fraction(0), Fraction(0))

    def one_data(self):
        return (Fraction(1), Fraction(0))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        return (a[0] * b[0] + self.d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def is_unit(self, a):
        return a != self.zero_data()

    def inv(self, a):
        n = a[0] * a[0] - self.d * a[1] * a[1]
        if n == 0:
            raise NotAUnit(f"{self.format_element(a)} in {self}")
        return (a[0] / n, -a[1] / n)

    def generator_names(self):
        return [self.gen_name]

    def generator_data(self):
        return [(Fraction(0), Fraction(1))]

    def scalar_field(self):
        return Rationals()

    def scalar_dim(self):
        return 2

    def to_svec(self, data):
        return data

    def from_svec(self, vec):
        return (vec[0], vec[1])

    def random_element(self, rng):
        q = Rationals()
        return Element(self, (q.random_element(rng).data, q.random_element(rng).data))

    def sort_key(self, data):
        return tuple((c.numerator, c.denominator) for c in data)

    def format_element(self, data):
        a, b = data
        g = self.gen_name
        if b == 0:
            return str(a)
        bs = g if b == 1 else (f"-{g}" if b == -1 else f"{b}*{g}")
        if a == 0:
            return bs
        return f"{a} + {bs}" if not bs.startswith("-") else f"{a} - {bs[1:]}"


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers over a base ring (tuples of base data)

def _times_monomial(cstr, mono):
    """The term cstr*mono, with a coefficient that is a sum parenthesized
    so that the string parses back to the same element."""
    if cstr == "1":
        return mono
    if " + " in cstr or " - " in cstr:
        cstr = f"({cstr})"
    return f"{cstr}*{mono}"


def _ptrim(base, cs):
    n = len(cs)
    z = base.zero_data()
    while n and cs[n - 1] == z:
        n -= 1
    return tuple(cs[:n])


def _padd(base, a, b):
    n = max(len(a), len(b))
    z = base.zero_data()
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else z
        y = b[i] if i < len(b) else z
        out.append(base.add(x, y))
    return _ptrim(base, out)


def _pscale(base, c, a):
    return _ptrim(base, [base.mul(c, x) for x in a])


def _pmul(base, a, b):
    if not a or not b:
        return ()
    z = base.zero_data()
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == z:
            continue
        for j, y in enumerate(b):
            out[i + j] = base.add(out[i + j], base.mul(x, y))
    return _ptrim(base, out)


def _pdivmod(base, a, b):
    """Division with remainder; leading coefficient of b must be a unit."""
    b = _ptrim(base, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lc_inv = base.inv(b[-1])
    r = list(a)
    q = [base.zero_data()] * max(0, len(a) - len(b) + 1)
    while len(_ptrim(base, r)) >= len(b):
        r = list(_ptrim(base, r))
        d = len(r) - len(b)
        c = base.mul(r[-1], lc_inv)
        q[d] = c
        for i, y in enumerate(b):
            r[d + i] = base.add(r[d + i], base.neg(base.mul(c, y)))
    return _ptrim(base, q), _ptrim(base, r)


def _pgcd(base, a, b):
    a, b = _ptrim(base, a), _ptrim(base, b)
    while b:
        a, b = b, _pdivmod(base, a, b)[1]
    if a:
        a = _pscale(base, base.inv(a[-1]), a)  # monic normalization
    return a


def _pxgcd(base, a, b):
    """Extended gcd over a field base: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = _ptrim(base, a), _ptrim(base, b)
    s0, s1 = (base.one_data(),), ()
    t0, t1 = (), (base.one_data(),)
    while r1:
        q, r = _pdivmod(base, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(base, s0, _pneg(base, _pmul(base, q, s1)))
        t0, t1 = t1, _padd(base, t0, _pneg(base, _pmul(base, q, t1)))
    if r0:
        c = base.inv(r0[-1])
        r0 = _pscale(base, c, r0)
        s0 = _pscale(base, c, s0)
        t0 = _pscale(base, c, t0)
    return r0, s0, t0


def _pneg(base, a):
    return tuple(base.neg(x) for x in a)


class QuotientRing(Ring):
    """base[var]/(f) with f monic of degree n >= 1.  Elements are coefficient
    tuples of fixed length n (power i at index i).

    The base must be a field from this module.  Irreducibility of f is
    detected for finite bases (so GF(9) built as GF(3)[u]/(u^2+1) knows it
    is a field); reducible moduli like t^2 give honest non-fields with
    partial inversion."""

    def __init__(self, base, modulus, var="t"):
        if not base.is_field:
            raise WittKitError("quotient base must be a field")
        mod = _ptrim(base, tuple(base.el(c).data for c in modulus))
        if len(mod) < 2:
            raise WittKitError("modulus must have degree >= 1")
        if mod[-1] != base.one_data():
            raise WittKitError("modulus must be monic")
        self.base = base
        self.modulus = mod
        self.n = len(mod) - 1
        self.var = var
        self.char = base.char
        self.is_field = base.is_finite and self._modulus_irreducible()
        super().__init__()

    def _modulus_irreducible(self):
        half = len(self.modulus) // 2 + 1
        base_elems = [e.data for e in self.base.elements()]
        for deg in range(1, half):
            for tail in itertools.product(base_elems, repeat=deg):
                cand = tuple(tail) + (self.base.one_data(),)
                if len(cand) >= len(self.modulus):
                    continue
                if not _pdivmod(self.base, self.modulus, cand)[1]:
                    return False
        return True

    def key(self):
        return ("quot", self.base._key, self.modulus, self.var)

    def describe(self):
        if self.is_field and self.base.is_finite:
            return f"GF({self.size()})/GF({self.char})"
        return f"{self.base.describe()}[{self.var}]/({self._format_poly(self.modulus)})"

    def _format_poly(self, cs):
        terms = []
        for i, c in enumerate(cs):
            if c == self.base.zero_data():
                continue
            cstr = self.base.format_element(c)
            if i == 0:
                terms.append(cstr)
            else:
                terms.append(_times_monomial(cstr, self.var if i == 1 else f"{self.var}^{i}"))
        return " + ".join(terms) if terms else "0"

    def normalize(self, x):
        if isinstance(x, (tuple, list)):
            cs = tuple(self.base.el(c).data for c in x)
        else:
            cs = (self.base.el(x).data,)
        _, r = _pdivmod(self.base, _ptrim(self.base, cs), self.modulus)
        z = self.base.zero_data()
        return tuple(r) + (z,) * (self.n - len(r))

    def from_int(self, m):
        z = self.base.zero_data()
        return (self.base.from_int(m),) + (z,) * (self.n - 1)

    def zero_data(self):
        return (self.base.zero_data(),) * self.n

    def one_data(self):
        z = self.base.zero_data()
        return (self.base.one_data(),) + (z,) * (self.n - 1)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        prod = _pmul(self.base, _ptrim(self.base, a), _ptrim(self.base, b))
        _, r = _pdivmod(self.base, prod, self.modulus)
        z = self.base.zero_data()
        return tuple(r) + (z,) * (self.n - len(r))

    def is_unit(self, a):
        g = _pgcd(self.base, _ptrim(self.base, a), self.modulus)
        return len(g) == 1

    def inv(self, a):
        at = _ptrim(self.base, a)
        g, s, _ = _pxgcd(self.base, at, self.modulus)
        if len(g) != 1:
            raise NotAUnit(f"{self.format_element(a)} in {self}")
        _, r = _pdivmod(self.base, s, self.modulus)
        z = self.base.zero_data()
        return tuple(r) + (z,) * (self.n - len(r))

    def generator_names(self):
        return self.base.generator_names() + [self.var]

    def generator_data(self):
        z = self.base.zero_data()
        tgen = (z, self.base.one_data()) + (z,) * (self.n - 2) if self.n >= 2 else self.normalize((z, self.base.one_data()))
        return [self.normalize((c,)) for c in self.base.generator_data()] + [tgen]

    def elements(self):
        base_elems = [e.data for e in self.base.elements()]
        for cs in itertools.product(base_elems, repeat=self.n):
            yield Element(self, cs)

    def size(self):
        return self.base.size() ** self.n

    def scalar_field(self):
        return self.base.scalar_field()

    def scalar_dim(self):
        return self.base.scalar_dim() * self.n

    def to_svec(self, data):
        out = []
        for c in data:
            out.extend(self.base.to_svec(c))
        return tuple(out)

    def from_svec(self, vec):
        k = self.base.scalar_dim()
        return tuple(self.base.from_svec(tuple(vec[i * k:(i + 1) * k])) for i in range(self.n))

    def random_element(self, rng):
        return Element(self, tuple(self.base.random_element(rng).data for _ in range(self.n)))

    def sort_key(self, data):
        return tuple(self.base.sort_key(c) for c in data)

    def format_element(self, data):
        s = self._format_poly(_ptrim(self.base, data))
        return s


def GF(q, var="u"):
    """The finite field with q = p^k elements (odd p).  For k > 1 the
    modulus is the first monic irreducible polynomial of degree k in
    enumeration order, so the construction is deterministic."""
    p, k = None, None
    for cand in range(3, q + 1, 2):
        if _is_prime(cand):
            m, e = q, 0
            while m % cand == 0:
                m //= cand
                e += 1
            if m == 1:
                p, k = cand, e
                break
    if q % 2 == 0:
        raise CharacteristicTwo("finite fields of characteristic 2 are not supported")
    if p is None:
        raise WittKitError(f"{q} is not a prime power")
    F = PrimeField(p)
    if k == 1:
        return F
    for tail in itertools.product(range(p), repeat=k):
        cand = tuple(tail) + (1,)
        try:
            R = QuotientRing(F, cand, var)
        except WittKitError:
            continue
        if R.is_field:
            return R
    raise WittKitError(f"no irreducible modulus found for GF({q})")


class PolynomialRing(Ring):
    """Multivariate polynomials over a field.  Data: sorted tuple of
    (exponent tuple, coefficient data) with nonzero coefficients."""

    def __init__(self, base, variables):
        if not base.is_field:
            raise WittKitError("polynomial base must be a field")
        if not variables:
            raise WittKitError("need at least one variable")
        self.base = base
        self.variables = tuple(variables)
        self.nv = len(self.variables)
        self.char = base.char
        super().__init__()

    def key(self):
        return ("poly", self.base._key, self.variables)

    def describe(self):
        return f"{self.base.describe()}[{','.join(self.variables)}]"

    def _finite(self):
        return False

    def _freeze(self, d):
        items = [(e, c) for e, c in d.items() if c != self.base.zero_data()]
        items.sort(key=lambda t: t[0])
        return tuple(items)

    def normalize(self, x):
        if isinstance(x, (tuple, list)):
            d = {}
            for e, c in x:
                e = tuple(e)
                cd = self.base.el(c).data
                d[e] = self.base.add(d.get(e, self.base.zero_data()), cd)
            return self._freeze(d)
        c = self.base.el(x).data
        return self._freeze({(0,) * self.nv: c})

    def from_int(self, n):
        return self.normalize(n)

    def zero_data(self):
        return ()

    def one_data(self):
        return (((0,) * self.nv, self.base.one_data()),)

    def add(self, a, b):
        d = dict(a)
        for e, c in b:
            d[e] = self.base.add(d.get(e, self.base.zero_data()), c)
        return self._freeze(d)

    def neg(self, a):
        return tuple((e, self.base.neg(c)) for e, c in a)

    def mul(self, a, b):
        d = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(i + j for i, j in zip(e1, e2))
                d[e] = self.base.add(d.get(e, self.base.zero_data()), self.base.mul(c1, c2))
        return self._freeze(d)

    def is_unit(self, a):
        return len(a) == 1 and a[0][0] == (0,) * self.nv

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{self.format_element(a)} in {self}")
        return self._freeze({(0,) * self.nv: self.base.inv(a[0][1])})

    def generator_names(self):
        return self.base.generator_names() + list(self.variables)

    def generator_data(self):
        out = []
        for c in self.base.generator_data():
            out.append(self._freeze({(0,) * self.nv: c}))
        for i in range(self.nv):
            e = tuple(1 if j == i else 0 for j in range(self.nv))
            out.append(self._freeze({e: self.base.one_data()}))
        return out

    def total_degree(self, data):
        return max((sum(e) for e, _ in data), default=-1)

    def coefficient(self, data, exponent):
        for e, c in data:
            if e == tuple(exponent):
                return Element(self.base, c)
        return self.base.zero

    def scalar_field(self):
        raise WittKitError(f"{self} is not finite-dimensional over its scalar field")

    scalar_dim = scalar_field
    to_svec = scalar_field
    from_svec = scalar_field

    def random_element(self, rng):
        d = {}
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(0, 3) for _ in range(self.nv))
            d[e] = self.base.random_element(rng).data
        return Element(self, self._freeze(d))

    def sort_key(self, data):
        return tuple((e, self.base.sort_key(c)) for e, c in data)

    def format_element(self, data):
        if not data:
            return "0"
        terms = []
        for e, c in data:
            vs = "*".join(
                (v if k == 1 else f"{v}^{k}")
                for v, k in zip(self.variables, e) if k
            )
            cstr = self.base.format_element(c)
            terms.append(_times_monomial(cstr, vs) if vs else cstr)
        return " + ".join(terms)


class ProductRing(Ring):
    """R1 x R2 with componentwise operations.  Used with the swap
    involution (x, y) -> (y, x), which requires R1 == R2."""

    def __init__(self, r1, r2):
        self.r1 = r1
        self.r2 = r2
        if r1.char != r2.char:
            raise WittKitError("product factors must share a characteristic")
        self.char = r1.char
        super().__init__()

    def key(self):
        return ("prod", self.r1._key, self.r2._key)

    def describe(self):
        return f"{self.r1.describe()}x{self.r2.describe()}"

    def _finite(self):
        return self.r1.is_finite and self.r2.is_finite

    def normalize(self, x):
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return (self.r1.el(x[0]).data, self.r2.el(x[1]).data)
        raise WittKitError("product elements are pairs")

    def from_int(self, n):
        return (self.r1.from_int(n), self.r2.from_int(n))

    def zero_data(self):
        return (self.r1.zero_data(), self.r2.zero_data())

    def one_data(self):
        return (self.r1.one_data(), self.r2.one_data())

    def add(self, a, b):
        return (self.r1.add(a[0], b[0]), self.r2.add(a[1], b[1]))

    def neg(self, a):
        return (self.r1.neg(a[0]), self.r2.neg(a[1]))

    def mul(self, a, b):
        return (self.r1.mul(a[0], b[0]), self.r2.mul(a[1], b[1]))

    def is_unit(self, a):
        return self.r1.is_unit(a[0]) and self.r2.is_unit(a[1])

    def inv(self, a):
        return (self.r1.inv(a[0]), self.r2.inv(a[1]))

    def idempotents(self):
        return (
            Element(self, (self.r1.one_data(), self.r2.zero_data())),
            Element(self, (self.r1.zero_data(), self.r2.one_data())),
        )

    def elements(self):
        for x in self.r1.elements():
            for y in self.r2.elements():
                yield Element(self, (x.data, y.data))

    def size(self):
        return self.r1.size() * self.r2.size()

    def scalar_field(self):
        f1, f2 = self.r1.scalar_field(), self.r2.scalar_field()
        if f1 != f2:
            raise WittKitError("product factors have different scalar fields")
        return f1

    def scalar_dim(self):
        return self.r1.scalar_dim() + self.r2.scalar_dim()

    def to_svec(self, data):
        return tuple(self.r1.to_svec(data[0])) + tuple(self.r2.to_svec(data[1]))

    def from_svec(self, vec):
        k = self.r1.scalar_dim()
        return (self.r1.from_svec(vec[:k]), self.r2.from_svec(vec[k:]))

    def algebra_generators(self):
        e1, e2 = self.idempotents()
        gens = [e1, e2]
        for g in self.r1.algebra_generators():
            gens.append(Element(self, (g.data, self.r2.zero_data())))
        for g in self.r2.algebra_generators():
            gens.append(Element(self, (self.r1.zero_data(), g.data)))
        return gens

    def random_element(self, rng):
        return Element(self, (self.r1.random_element(rng).data, self.r2.random_element(rng).data))

    def sort_key(self, data):
        return (self.r1.sort_key(data[0]), self.r2.sort_key(data[1]))

    def format_element(self, data):
        return f"({self.r1.format_element(data[0])}, {self.r2.format_element(data[1])})"


# ---------------------------------------------------------------------------
# ring maps


class RingMap:
    """A homomorphism given by generator images; the defining relations of
    the source are checked at construction."""

    def __init__(self, src, dst, images=(), verify=True):
        if isinstance(src, ProductRing) and not isinstance(self, ProductRingMap):
            raise WittKitError("use ProductRingMap for maps out of products")
        self.src = src
        self.dst = dst
        self.images = tuple(dst.el(im) for im in images)
        if len(self.images) != len(src.generator_names()):
            raise WittKitError(
                f"{src} needs {len(src.generator_names())} generator images, got {len(self.images)}"
            )
        if verify:
            self.verify()

    def __call__(self, x):
        x = self.src.el(x)
        return self._apply(self.src, x.data, list(self.images))

    def _apply(self, ring, data, images):
        if isinstance(ring, PrimeField):
            return self.dst.el(data)
        if isinstance(ring, Rationals):
            return self.dst.el(data.numerator) * self.dst.el(data.denominator).inverse()
        if isinstance(ring, QuadraticField):
            g = images[-1]
            a, b = data
            qa = self._apply(Rationals(), a, [])
            qb = self._apply(Rationals(), b, [])
            return qa + qb * g
        if isinstance(ring, QuotientRing):
            base_imgs = images[:-1]
            t = images[-1]
            out = self.dst.zero
            power = self.dst.one
            for c in data:
                out = out + self._apply(ring.base, c, base_imgs) * power
                power = power * t
            return out
        if isinstance(ring, PolynomialRing):
            nbase = len(ring.base.generator_names())
            base_imgs = images[:nbase]
            var_imgs = images[nbase:]
            out = self.dst.zero
            for e, c in data:
                term = self._apply(ring.base, c, base_imgs)
                for v, k in zip(var_imgs, e):
                    term = term * v ** k
                out = out + term
            return out
        raise WittKitError(f"cannot apply map out of {ring}")

    def verify(self):
        if self.src.char != 0 and self.dst.from_int(self.src.char) != self.dst.zero_data():
            raise NotAHomomorphism(f"characteristic {self.src.char} does not map to 0 in {self.dst}")
        if self.src.char == 0 and self.dst.char != 0:
            raise NotAHomomorphism(f"no homomorphism from {self.src} to {self.dst}")
        self._verify_relations(self.src, list(self.images))

    def _verify_relations(self, ring, images):
        if isinstance(ring, QuadraticField):
            g = images[-1]
            if g * g != self.dst.el(ring.d):
                raise NotAHomomorphism(
                    f"image of {ring.gen_name} does not square to {ring.d}"
                )
        elif isinstance(ring, QuotientRing):
            base_imgs = images[:-1]
            t = images[-1]
            self._verify_relations(ring.base, base_imgs)
            val = self.dst.zero
            power = self.dst.one
            for c in ring.modulus:
                val = val + self._apply(ring.base, c, base_imgs) * power
                power = power * t
            if val != self.dst.zero:
                raise NotAHomomorphism(
                    f"modulus of {ring} does not vanish on the generator image"
                )
        elif isinstance(ring, PolynomialRing):
            self._verify_relations(ring.base, images[:len(ring.base.generator_names())])

    def __eq__(self, other):
        return (
            isinstance(other, RingMap)
            and not isinstance(other, ProductRingMap)
            and self.src == other.src
            and self.dst == other.dst
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.images))

    def is_identity(self):
        if self.src != self.dst:
            return False
        return all(self(Element(self.src, g)) == Element(self.src, g) for g in self.src.generator_data())

    def __repr__(self):
        if not self.images:
            return f"RingMap({self.src} -> {self.dst})"
        pairs = ", ".join(
            f"{n} -> {im!r}" for n, im in zip(self.src.generator_names(), self.images)
        )
        return f"RingMap({self.src} -> {self.dst}: {pairs})"


class ProductRingMap(RingMap):
    """Map out of R1 x R2, either componentwise (f1 x f2) or with a swap:
    (x, y) -> (f1(y), f2(x))."""

    def __init__(self, src, dst, f1, f2, swap=False):
        if not isinstance(src, ProductRing) or not isinstance(dst, ProductRing):
            raise WittKitError("ProductRingMap needs product source and target")
        self.src = src
        self.dst = dst
        self.f1 = f1
        self.f2 = f2
        self.swap = swap
        self.images = ()
        if swap:
            if f1.src != src.r2 or f1.dst != dst.r1 or f2.src != src.r1 or f2.dst != dst.r2:
                raise WittKitError("swap components have the wrong domains")
        else:
            if f1.src != src.r1 or f1.dst != dst.r1 or f2.src != src.r2 or f2.dst != dst.r2:
                raise WittKitError("components have the wrong domains")

    def __call__(self, x):
        x = self.src.el(x)
        a, b = x.data
        if self.swap:
            return Element(self.dst, (self.f1(Element(self.src.r2, b)).data,
                                      self.f2(Element(self.src.r1, a)).data))
        return Element(self.dst, (self.f1(Element(self.src.r1, a)).data,
                                  self.f2(Element(self.src.r2, b)).data))

    def verify(self):
        pass  # components were verified at their own construction

    def __eq__(self, other):
        return (
            isinstance(other, ProductRingMap)
            and (self.src, self.dst, self.swap) == (other.src, other.dst, other.swap)
            and self.f1 == other.f1
            and self.f2 == other.f2
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.swap, self.f1, self.f2))

    def is_identity(self):
        return not self.swap and self.f1.is_identity() and self.f2.is_identity()

    def __repr__(self):
        kind = "swap" if self.swap else "componentwise"
        return f"ProductRingMap({self.src} -> {self.dst}, {kind})"


def identity_map(ring):
    if isinstance(ring, ProductRing):
        return ProductRingMap(ring, ring, identity_map(ring.r1), identity_map(ring.r2))
    return RingMap(ring, ring, [Element(ring, g) for g in ring.generator_data()])


def compose_maps(g, f):
    """g . f as a RingMap (images recomputed; relations hold automatically
    but are re-verified for safety)."""
    if f.dst != g.src:
        raise DomainMismatch(f"cannot compose {g!r} after {f!r}")
    if isinstance(f, ProductRingMap) or isinstance(g, ProductRingMap):
        if not (isinstance(f, ProductRingMap) and isinstance(g, ProductRingMap)):
            raise DomainMismatch("cannot mix product and non-product maps")
        if f.swap and g.swap:
            return ProductRingMap(f.src, g.dst, compose_maps(g.f2, f.f1), compose_maps(g.f1, f.f2))
        if f.swap:
            return ProductRingMap(f.src, g.dst, compose_maps(g.f1, f.f1), compose_maps(g.f2, f.f2), swap=True)
        if g.swap:
            return ProductRingMap(f.src, g.dst, compose_maps(g.f1, f.f2), compose_maps(g.f2, f.f1), swap=True)
        return ProductRingMap(f.src, g.dst, compose_maps(g.f1, f.f1), compose_maps(g.f2, f.f2))
    return RingMap(f.src, g.dst, [g(im) for im in f.images])


# ---------------------------------------------------------------------------
# involutions


class RingWithInvolution:
    """A ring together with a verified involution sigma.

    Construction checks that sigma is a homomorphism (defining relations)
    and that sigma . sigma fixes every generator; characteristic 2 was
    already excluded at the ring level."""

    def __init__(self, ring, sigma):
        if sigma.src != ring or sigma.dst != ring:
            raise DomainMismatch("involution must be an endomorphism of the ring")
        if ring.char == 2:
            raise CharacteristicTwo(str(ring))
        sq = compose_maps(sigma, sigma)
        if not sq.is_identity():
            raise NotInvolutive(f"sigma^2 is not the identity on {ring}")
        self.ring = ring
        self.sigma = sigma

    def conj(self, x):
        return self.sigma(x)

    def is_trivial(self):
        return self.sigma.is_identity()

    def fixed_scalar_subspace(self):
        """Scalar-coordinate basis of {x : sigma(x) = x} (finite-dimensional
        rings only).  Used to parametrize diagonal Gram entries."""
        from .linalg import Matrix, svec_matrix_of_additive_map
        m = svec_matrix_of_additive_map(self.ring, self.ring, self.conj)
        return (m - Matrix.identity(self.ring.scalar_field(), m.nrows)).nullspace_basis()

    def __eq__(self, other):
        return (
            isinstance(other, RingWithInvolution)
            and self.ring == other.ring
            and self.sigma == other.sigma
        )

    def __hash__(self):
        return hash((self.ring, self.sigma))

    def __repr__(self):
        if self.is_trivial():
            return f"({self.ring}, sigma=id)"
        return f"({self.ring}, {self.sigma!r})"


def involution(ring, spec):
    """Build a RingWithInvolution.

    spec is either the string "id", "frobenius" (finite fields of square
    order), "swap" (products R x R), "conj" (quadratic fields), or a dict
    {generator name: image}."""
    if spec == "id":
        return RingWithInvolution(ring, identity_map(ring))
    if spec == "swap":
        if not isinstance(ring, ProductRing) or ring.r1 != ring.r2:
            raise WittKitError("swap needs a product R x R with equal factors")
        sw = ProductRingMap(ring, ring, identity_map(ring.r1), identity_map(ring.r1), swap=True)
        return RingWithInvolution(ring, sw)
    if spec == "conj":
        if not isinstance(ring, QuadraticField):
            raise WittKitError("conj needs a quadratic field")
        g = ring.gen(ring.gen_name)
        return RingWithInvolution(ring, RingMap(ring, ring, [-g]))
    if spec == "frobenius":
        if not (isinstance(ring, QuotientRing) and ring.is_field and ring.is_finite):
            raise WittKitError("frobenius needs a finite field extension")
        k = ring.n
        if k % 2 != 0:
            raise NotInvolutive(f"|{ring}| is not a square, no order-2 frobenius")
        p = ring.char
        e = p ** (k // 2)
        imgs = []
        for name in ring.generator_names():
            imgs.append(ring.gen(name) ** e)
        return RingWithInvolution(ring, RingMap(ring, ring, imgs))
    if isinstance(spec, dict):
        names = ring.generator_names()
        missing = [n for n in names if n not in spec]
        if missing:
            raise WittKitError(f"missing involution images for {missing}")
        imgs = [ring.el(spec[n]) for n in names]
        return RingWithInvolution(ring, RingMap(ring, ring, imgs))
    raise WittKitError(f"unknown involution spec {spec!r}")


def check_equivariant_map(f, sig_src, sig_dst):
    """True iff sigma_dst . f = f . sigma_src; checked on generators, which
    suffices for homomorphisms out of our finitely presented rings."""
    if f.src != sig_src.ring:
        raise DomainMismatch(f"map source {f.src} != {sig_src.ring}")
    if f.dst != sig_dst.ring:
        raise DomainMismatch(f"map target {f.dst} != {sig_dst.ring}")
    if isinstance(f.src, ProductRing):
        e1, e2 = f.src.idempotents()
        probes = [e1, e2] + [g * e for g in f.src.algebra_generators() for e in (e1, e2)]
        return all(sig_dst.conj(f(x)) == f(sig_src.conj(x)) for x in probes)
    for g in f.src.generator_data():
        x = Element(f.src, g)
        if sig_dst.conj(f(x)) != f(sig_src.conj(x)):
            return False
    return True
