"""Ring tower: construction, exact arithmetic, involutions, maps."""

import doctest
import random
from fractions import Fraction

import pytest

from wittkit import rings
from wittkit.errors import (
    CharacteristicTwo,
    DomainMismatch,
    NotAHomomorphism,
    NotAUnit,
    NotInvolutive,
    RingMismatch,
    WittKitError,
)
from wittkit.parser import parse_element, parse_involution, parse_ring
from wittkit.rings import (
    GF,
    Element,
    PolynomialRing,
    PrimeField,
    ProductRing,
    ProductRingMap,
    QuadraticField,
    QuotientRing,
    Rationals,
    RingMap,
    RingWithInvolution,
    check_equivariant_map,
    compose_maps,
    identity_map,
    involution,
)


def test_the_module_docstring_examples_run():
    result = doctest.testmod(rings)
    assert result.attempted > 0
    assert result.failed == 0


def test_prime_field_arithmetic():
    F3 = PrimeField(3)
    a = F3.el(2)
    assert a + a == F3.el(1)
    assert a * a == F3.el(1)
    assert (-a) == F3.el(1)
    assert a.inverse() == a
    assert a ** 4 == F3.el(1)
    assert F3.el(0).is_zero()
    assert not F3.el(0).is_unit()
    with pytest.raises(NotAUnit):
        F3.el(0).inverse()


def test_prime_field_char_two_rejected():
    with pytest.raises(CharacteristicTwo):
        PrimeField(2)


@pytest.mark.parametrize("q", [6, 10, 12, 1])
def test_gf_of_a_non_prime_power_says_so(q):
    # an even q that is not a power of 2 is not a field at all, which is
    # the fault to name, not the characteristic
    with pytest.raises(WittKitError) as info:
        GF(q)
    assert not isinstance(info.value, CharacteristicTwo)
    assert str(info.value) == f"{q} is not a prime power"


@pytest.mark.parametrize("q", [2, 4, 8])
def test_gf_of_a_power_of_two_is_characteristic_two(q):
    with pytest.raises(CharacteristicTwo):
        GF(q)


def test_rationals_exact():
    Q = Rationals()
    x = Q.el(Fraction(1, 3))
    assert x + x + x == Q.el(1)
    assert (x.inverse()) == Q.el(3)
    assert Q.el(7) == 7  # int coercion through __eq__


def test_quadratic_field_conjugation():
    Qi = QuadraticField(-1)
    i = Qi.gen("i")
    assert i * i == Qi.el(-1)
    sigma = involution(Qi, "conj")
    assert sigma.conj(i) == -i
    assert sigma.conj(Qi.el(5)) == Qi.el(5)
    # norm of 1+i
    z = Qi.one + i
    assert z * sigma.conj(z) == Qi.el(2)


def test_gf9_generator_and_frobenius():
    F9 = GF(9)
    u = F9.gen("u")
    assert u * u == -F9.one
    assert u ** 4 == F9.one
    assert F9.size() == 9
    sigma = involution(F9, "frobenius")
    assert sigma.conj(u) == u ** 3
    assert sigma.conj(sigma.conj(u)) == u
    fixed = [e for e in F9.elements() if sigma.conj(e) == e]
    assert len(fixed) == 3


def test_quotient_ring_nilpotents():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 1], "t")  # F_3[t]/(t^2)
    t = R.gen("t")
    assert t * t == R.zero
    assert (R.one + t).is_unit()
    assert (R.one + t).inverse() == R.one - t
    assert not t.is_unit()
    assert R.size() == 9
    assert not R.is_field


def test_quotient_ring_cubed():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 0, 1], "t")
    t = R.gen("t")
    assert t * t * t == R.zero
    assert not (t * t).is_zero()
    inv = (R.one - t).inverse()
    assert inv * (R.one - t) == R.one


def test_product_ring_idempotents():
    F3 = PrimeField(3)
    P = ProductRing(F3, F3)
    e1, e2 = P.idempotents()
    assert e1 * e1 == e1
    assert e1 * e2 == P.zero
    assert e1 + e2 == P.one
    assert not e1.is_unit()
    assert P.size() == 9


def test_swap_involution_on_product():
    F3 = PrimeField(3)
    P = ProductRing(F3, F3)
    sigma = involution(P, "swap")
    e1, e2 = P.idempotents()
    assert sigma.conj(e1) == e2
    assert not sigma.is_trivial()


def test_involution_from_assignments_on_quotient():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 1], "t")
    sigma = involution(R, {"t": [0, 2]})  # t -> -t
    t = R.gen("t")
    assert sigma.conj(t) == -t
    assert sigma.conj(R.one + t) == R.one - t


def test_involution_must_square_to_identity():
    # the cube map on GF(81) is an automorphism of order 4
    F81 = GF(81)
    u = F81.gen("u")
    with pytest.raises(NotInvolutive):
        involution(F81, {"u": u ** 3})


def test_polynomial_ring_normal_form():
    Q = Rationals()
    RXY = PolynomialRing(Q, ["X", "Y"])
    X, Y = RXY.gen("X"), RXY.gen("Y")
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert RXY.total_degree(p.data) == 2
    assert RXY.total_degree(RXY.zero.data) == -1
    assert repr(X - Y) == "-1*Y + X"


def test_polynomial_involution_needs_elements():
    Q = Rationals()
    Rt = PolynomialRing(Q, ["t"])
    t = Rt.gen("t")
    sigma = involution(Rt, {"t": -t})
    assert sigma.conj(t * t + t) == t * t - t


def test_ring_map_checks_relations():
    F3 = PrimeField(3)
    R2 = QuotientRing(F3, [0, 0, 1], "t")
    R3 = QuotientRing(F3, [0, 0, 0, 1], "t")
    # t -> t is not a map R2 -> R3 (t^2 != 0 there)
    with pytest.raises(NotAHomomorphism):
        RingMap(R2, R3, [R3.gen("t")])
    # the quotient direction works
    pi = RingMap(R3, R2, [R2.gen("t")])
    assert pi(R3.gen("t") ** 2) == R2.gen("t") ** 2
    assert pi(R3.gen("t") ** 2) == R2.zero + R2.gen("t") * R2.gen("t")


def test_map_composition_and_identity():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 1], "t")
    pi = RingMap(R, F3, [F3.zero])
    ident = identity_map(R)
    comp = compose_maps(pi, ident)
    t = R.gen("t")
    assert comp(t) == F3.zero
    assert comp(R.one + t) == F3.one


def test_equivariant_map_check():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 1], "t")
    pi = RingMap(R, F3, [F3.zero])
    sig_R = involution(R, {"t": [0, 2]})
    sig_k = involution(F3, "id")
    assert check_equivariant_map(pi, sig_R, sig_k)


def test_product_maps_compose_as_identity_and_swap():
    P = ProductRing(PrimeField(3), PrimeField(3))
    ident, swap = ProductRingMap(P), ProductRingMap(P, swap=True)
    x = P.el((1, 2))
    assert ident(x) == x
    assert swap(x) == P.el((2, 1))
    assert compose_maps(ident, ident) == ident
    assert compose_maps(ident, swap) == swap
    assert compose_maps(swap, ident) == swap
    assert compose_maps(swap, swap) == ident
    assert identity_map(P) == ident
    assert involution(P, "swap").sigma == swap
    with pytest.raises(DomainMismatch, match="cannot mix product and non-product maps"):
        compose_maps(ident, RingMap(PrimeField(3), P, []))


def test_product_maps_are_equal_and_hash_alike_by_ring_and_swap():
    F3 = PrimeField(3)
    P, Q = ProductRing(F3, F3), ProductRing(F3, F3)
    assert ProductRingMap(P, swap=True) == ProductRingMap(Q, swap=True)
    assert hash(ProductRingMap(P, swap=True)) == hash(ProductRingMap(Q, swap=True))
    assert ProductRingMap(P) == ProductRingMap(Q)
    assert hash(ProductRingMap(P)) == hash(ProductRingMap(Q))
    assert ProductRingMap(P) != ProductRingMap(P, swap=True)
    assert ProductRingMap(P).is_identity()
    assert not ProductRingMap(P, swap=True).is_identity()
    assert repr(ProductRingMap(P, swap=True)) == "ProductRingMap(GF(3)xGF(3) -> GF(3)xGF(3), swap)"
    with pytest.raises(WittKitError, match="swap needs a product R x R with equal factors"):
        ProductRingMap(ProductRing(F3, GF(9)), swap=True)


def test_equivariance_on_a_product_reads_its_algebra_generators():
    P = ProductRing(PrimeField(3), PrimeField(3))
    ident = identity_map(P)
    sig_id, sig_swap = involution(P, "id"), involution(P, "swap")
    assert not check_equivariant_map(ident, sig_id, sig_swap)
    assert not check_equivariant_map(ident, sig_swap, sig_id)
    assert check_equivariant_map(ident, sig_swap, sig_swap)
    assert check_equivariant_map(ident, sig_id, sig_id)


def test_element_cross_ring_rejected():
    F3 = PrimeField(3)
    F5 = PrimeField(5)
    with pytest.raises(RingMismatch):
        F3.el(1) + F5.el(1)


def test_rwi_structural_equality():
    F3 = PrimeField(3)
    a = involution(F3, "id")
    b = involution(F3, "id")
    assert a == b
    assert hash(a) == hash(b)


def test_finite_enumeration_counts():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 1], "t")
    assert len(list(R.elements())) == 9
    P = ProductRing(F3, F3)
    assert len(list(P.elements())) == 9
    assert not Rationals().is_finite


# -- memoized products and ring maps against fresh arithmetic ---------------
#
# GF(25) and GF(5)[t]/(t^2+2) have data of one shape (pairs of ints mod 5)
# but different moduli, and GF(9) shares that shape for small entries, so a
# memo shared between rings would hand one ring another's products.

MEMO_RINGS = ["GF(9)", "GF(3)[t]/(t^3)", "GF(9)[t]/(t^2)", "GF(25)", "GF(5)[t]/(t^2+2)"]

_PDIVMOD = rings._pdivmod


def fresh_product(ring, a, b):
    """a * b in base[t]/(f) by polynomial multiplication and division with
    remainder, past the ring's memo."""
    base = ring.base
    prod = rings._pmul(base, rings._ptrim(base, a), rings._ptrim(base, b))
    _, r = _PDIVMOD(base, prod, ring.modulus)
    return tuple(r) + (base.zero_data(),) * (ring.n - len(r))


def test_remembered_products_match_fresh_arithmetic(monkeypatch):
    divisions = []

    def counted(*args):
        divisions.append(args)
        return _PDIVMOD(*args)

    built = [parse_ring(text) for text in MEMO_RINGS]
    for ring in built:
        elems = [e.data for e in ring.elements()]
        # cold: a * b is new and b * a was just remembered under both
        # orders; warm: every pair again
        for warm in (False, True):
            for a in elems:
                for b in elems:
                    assert ring.mul(a, b) == fresh_product(ring, a, b), (ring, a, b, warm)
    monkeypatch.setattr(rings, "_pdivmod", counted)
    for ring in built:
        elems = [e.data for e in ring.elements()]
        for a in elems:
            for b in elems:
                ring.mul(a, b)
    assert divisions == []
    # an infinite quotient ring remembers nothing
    assert QuotientRing(Rationals(), [1, 0, 1], "t")._mul_memo is None


def reference_pdivmod(base, a, b):
    """Long division as rings._pdivmod did it, trimming the remainder
    again on every step and always scaling by the inverse leading
    coefficient."""
    b = rings._ptrim(base, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lc_inv = base.inv(b[-1])
    r = list(a)
    q = [base.zero_data()] * max(0, len(a) - len(b) + 1)
    while len(rings._ptrim(base, r)) >= len(b):
        r = list(rings._ptrim(base, r))
        d = len(r) - len(b)
        c = base.mul(r[-1], lc_inv)
        q[d] = c
        for i, y in enumerate(b):
            r[d + i] = base.add(r[d + i], base.neg(base.mul(c, y)))
    return rings._ptrim(base, q), rings._ptrim(base, r)


@pytest.mark.parametrize("base", [PrimeField(3), PrimeField(5), Rationals()],
                         ids=["GF(3)", "GF(5)", "QQ"])
def test_one_pass_division_matches_the_reference(base):
    # seeded dividends of degree -1 to 7, some with trailing zeros, over
    # divisors of degree 0 to 4, monic or not, some with trailing zeros
    rng = random.Random(13)

    def coeff():
        if isinstance(base, Rationals):
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return base.from_int(rng.randrange(base.p))

    def poly(n):
        return tuple(coeff() for _ in range(n)) + (base.zero_data(),) * rng.randrange(2)

    seen = {True: 0, False: 0}
    for _ in range(300):
        b = poly(rng.randrange(5)) + (base.one_data() if rng.randrange(2) else coeff(),)
        if not rings._ptrim(base, b):
            continue
        b = b + (base.zero_data(),) * rng.randrange(2)
        a = poly(rng.randrange(9))
        assert rings._pdivmod(base, a, b) == reference_pdivmod(base, a, b), (a, b)
        seen[rings._ptrim(base, b)[-1] == base.one_data()] += 1
    assert seen[True] and seen[False]
    with pytest.raises(ZeroDivisionError):
        rings._pdivmod(base, (base.one_data(),), (base.zero_data(),))


MEMO_MAPS = {
    "GF(9)": ["id", "frobenius"],
    "GF(3)[t]/(t^3)": ["id", "t->-t"],
    "GF(9)[t]/(t^2)": ["id", "t->-t", "u->u^3, t->t"],
    "GF(25)": ["id", "frobenius"],
    "GF(5)[t]/(t^2+2)": ["id", "frobenius"],
}


@pytest.mark.parametrize("text", MEMO_RINGS)
def test_remembered_involutions_match_fresh_images(text):
    # every involution of one ring object is built before the checks, so a
    # memo shared between two maps of the ring would show
    R = parse_ring(text)
    sigmas = [parse_involution(R, spec).sigma for spec in MEMO_MAPS[text]]
    for sigma in sigmas:
        for x in R.elements():
            fresh = sigma._apply(R, x.data, list(sigma.images))
            for _ in ("cold", "warm"):
                assert sigma(x) == fresh, (sigma, x)
            assert sigma(sigma(x)) == x


def test_module_coerces_annihilators_and_refuses_another_rings():
    R = QuotientRing(PrimeField(3), [0, 0, 1], "t")
    rwi = involution(R, "id")
    t = R.gen("t")
    M = rwi.module([t, R.zero])
    assert M.factors[0].ann is t
    # ints and raw data are coerced, and land on the same cached module
    assert rwi.module([t, 0]) is M
    assert rwi.module([[0, 1], [0, 0]]) is M
    for stranger in (PrimeField(3).one, QuotientRing(PrimeField(3), [0, 0, 0, 1], "t").gen("t")):
        with pytest.raises(RingMismatch):
            rwi.module([stranger])


# -- QQ(sqrt(d)) as the quotient QQ[g]/(g^2 - d) -----------------------------
#
# The (a, b) = a + b*g formulas of a hand-written quadratic field, kept as
# an oracle for the quotient ring QuadraticField(d) returns.


def qf_mul(d, x, y):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def qf_inv(d, x):
    """The conjugate over the norm."""
    n = x[0] * x[0] - d * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def qf_format(d, x):
    a, b = x
    g = "i" if d == -1 else f"sqrt({d})"
    if b == 0:
        return str(a)
    bs = g if b == 1 else (f"-{g}" if b == -1 else f"{b}*{g}")
    if a == 0:
        return bs
    return f"{a} + {bs}" if not bs.startswith("-") else f"{a} - {bs[1:]}"


def _pairs(seed, count=12):
    rng = random.Random(seed)
    coords = [Fraction(0), Fraction(1), Fraction(-1)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)]
    return [(rng.choice(coords), rng.choice(coords)) for _ in range(count)]


@pytest.mark.parametrize("d", [-1, 2, 3, -5])
def test_quadratic_field_matches_the_pair_formulas(d):
    K = QuadraticField(d)
    assert isinstance(K, QuotientRing) and K.is_field and not K.is_finite
    assert K.scalar_dim() == 2
    xs = _pairs(d)
    for x in xs:
        ex = K.el(x)
        assert ex.data == x
        assert str(ex) == qf_format(d, x)
        assert parse_element(K, str(ex)) == ex
        if x != (0, 0):
            assert ex.inverse().data == qf_inv(d, x)
        for y in xs[:4]:
            assert (ex * K.el(y)).data == qf_mul(d, x, y)


@pytest.mark.parametrize("d, message", [
    (0, "d must be a squarefree integer != 0, 1"),
    (1, "d must be a squarefree integer != 0, 1"),
    (8, "8 is not squarefree"),
    (-12, "-12 is not squarefree"),
])
def test_quadratic_field_keeps_its_validation(d, message):
    with pytest.raises(WittKitError) as info:
        QuadraticField(d)
    assert str(info.value) == message


@pytest.mark.parametrize("text, field", [
    ("QQ[t]/(t^2+1)", True),
    ("QQ[t]/(t^2-2)", True),
    ("QQ[t]/(t^2+t+1)", True),
    ("QQ[t]/(t^2)", False),
    ("QQ[t]/(t^2-1)", False),
    ("QQ[t]/(t^2-1/4)", False),
    # every other infinite base or degree is not decided, and reads False
    ("QQ[t]/(t^3-2)", False),
    ("QQ(i)[t]/(t^2+1)", False),
])
def test_degree_two_over_qq_is_a_field_by_its_discriminant(text, field):
    assert parse_ring(text).is_field is field


def test_a_quadratic_quotient_describes_itself_by_its_constructor():
    K = parse_ring("QQ[i]/(i^2+1)")
    assert K == QuadraticField(-1)
    assert str(K) == "QQ(i)"
    assert str(QuadraticField(-5)) == "QQ(sqrt(-5))"
    assert parse_ring(str(QuadraticField(-5))) == QuadraticField(-5)
    # the same modulus on another variable is a field, but not QQ(i)
    R = parse_ring("QQ[t]/(t^2+1)")
    assert R.is_field and R != K
    assert str(R) == "QQ[t]/(1 + t^2)"


def test_conj_is_g_to_minus_g_on_a_quadratic_quotient():
    R = parse_ring("QQ[t]/(t^2+1)")
    assert involution(R, "conj").conj(R.gen("t")) == -R.gen("t")
    for ring in (parse_ring("QQ[t]/(t^2+t+1)"), parse_ring("QQ[t]/(t^2)"), GF(9), Rationals()):
        with pytest.raises(WittKitError) as info:
            involution(ring, "conj")
        assert str(info.value) == "conj needs a quadratic field"


def test_a_map_out_of_qq_i_checks_the_modulus():
    K = QuadraticField(-1)
    with pytest.raises(NotAHomomorphism) as info:
        RingMap(K, K, [K.el(2) * K.gen("i")])
    assert str(info.value) == "modulus of QQ(i) does not vanish on the generator image"
    conj = RingMap(K, K, [-K.gen("i")])
    z = K.el((Fraction(1, 2), Fraction(-3)))
    assert conj(z).data == (Fraction(1, 2), Fraction(3))


def test_quotients_over_qq_print_minus_signs_as_subtraction():
    R = parse_ring("QQ[t]/(t^3)")
    t = R.gen("t")
    assert [str(x) for x in (-t, R.one - t, 2 - 3 * t * t, -R.one - t)] == ["-t", "1 - t", "2 - 3*t^2", "-1 - t"]
    assert str(parse_ring("QQ[t]/(t^2-t-1)")) == "QQ[t]/(-1 - t + t^2)"
    for x in (-t, R.one - t, 2 - 3 * t * t):
        assert parse_element(R, str(x)) == x
