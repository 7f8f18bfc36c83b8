"""Descriptor parsing: what the library prints parses back to the same
object, and a syntax error names the line and the column it sits at."""

import pytest

from wittkit.errors import ParseError
from wittkit.parser import (
    parse_element,
    parse_gram,
    parse_involution,
    parse_ring,
    parse_ring_with_involution,
    parse_tower,
)

RINGS = [
    "GF(3)",
    "GF(9)/GF(3)",
    "QQ",
    "QQ(i)",
    "QQ(sqrt(-5))",
    "GF(3)[t]/(t^3)",
    "GF(9)/GF(3)[t]/(t^2)",
    "QQ[X,Y]",
    "QQ(i)[X,Y]",
    "GF(3)xGF(3)",
    # a field quotient with another modulus than GF(25)'s prints it
    "GF(5)[t]/(2 + t^2)",
]


@pytest.mark.parametrize("text", RINGS)
def test_ring_descriptors_round_trip(text):
    ring = parse_ring(text)
    assert str(ring) == text
    assert parse_ring(str(ring)) == ring


@pytest.mark.parametrize("text", ["GF(5)[t]/(t^2+2)", "GF(3)[u]/(u^2+u+2)", "GF(3)[u]/(u^2+1)"])
def test_field_quotients_describe_their_modulus(text):
    # GF(9) is GF(3)[u]/(u^2+1), so only that ring prints as GF(9)/GF(3)
    ring = parse_ring(text)
    assert parse_ring(str(ring)) == ring
    assert str(ring).startswith("GF(9)/") == (ring == parse_ring("GF(9)"))


def test_frobenius_on_a_non_field_names_the_assignment_spelling():
    text = "GF(9)[t]/(t^2), sigma=frobenius"
    with pytest.raises(ParseError) as info:
        parse_ring_with_involution(text)
    hint = "sigma=u->u^3, t->t"
    assert str(info.value) == (
        "frobenius needs a finite field extension; on GF(9)/GF(3)[t]/(t^2) give the "
        f"generator images instead, as in {hint} (line 1, column 23)"
    )
    rwi = parse_ring_with_involution("GF(9)[t]/(t^2), " + hint)
    u = rwi.ring.gen("u")
    assert rwi.conj(u) == u ** 3


@pytest.mark.parametrize("text", ["GF(9)/GF(3)", "GF(3)[t]/(t^3)", "GF(9)/GF(3)[t]/(t^2)"])
def test_every_element_of_a_finite_ring_round_trips(text):
    # over GF(9)[t]/(t^2) a coefficient such as 1 + u must print in
    # parentheses: (1 + u)*t, not 1 + u*t
    ring = parse_ring(text)
    for x in ring.elements():
        assert parse_element(ring, str(x)) == x, str(x)


@pytest.mark.parametrize(
    "text, written, printed",
    [
        ("QQ(i)[X,Y]", "(1-i)*X^2 - i*Y", "-i*Y + (1 - i)*X^2"),
        # a constant of a polynomial ring over QQ(i) is inverted in QQ(i)
        ("QQ(i)[X,Y]", "X/(1+i)", "(1/2 - 1/2*i)*X"),
        ("QQ(sqrt(-5))", "1/(1 + sqrt(-5))", "1/6 - 1/6*sqrt(-5)"),
    ],
)
def test_written_elements_print_and_parse_back(text, written, printed):
    ring = parse_ring(text)
    x = parse_element(ring, written)
    assert str(x) == printed
    assert parse_element(ring, printed) == x


def test_gram_tables_round_trip_through_printed_entries():
    ring = parse_ring("GF(9)/GF(3)[t]/(t^2)")
    u, t = ring.gen("u"), ring.gen("t")
    rows = [[u * t + t, ring.one], [ring.one, -u]]
    text = "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in rows) + "]"
    assert parse_gram(ring, text) == rows


def test_involution_clause_spellings_agree():
    a = parse_ring_with_involution("GF(3)[t]/(t^2), sigma=t->-t")
    b = parse_ring_with_involution("GF(3)[t]/(t^2) with sigma: t -> 2*t")
    assert a.ring == b.ring
    t = a.ring.gen("t")
    assert a.conj(t) == b.conj(t) == -t


@pytest.mark.parametrize(
    "tower, spec",
    [("GF(3), sigma=id -> GF(9)/GF(3), sigma=frobenius", "id"),
     ("GF(3)[t]/(t^3), sigma=id -> GF(3)", "id"),
     ("GF(3)xGF(3), sigma=swap -> GF(3)xGF(3)", "swap"),
     ("GF(3)[t]/(t^2), sigma=t->-t -> GF(3)", "t->-t")],
)
def test_a_tower_source_takes_the_descriptor_involution_clause(tower, spec):
    src, dst, pi = parse_tower(tower)
    assert src == parse_involution(src.ring, spec)
    assert pi.src == src.ring and pi.dst == dst.ring


def test_a_generator_named_id_is_still_assigned():
    rwi = parse_ring_with_involution("GF(3)[id]/(id^2), sigma=id->-id")
    x = rwi.ring.gen("id")
    assert rwi.conj(x) == -x
    assert parse_ring_with_involution("GF(3)[id]/(id^2), sigma=id").is_trivial()


@pytest.mark.parametrize(
    "parse, text, message, line, col",
    [
        (parse_ring, "GF(3) $", "unexpected character '$'", 1, 7),
        (parse_ring, "GF(3)\n\n  [t]/(t^2) ?", "unexpected character '?'", 3, 13),
        (parse_ring, "GF(3)\n)", "unexpected trailing input ')'", 2, 1),
        (parse_ring, "GF(3)[t]/(t^2", "expected ')', found end of input", 1, 14),
        (parse_ring, "", "expected a ring, found end of input", 1, 1),
        (parse_ring, "ZZ", "unknown ring constructor 'ZZ'", 1, 1),
        (parse_ring, "GF(9)/GF(5)", "GF(9)/GF(5): base must be the prime field GF(3)", 1, 11),
        (parse_ring, "GF(3)[t]/(3)", "modulus must have degree >= 1", 1, 12),
        (parse_ring_with_involution, "GF(3)[t]/(t^2),\n  sigma=s->t",
         "'s' is not a generator of GF(3)[t]/(t^2)", 2, 9),
        (parse_ring_with_involution, "GF(3), sigma=\n frobenius",
         "frobenius needs a finite field extension", 2, 2),
    ],
)
def test_parse_errors_carry_line_and_column(parse, text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == f"{message} (line {line}, column {col})"
