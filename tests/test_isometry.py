"""Isometry witnesses are congruences.

isometric(f1, f2) returns images of the cyclic generators of f1's module.
On seeded Gram tables of length <= 4 each list it returns must define an
R-linear map (image i killed by the annihilator of factor i) that preserves
every Gram entry under evaluate and whose R-span is all of f2's module.
The targets are the engine's class representatives, which are orthogonal
sums with composed tables, and other sampled tables on the same shape."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wittkit.coefficients import standard_coefficient
from wittkit.forms import isometric
from wittkit.linalg import Matrix
from wittkit.parser import parse_ring_with_involution
from wittkit.rings import Element
from wittkit.wittgroup import WittEngine, sample_gram_tables

CASES = [
    ("GF(3), sigma=id", 1),
    ("GF(3), sigma=id", -1),
    ("GF(5), sigma=id", 1),
    ("GF(9), sigma=frobenius", 1),
    ("GF(3)[t]/(t^2), sigma=id", 1),
    ("GF(3)[t]/(t^2), sigma=t->-t", 1),
    ("GF(3)[t]/(t^2), sigma=t->-t", -1),
    ("GF(3)[t]/(t^3), sigma=id", 1),
    ("GF(3)xGF(3), sigma=swap", 1),
]

_ENGINES = {}


def engine_for(case):
    if case not in _ENGINES:
        text, epsilon = case
        rwi = parse_ring_with_involution(text)
        _ENGINES[case] = WittEngine(standard_coefficient(rwi), epsilon)
    return _ENGINES[case]


def assert_congruence(f1, f2, images):
    M1, M2 = f1.module, f2.module
    gens = M1.generators()
    assert len(images) == len(gens)
    for fac, img in zip(M1.factors, images):
        assert M2.is_zero(M2.scal(fac.ann, img))
    for i, (x, xi) in enumerate(zip(gens, images)):
        for j, (y, yj) in enumerate(zip(gens, images)):
            assert f2.evaluate(xi, yj) == f1.evaluate(x, y), (i, j)
    ring = M2.ring
    span = [list(M2.to_vec(M2.scal(Element(ring, d), img)))
            for img in images for d in ring.scalar_basis()]
    assert Matrix(M2.F, span).rank() == M2.sdim


WITNESS_CHECKS = settings(derandomize=True, max_examples=60, deadline=None)


@WITNESS_CHECKS
@given(st.sampled_from(CASES), st.data())
def test_isometry_witnesses_are_congruences(case, data):
    engine = engine_for(case)
    shapes = engine.shapes_up_to(4)
    module = shapes[data.draw(st.integers(0, len(shapes) - 1), label="shape")]
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    forms = [f for f in sample_gram_tables(engine.coef, module, engine.epsilon, 2, random.Random(seed))
             if f.is_nondegenerate(engine.dual_of(module))]
    assume(forms)
    for f in forms:
        rep = engine.lookup(f)
        images = isometric(f, rep)
        assert images is not None
        assert_congruence(f, rep, images)
        back = isometric(rep, f)
        assert back is not None
        assert_congruence(rep, f, back)
    if len(forms) == 2:
        images = isometric(forms[0], forms[1])
        if images is not None:
            assert_congruence(forms[0], forms[1], images)
