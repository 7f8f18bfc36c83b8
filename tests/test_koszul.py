"""Koszul complexes of regular sequences and the conormal sign."""

import pytest

from wittkit.errors import EngineError, IdealNotInvariant, ImproperIdeal, WittKitError
from wittkit.koszul import (
    FreeComplex,
    RegularSequenceData,
    conormal_sign,
    involution_transport,
    koszul_complex,
    sequence_combination,
)
from wittkit.linalg import Matrix
from wittkit.rings import PolynomialRing, PrimeField, Rationals, involution


def qt():
    R = PolynomialRing(Rationals(), ["t"])
    return R, R.gen("t")


def qxy():
    R = PolynomialRing(Rationals(), ["X", "Y"])
    return R, R.gen("X"), R.gen("Y")


def test_d_squared_enforced():
    F3 = PrimeField(3)
    one = F3.one
    with pytest.raises(WittKitError):
        FreeComplex(F3, {0: 1, 1: 1, 2: 1}, {0: Matrix(F3, [[one]]), 1: Matrix(F3, [[one]])})


def test_misshapen_differential_rejected():
    F3 = PrimeField(3)
    one = F3.one
    with pytest.raises(WittKitError, match="d\\^0 must be 1x2, got 1x1"):
        FreeComplex(F3, {0: 2, 1: 1}, {0: Matrix(F3, [[one]])})


def test_free_complex_keeps_nonzero_ranks_and_fills_zero_differentials():
    F3 = PrimeField(3)
    one = F3.one
    E = FreeComplex(F3, {-1: 0, 0: 2, 1: 1}, {-1: Matrix(F3, [[one], [one]])})
    assert E.degrees() == [0, 1]
    assert (E.rank(-1), E.rank(0), E.rank(1), E.rank(2)) == (0, 2, 1, 0)
    assert E.diffs == {}
    assert E.diff(0) == Matrix.zeros(F3, 1, 2)
    assert repr(E) == "FreeComplex(GF(3), 2@0 -> 1@1)"
    assert repr(FreeComplex(F3, {})) == "FreeComplex(GF(3), zero)"


def test_single_variable_complex():
    R, t = qt()
    data = RegularSequenceData(R, [t])
    K = koszul_complex(data)
    assert sorted(K.degrees()) == [-1, 0]
    assert K.rank(-1) == 1 and K.rank(0) == 1
    assert K.diff(-1) == Matrix(R, [[t]])


def test_two_variable_complex():
    R, X, Y = qxy()
    data = RegularSequenceData(R, [X, Y])
    K = koszul_complex(data)
    assert sorted(K.degrees()) == [-2, -1, 0]
    assert [K.rank(d) for d in (-2, -1, 0)] == [1, 2, 1]
    assert K.diff(-1) == Matrix(R, [[X, Y]])
    assert K.diff(-2) == Matrix(R, [[-Y], [X]])


def test_reduction_mod_linear_ideal():
    R, X, Y = qxy()
    data = RegularSequenceData(R, [X - Y])
    assert data.reduce(X) == Y
    assert data.reduce(X * Y) == Y * Y
    assert data.in_ideal(X - Y)
    assert not data.in_ideal(X)


def test_improper_and_dependent_sequences():
    R, X, Y = qxy()
    with pytest.raises(ImproperIdeal):
        RegularSequenceData(R, [R.one])
    with pytest.raises(ImproperIdeal):
        RegularSequenceData(R, [X - Y + R.one, X - Y])
    with pytest.raises(WittKitError):
        RegularSequenceData(R, [X, X + X])


def test_conormal_sign_swap_on_difference():
    R, X, Y = qxy()
    rwi = involution(R, {"X": Y, "Y": X})
    data = RegularSequenceData(R, [X - Y])
    report = involution_transport(data, rwi)
    assert report["all_pass"]
    assert report["matrix"] == Matrix(R, [[-R.one]])
    assert conormal_sign(data, rwi) == -R.one


def test_conormal_sign_one_variable():
    R, t = qt()
    data = RegularSequenceData(R, [t])
    assert conormal_sign(data, involution(R, {"t": t})) == R.one
    assert conormal_sign(data, involution(R, {"t": -t})) == -R.one


def test_conormal_sign_two_variables():
    R, X, Y = qxy()
    data = RegularSequenceData(R, [X, Y])
    swap = involution(R, {"X": Y, "Y": X})
    report = involution_transport(data, swap)
    assert report["all_pass"]
    zero, one = R.zero, R.one
    assert report["matrix"] == Matrix(R, [[zero, one], [one, zero]])
    assert conormal_sign(data, swap) == -one
    ident = involution(R, {"X": X, "Y": Y})
    assert conormal_sign(data, ident) == one


def test_sign_invariant_under_rescaling():
    R, X, Y = qxy()
    swap = involution(R, {"X": Y, "Y": X})
    five = R.el(5)
    data = RegularSequenceData(R, [five * (X - Y)])
    assert conormal_sign(data, swap) == -R.one


def test_ideal_must_be_invariant():
    R, X, Y = qxy()
    swap = involution(R, {"X": Y, "Y": X})
    data = RegularSequenceData(R, [X])
    with pytest.raises(IdealNotInvariant):
        involution_transport(data, swap)


def test_univariate_higher_degree():
    R, t = qt()
    data = RegularSequenceData(R, [t * t])
    K = koszul_complex(data)
    assert K.diff(-1) == Matrix(R, [[t * t]])
    assert data.reduce(t ** 3 + t + R.one) == R.one + t
    assert conormal_sign(data, involution(R, {"t": -t})) == R.one


def test_sequence_combination_solves_constants():
    R, X, Y = qxy()
    data = RegularSequenceData(R, [X, Y])
    from wittkit.rings import Element

    comb = sequence_combination(data, [Y, X])
    assert comb is not None
    for i, target in enumerate([Y, X]):
        acc = R.zero
        for j, gen in enumerate(data.sequence):
            lift = Element(R, R.normalize(comb[i][j].data))
            acc = acc + lift * gen
        assert acc == target
    assert sequence_combination(data, [R.one]) is None


def test_transport_passes_every_square_on_invariant_sequences():
    R, X, Y = qxy()
    swap = involution(R, {"X": Y, "Y": X})
    for seq, rwi in (([X - Y], swap), ([X, Y], swap), ([X, Y], involution(R, "id"))):
        report = involution_transport(RegularSequenceData(R, seq), rwi)
        assert report["beta_square"] == (True, None)
        assert report["all_pass"]
    # sigma swaps the two generators, so A is the swap matrix
    A = involution_transport(RegularSequenceData(R, [X, Y]), swap)["matrix"]
    assert A == Matrix(R, [[R.zero, R.one], [R.one, R.zero]])


def test_beta_square_names_the_first_generator_whose_image_escapes():
    R, X, Y = qxy()
    swap = involution(R, {"X": Y, "Y": X})
    data = RegularSequenceData(R, [X - Y])
    assert involution_transport(data, swap)["beta_square"] == (True, None)
    # an ideal test that refuses sigma(X - Y) = Y - X: the square fails there
    data.in_ideal = lambda e: e != Y - X
    report = involution_transport(data, swap)
    assert report["beta_square"] == (False, X - Y)
    assert report["augmentation_square"] == (True, None)
    assert report["chain_map"] == (True, None)
    assert not report["all_pass"]
