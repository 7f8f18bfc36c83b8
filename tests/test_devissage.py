"""The paper's headline comparisons: devissage along R -> k and its
factorization through an invariant quotient R -> R/J -> k.

Expected values: W(F3) = Z/4, and the socle twist of sigma(t) = -t turns
eps over R into -eps over k, where the skew Witt group of F3 vanishes.
GF(3)[t]/(t^3) at bound 3 is pinned as the engine computes it (ROADMAP
D3): the relation [f] + [-f] = 0 needs length 2*len(f), so some R-classes
stay free below the stable bound."""

import itertools
from types import SimpleNamespace

import pytest

from wittkit.coefficients import standard_coefficient
from wittkit.devissage import (
    DevissageData,
    verify_devissage,
    verify_localcase_factorization,
)
from wittkit.errors import (
    IdealNotInvariant,
    ImproperIdeal,
    InvalidBound,
    MaxIdealNotInvariant,
    NotGorenstein,
    WittKitError,
)
from wittkit.parser import parse_ring_with_involution
from wittkit.rings import Element, PrimeField, Ring
from wittkit.wittgroup import witt_group


def rwi(text):
    return parse_ring_with_involution(text)


@pytest.mark.parametrize(
    "sigma, epsilon, group",
    [
        ("id", 1, "Z/4"),
        ("id", -1, "0"),
        ("t->-t", 1, "0"),
        ("t->-t", -1, "Z/4"),
    ],
)
def test_devissage_is_an_isomorphism_over_f3_dual_numbers(sigma, epsilon, group):
    rep = verify_devissage(rwi(f"GF(3)[t]/(t^2), sigma={sigma}"), epsilon, 3)
    assert rep.describe() == "ISOMORPHISM (stable)"
    assert rep.well_defined and rep.kernel_trivial and rep.cokernel_trivial
    assert rep.source.describe() == rep.target.describe() == f"{group} (stable)"


@pytest.mark.parametrize(
    "ring, sigma, epsilon, group",
    [
        # W(F5) = Z/2 x Z/2, since 5 = 1 mod 4
        ("GF(5)[t]/(t^2)", "id", 1, "Z/2 x Z/2"),
        # the socle twist turns eps = -1 over R into symmetric forms over F5
        ("GF(5)[t]/(t^2)", "t->-t", -1, "Z/2 x Z/2"),
        # ... and eps = +1 into alternating forms over (F9, id), whose Witt group is 0
        ("GF(9)[t]/(t^2)", "t->-t", 1, "0"),
    ],
)
def test_devissage_is_an_isomorphism_over_f5_and_f9_dual_numbers(ring, sigma, epsilon, group):
    rep = verify_devissage(rwi(f"{ring}, sigma={sigma}"), epsilon, 2)
    assert rep.describe() == "ISOMORPHISM (stable)"
    assert rep.source.describe() == rep.target.describe() == f"{group} (stable)"


def test_devissage_over_t_cubed_is_an_isomorphism_at_bound_four():
    rep = verify_devissage(rwi("GF(3)[t]/(t^3), sigma=id"), 1, 4)
    assert rep.describe() == "ISOMORPHISM (stable)"
    assert rep.well_defined and rep.kernel_trivial and rep.cokernel_trivial
    assert rep.source.describe() == rep.target.describe() == "Z/4 (stable)"


def test_devissage_over_t_cubed_is_unstable_at_bound_three():
    rep = verify_devissage(rwi("GF(3)[t]/(t^3), sigma=id"), 1, 3)
    assert rep.describe() == "NOT AN ISOMORPHISM (unstable)"
    assert rep.source.describe() == "Z/4 (stable)"
    assert rep.target.describe() == "Z/4 x Z x Z (unstable)"


def test_localcase_diagram_commutes_over_t_cubed():
    R = rwi("GF(3)[t]/(t^3), sigma=id")
    rep = verify_localcase_factorization(R, R.ring.gen("t") ** 2, 1, 2)
    assert rep.diagram_commutes
    assert rep.diagram_checked == 4


class SquareZeroPlane(Ring):
    """GF(3)[s, t]/(s, t)^2, coefficients of (1, s, t): a local ring whose
    socle (s, t) has dimension 2, so it is not Gorenstein."""

    char = 3

    def key(self):
        return ("square-zero plane", 3)

    def describe(self):
        return "GF(3)[s,t]/(s,t)^2"

    def zero_data(self):
        return (0, 0, 0)

    def one_data(self):
        return (1, 0, 0)

    def from_int(self, n):
        return (n % 3, 0, 0)

    def normalize(self, x):
        return tuple(int(c) % 3 for c in x)

    def add(self, a, b):
        return tuple((x + y) % 3 for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % 3 for x in a)

    def mul(self, a, b):
        return (a[0] * b[0] % 3, (a[0] * b[1] + a[1] * b[0]) % 3, (a[0] * b[2] + a[2] * b[0]) % 3)

    def is_unit(self, a):
        return a[0] != 0

    def elements(self):
        return (Element(self, d) for d in itertools.product(range(3), repeat=3))

    def scalar_field(self):
        return PrimeField(3)

    def scalar_dim(self):
        return 3

    def to_svec(self, data):
        return data

    def from_svec(self, vec):
        return tuple(vec)


def test_non_gorenstein_ring_is_rejected():
    # the socle is checked before the involution is read
    with pytest.raises(NotGorenstein):
        DevissageData(SimpleNamespace(ring=SquareZeroPlane()))


def test_sigma_moving_the_maximal_ideal_is_rejected():
    # a ring map of k[t]/(t^n) sends t into (t), since t is nilpotent, so
    # only a stand-in sigma (here x -> x + 1) can move (t)
    ring = rwi("GF(3)[t]/(t^3), sigma=id").ring
    with pytest.raises(MaxIdealNotInvariant, match="out of the maximal ideal"):
        DevissageData(SimpleNamespace(ring=ring, conj=lambda x: x + ring.one))


def test_non_local_ring_is_rejected():
    with pytest.raises(WittKitError, match="is not local"):
        DevissageData(rwi("GF(3)xGF(3), sigma=swap"))


def test_improper_ideals_are_rejected():
    R = rwi("GF(3)[t]/(t^3), sigma=id")
    with pytest.raises(ImproperIdeal):
        verify_localcase_factorization(R, R.ring.one, 1, 2)
    F = rwi("GF(3), sigma=id")
    with pytest.raises(ImproperIdeal):
        verify_localcase_factorization(F, F.ring.one, 1, 2)


def test_ideal_moved_by_sigma_is_rejected():
    # every involution of k[t]/(t^n) keeps the t-adic valuation, so J = (t^2)
    # can only escape itself under a stand-in sigma sending t^2 to t
    data = DevissageData(rwi("GF(3)[t]/(t^3), sigma=id"))
    t = data.ring.gen("t")
    data.rwi = SimpleNamespace(ring=data.ring, conj=lambda x: t)
    with pytest.raises(IdealNotInvariant):
        verify_localcase_factorization(data, t ** 2, 1, 2)


@pytest.mark.parametrize("bound", [0, -1])
def test_bounds_below_one_are_rejected(bound):
    R = rwi("GF(3)[t]/(t^3), sigma=id")
    with pytest.raises(InvalidBound):
        witt_group(standard_coefficient(R), 1, bound)
    with pytest.raises(InvalidBound):
        verify_devissage(R, 1, bound)
    with pytest.raises(InvalidBound):
        verify_localcase_factorization(R, R.ring.gen("t") ** 2, 1, bound)
