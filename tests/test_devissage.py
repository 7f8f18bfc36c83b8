"""The paper's headline comparisons: devissage along R -> k and its
factorization through an invariant quotient R -> R/J -> k.

Expected values: W(F3) = Z/4, and the socle twist of sigma(t) = -t turns
eps over R into -eps over k, where the skew Witt group of F3 vanishes.
GF(3)[t]/(t^3) at bound 3 is pinned as the engine computes it (ROADMAP
D3): the relation [f] + [-f] = 0 needs length 2*len(f), so some R-classes
stay free below the stable bound."""

import re

import pytest

from wittkit.coefficients import standard_coefficient
from wittkit.devissage import (
    DevissageData,
    verify_devissage,
    verify_localcase_factorization,
)
from wittkit.errors import (
    EnumerationBoundExceeded,
    ImproperIdeal,
    InvalidBound,
    WittKitError,
)
from wittkit.parser import parse_element, parse_ring_with_involution
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


@pytest.mark.parametrize("text", [
    "GF(3)xGF(3), sigma=swap",
    "GF(3)[x]/((x-1)^2), sigma=id",
    "GF(5)[x]/(x^2+1), sigma=x->4*x",
    "GF(3)[t]/(t^2)xGF(3)[t]/(t^2), sigma=swap",
    "GF(3)xGF(9), sigma=id",
])
def test_a_ring_that_is_not_one_chain_ring_has_no_residue_tower(text):
    # two chain components, or none that the module theory knows
    R = rwi(text)
    with pytest.raises(WittKitError, match=f"^no residue tower for {re.escape(str(R.ring))}$"):
        DevissageData(R)


# every t-adic ring with involution that the CLI goldens, bench/workloads.py
# and this file run devissage or the localcase factorization on; the
# quotient GF(3)[t]/(t^2), sigma=id is also the R/J of the localcase query
T_ADIC = [
    "GF(3)[t]/(t^2), sigma=id",
    "GF(3)[t]/(t^2), sigma=t->-t",
    "GF(3)[t]/(t^3), sigma=id",
    "GF(3)[t]/(t^4), sigma=t->-t",
    "GF(5)[t]/(t^2), sigma=id",
    "GF(5)[t]/(t^2), sigma=t->-t",
    "GF(9)[t]/(t^2), sigma=t->-t",
    "GF(9)[t]/(t^2), sigma=u->u^3, t->t",
]


@pytest.mark.parametrize("text", T_ADIC)
def test_the_enumerated_devissage_preconditions_hold(text):
    """The element-by-element checks that DevissageData and
    verify_localcase_factorization no longer make, kept as an oracle:
    the ring is local, its socle has dimension 1 over the residue field,
    sigma keeps the maximal ideal, and sigma keeps the t-adic valuation,
    so it keeps every ideal J = (t^m)."""
    R = rwi(text)
    ring = R.ring
    elements = list(ring.elements())
    # a nilpotent x of a ring of scalar dimension d has x^d = 0
    d = ring.scalar_dim()
    maximal = {x.data for x in elements if (x ** d).is_zero()}
    assert all(x * x.inverse() == ring.one for x in elements if x.data not in maximal)
    residue_size = len(elements) // len(maximal)
    socle = [x for x in elements if all((x * ring.el(y)).is_zero() for y in maximal)]
    assert len(socle) == residue_size
    assert all(R.conj(ring.el(y)).data in maximal for y in maximal)

    t = ring.gen(ring.var)
    ideals = [{(t ** m * x).data for x in elements} for m in range(ring.n + 1)]

    def valuation(x):
        return max(m for m, ideal in enumerate(ideals) if x.data in ideal)

    assert valuation(R.conj(t)) == 1
    assert all(valuation(R.conj(x)) == valuation(x) for x in elements)


def test_improper_ideals_are_rejected():
    R = rwi("GF(3)[t]/(t^3), sigma=id")
    with pytest.raises(ImproperIdeal, match="^J is the unit ideal$"):
        verify_localcase_factorization(R, R.ring.one, 1, 2)
    F = rwi("GF(3), sigma=id")
    with pytest.raises(ImproperIdeal, match="^a field has no proper nonzero ideal$"):
        verify_localcase_factorization(F, F.ring.one, 1, 2)


@pytest.mark.parametrize(
    "text, J, epsilon, bound, classes",
    [
        # T = k, and J = 0 twice (t^3 is 0 in R), where the general quotient T = R/(t^3) is R
        ("GF(3)[t]/(t^3), sigma=id", "t", 1, 4, 8),
        ("GF(3)[t]/(t^3), sigma=id", "0", 1, 4, 8),
        ("GF(3)[t]/(t^3), sigma=id", "t^3", 1, 4, 8),
        # R a field, so T = R = k
        ("GF(3), sigma=id", "0", 1, 3, 6),
        ("GF(9), sigma=frobenius", "0", 1, 3, 3),
        # T = k with the induced involution of a twisted sigma
        ("GF(3)[t]/(t^2), sigma=t->-t", "t", -1, 3, 6),
    ],
)
def test_localcase_branches_outside_the_general_quotient(text, J, epsilon, bound, classes):
    R = rwi(text)
    rep = verify_localcase_factorization(R, parse_element(R.ring, J), epsilon, bound)
    assert rep.describe() == (f"diagram commutes on all {classes} classes; "
                              "p_*: ISOMORPHISM (stable)")


@pytest.mark.parametrize("bound", [0, -1])
def test_bounds_below_one_are_rejected(bound):
    R = rwi("GF(3)[t]/(t^3), sigma=id")
    with pytest.raises(InvalidBound):
        witt_group(standard_coefficient(R), 1, bound)
    with pytest.raises(InvalidBound):
        verify_devissage(R, 1, bound)
    with pytest.raises(InvalidBound):
        verify_localcase_factorization(R, R.ring.gen("t") ** 2, 1, bound)


def test_localcase_keeps_the_engine_size_limit():
    R = rwi("GF(3)[t]/(t^3), sigma=id")
    with pytest.raises(EnumerationBoundExceeded, match="exceeds the engine limit 400000"):
        verify_localcase_factorization(R, R.ring.gen("t") ** 2, 1, 99)


@pytest.mark.parametrize("epsilon", [1, -1])
def test_hermitian_devissage_over_f9_dual_numbers(epsilon):
    # sigma is the Frobenius u -> u^3 on the coefficients and fixes t, so
    # the residue field carries the hermitian involution of F9/F3, whose
    # Witt group is Z/2 for both signs
    rep = verify_devissage(rwi("GF(9)[t]/(t^2), sigma=u->u^3, t->t"), epsilon, 2)
    assert rep.describe() == "ISOMORPHISM (stable)"
    assert rep.source.describe() == rep.target.describe() == "Z/2 (stable)"
