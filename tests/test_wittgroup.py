"""Witt group computations pinned against independently derived tables.

Field values below were computed two ways before being frozen: once by the
engine and once from the classical counts (W(F_q) has order 4 for q = 3
mod 4, is 2-torsion of order 4 for q = 1 mod 4, and the hermitian Witt
group of a quadratic extension is Z/2).  The quotient-ring values were
cross-checked by hand via the rank-and-socle filtration.
"""

import itertools
import random

import pytest

from wittkit import coefficients, wittgroup
from wittkit.coefficients import standard_coefficient
from wittkit.errors import EngineError, EnumerationBoundExceeded, NotFinite
from wittkit.forms import HermitianForm, diagonal_form, hyperbolic_form, is_metabolic, isometric
from wittkit.linalg import Matrix
from wittkit.devissage import DevissageData
from wittkit.modules import FLModule, free_module, indecomposable_factor_anns, is_nilpotent_quotient
from wittkit.parser import parse_ring_with_involution
from wittkit.rings import (
    GF,
    Element,
    PrimeField,
    ProductRing,
    QuotientRing,
    Rationals,
    involution,
)
from wittkit.wittgroup import (
    WittEngine,
    enumerate_gram_tables,
    group_name,
    sample_gram_tables,
    witt_group,
)


def std(ring, spec="id"):
    return standard_coefficient(involution(ring, spec))


def cross_validate_classes(engine, module, sample=None, rng=None):
    """Check the sum-closure class list against brute force: every
    nondegenerate Gram table on the module must match an enumerated class
    (EngineError otherwise).  With sample set, a seeded random subset is
    checked instead of the full enumeration.  Returns the number of
    nondegenerate forms checked."""
    if sample is not None:
        forms = sample_gram_tables(engine.coef, module, engine.epsilon, sample, rng)
    else:
        forms = enumerate_gram_tables(engine.coef, module, engine.epsilon)
    checked = 0
    for f in forms:
        if not f.is_nondegenerate():
            continue
        engine.lookup(f)
        checked += 1
    return checked


def test_symmetric_witt_group_of_f3():
    res = witt_group(std(PrimeField(3)), 1, 4)
    assert res.factors == [4]
    assert res.stable
    assert res.describe() == "Z/4 (stable)"


def test_f3_presentation_already_stable_at_bound_three():
    res = witt_group(std(PrimeField(3)), 1, 3)
    assert len(res.classes) == 6
    assert res.factors == [4]
    assert res.stable


def test_skew_witt_group_of_field_vanishes():
    res = witt_group(std(PrimeField(3)), -1, 4)
    assert res.factors == []
    assert res.describe() == "0 (stable)"


def test_symmetric_witt_group_of_f5():
    res = witt_group(std(PrimeField(5)), 1, 4)
    assert res.factors == [2, 2]
    assert group_name(res.factors) == "Z/2 x Z/2"
    assert res.stable


def test_hermitian_witt_group_of_f9():
    res = witt_group(std(GF(9), "frobenius"), 1, 4)
    assert res.factors == [2]
    assert res.stable


def test_hyperbolic_involution_kills_everything():
    F3 = PrimeField(3)
    res = witt_group(std(ProductRing(F3, F3), "swap"), 1, 4)
    assert res.factors == []
    assert res.stable


def test_witt_group_of_dual_numbers():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 1], "t")
    res = witt_group(std(R), 1, 4)
    assert len(res.classes) == 20
    assert res.factors == [4]
    assert res.stable


def test_unstable_presentation_is_reported():
    F3 = PrimeField(3)
    R = QuotientRing(F3, [0, 0, 0, 1], "t")
    res = witt_group(std(R), 1, 3)
    assert len(res.classes) == 14
    assert res.factors == [4, 0, 0]
    assert res.stable is False
    assert res.describe() == "Z/4 x Z x Z (unstable)"


def test_class_index_separates_and_coords_kill_metabolics():
    F3 = PrimeField(3)
    coef = std(F3)
    res = witt_group(coef, 1, 3)
    i1 = res.class_index(diagonal_form(coef, [F3.one]))
    i2 = res.class_index(diagonal_form(coef, [F3.el(2)]))
    assert i1 != i2
    hyp = hyperbolic_form(coef, free_module(coef.rwi, 1))
    n = len(res.classes)
    # [H] = 0, and [<1>] - [<2>] is not a relation
    assert res.presentation.contains([int(i == res.class_index(hyp)) for i in range(n)])
    assert not res.presentation.contains([int(i == i1) - int(i == i2) for i in range(n)])


def test_class_index_respects_the_bound():
    F3 = PrimeField(3)
    coef = std(F3)
    res = witt_group(coef, 1, 2)
    big = diagonal_form(coef, [F3.one, F3.one, F3.one])
    with pytest.raises(EnumerationBoundExceeded):
        res.class_index(big)


def test_second_lookup_of_a_form_runs_no_isometry_search(monkeypatch):
    F3 = PrimeField(3)
    coef = std(F3)
    real = wittgroup.isometric
    calls = []

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(wittgroup, "isometric", counting)
    engine = WittEngine(coef, 1)
    first = engine.lookup(diagonal_form(coef, [F3.one, F3.el(2)]))
    assert calls
    assert real(diagonal_form(coef, [F3.one, F3.el(2)]), first) is not None
    calls.clear()
    # an equal form built afresh: the answer is kept by content, not identity
    assert engine.lookup(diagonal_form(coef, [F3.one, F3.el(2)])) is first
    assert calls == []


def _counting_duals(monkeypatch):
    built = []
    real = coefficients.DualModule

    def counting(coef, source):
        built.append(source.key)
        return real(coef, source)

    monkeypatch.setattr(coefficients, "DualModule", counting)
    return built


def test_metabolic_builds_no_dual_the_form_does_not_need(monkeypatch):
    F3 = PrimeField(3)
    coef = std(F3)
    engine = WittEngine(coef, 1)
    split = diagonal_form(coef, [F3.one, F3.el(2)])
    aniso = diagonal_form(coef, [F3.one, F3.one])
    # nondegeneracy already settled on the form: no dual is asked for
    assert split.is_nondegenerate() and aniso.is_nondegenerate()
    asked = []
    monkeypatch.setattr(coef, "dual", lambda module: asked.append(module.key))
    assert engine.metabolic(split) is True
    assert engine.metabolic(aniso) is False
    assert asked == []


def test_metabolic_builds_no_dual_and_the_cached_dual_once_when_asked(monkeypatch):
    F3 = PrimeField(3)
    coef = std(F3)
    engine = WittEngine(coef, 1)
    built = _counting_duals(monkeypatch)
    forms = [diagonal_form(coef, [F3.el(a), F3.el(b)]) for a in (1, 2) for b in (1, 2)]
    answers = [engine.metabolic(f) for f in forms]
    # nondegeneracy is decided on the form's own tensor: no dual is built
    assert built == []
    assert coef.dual(forms[0].module) is coef.dual(forms[3].module)
    assert built == [forms[0].module.key]
    assert answers == [is_metabolic(f) for f in forms]
    assert answers == [False, True, True, False]


def test_engine_refuses_infinite_rings():
    with pytest.raises(NotFinite):
        WittEngine(std(Rationals()), 1)


def test_engine_size_guard_fires_before_enumeration():
    coef = std(GF(9), "frobenius")
    with pytest.raises(EnumerationBoundExceeded) as exc:
        witt_group(coef, 1, 2, max_size=8)
    assert "size 9 exceeds" in str(exc.value)


def test_gram_table_enumeration_and_guard():
    F3 = PrimeField(3)
    coef = std(F3)
    M = free_module(coef.rwi, 1)
    tables = list(enumerate_gram_tables(coef, M, 1))
    assert len(tables) == 3
    N = free_module(coef.rwi, 2)
    with pytest.raises(EnumerationBoundExceeded):
        list(enumerate_gram_tables(coef, N, 1, limit=2))


def test_cross_validation_on_small_shapes():
    F3 = PrimeField(3)
    coef = std(F3)
    engine = WittEngine(coef, 1)
    M = free_module(coef.rwi, 2)
    assert cross_validate_classes(engine, M) > 0


# (ring, epsilon, lengths): every shape of those lengths gets a seeded
# sample of Gram tables, and each nondegenerate one must match a class
DEEP_SAMPLES = [
    ("GF(3), sigma=id", 1, (5, 6)),
    ("GF(3), sigma=id", -1, (5, 6)),
    ("GF(3)[t]/(t^2), sigma=id", 1, (5, 6)),
    ("GF(5), sigma=id", 1, (5,)),
    ("GF(3)[t]/(t^2), sigma=t->-t", -1, (5,)),
    ("GF(3)[t]/(t^3), sigma=id", 1, (5, 6)),
    ("GF(3)xGF(3), sigma=swap", 1, (6,)),
]


@pytest.mark.parametrize("text, epsilon, lengths", DEEP_SAMPLES,
                         ids=[f"{t} {e:+d} {'-'.join(map(str, n))}" for t, e, n in DEEP_SAMPLES])
def test_lookup_matches_sampled_forms_of_length_five_and_six(text, epsilon, lengths):
    engine = WittEngine(standard_coefficient(parse_ring_with_involution(text)), epsilon)
    shapes = [m for m in engine.shapes_up_to(max(lengths)) if m.length in lengths]
    assert shapes
    checked = sum(cross_validate_classes(engine, m, sample=3, rng=random.Random(seed))
                  for seed, m in enumerate(shapes))
    assert checked


class DroppingEngine(WittEngine):
    """An engine whose class list for one shape leaves out a given class."""

    def __init__(self, coef, epsilon, dropped):
        super().__init__(coef, epsilon)
        self.dropped = dropped

    def classes(self, module):
        found = super().classes(module)
        if module.key != self.dropped.module.key:
            return found
        return [g for g in found if g.gram_key() != self.dropped.gram_key()]


def test_a_lookup_miss_names_the_shape_the_fingerprint_and_the_search():
    F3 = PrimeField(3)
    coef = std(F3)
    form = diagonal_form(coef, [F3.one, F3.one])
    rep = WittEngine(coef, 1).lookup(form)
    with pytest.raises(EngineError) as exc:
        DroppingEngine(coef, 1, rep).lookup(form)
    msg = str(exc.value)
    assert msg.startswith("no enumerated class matches a nondegenerate form on ")
    assert "the orthogonal-sum closure is incomplete for this ring" in msg
    assert "shape [1, 1]" in msg
    assert f"fingerprint {form.norm_fingerprint()}" in msg
    assert "0 enumerated classes shared that fingerprint and were searched" in msg


def test_a_lookup_miss_counts_the_classes_it_searched(monkeypatch):
    F3 = PrimeField(3)
    coef = std(F3)
    # a Gram table that class enumeration does not generate, so lookup
    # has no recorded answer for it and must search
    form = HermitianForm(coef, free_module(coef.rwi, 2), [[1, 1], [1, 2]], 1)
    engine = WittEngine(coef, 1)
    assert len(engine.classes(form.module)) == 2
    assert (form.module.key, form.gram_key()) not in engine._lookups
    # the class list is built; from here on every search answers None
    monkeypatch.setattr(wittgroup, "isometric", lambda f, g: None)
    with pytest.raises(EngineError) as exc:
        engine.lookup(form)
    assert "1 enumerated classes shared that fingerprint and were searched" in str(exc.value)


def head_one_factor_classes(engine, ann):
    """WittEngine.one_factor_classes before it read enumerate_gram_tables:
    its own nullspace of the entry conditions and its own dedup loop."""
    module = FLModule(engine.rwi, [ann])
    I = engine.coef.module
    F = I.F
    sig_ann = engine.rwi.conj(engine.ring.el(ann))
    conds = I.action_matrix(sig_ann).vstack(I.action_matrix(ann)).vstack(
        Matrix.identity(F, I.sdim) - I.action_matrix(engine.ring.el(engine.epsilon)) * engine.coef.imat
    )
    sol = conds.nullspace_basis()
    found = []
    for combo in itertools.product(list(F.elements()), repeat=len(sol)):
        vec = [F.zero] * I.sdim
        for c, b in zip(combo, sol):
            vec = [x + c * y for x, y in zip(vec, b)]
        form = HermitianForm(engine.coef, module, [[I.from_vec(tuple(vec))]], engine.epsilon, check=False)
        if not form.is_nondegenerate():
            continue
        fp = engine.fingerprint(form)
        if any(engine.fingerprint(g) == fp and isometric(form, g) is not None for g in found):
            continue
        found.append(form)
    found.sort(key=lambda f: (engine.fingerprint(f), f.gram_key()))
    return found


ONE_FACTOR_RINGS = [
    "GF(3), sigma=id",
    "GF(5), sigma=id",
    "GF(9), sigma=frobenius",
    "GF(3)xGF(3), sigma=swap",
    "GF(3)[t]/(t^2), sigma=id",
    "GF(3)[t]/(t^2), sigma=t->-t",
    "GF(3)[t]/(t^3), sigma=id",
]


@pytest.mark.parametrize("epsilon", [1, -1], ids=["+1", "-1"])
@pytest.mark.parametrize("text", ONE_FACTOR_RINGS)
def test_one_factor_classes_equal_the_own_enumeration(text, epsilon):
    engine = WittEngine(standard_coefficient(parse_ring_with_involution(text)), epsilon)
    for ann in indecomposable_factor_anns(engine.ring):
        keys = [f.gram_key() for f in engine.one_factor_classes(ann)]
        assert keys == [f.gram_key() for f in head_one_factor_classes(engine, ann)]


def test_one_factor_classes_keep_to_the_engine_limit():
    F9 = GF(9)
    engine = WittEngine(std(F9), 1, max_size=8)
    with pytest.raises(EnumerationBoundExceeded):
        engine.one_factor_classes(F9.zero)


# -- lookup answers recorded by class enumeration ------------------------------
#
# _distinct keeps, for every form it meets, the class it matched the form to
# (the form itself when kept), and lookup answers those forms from there.
# The oracle rebuilds each recorded form from its Gram key, with no table
# kept from before, and searches the shape's classes by fingerprint and
# isometric.


def rebuilt(engine, module, gkey):
    """A fresh form with this raw Gram key: no table is kept on it yet."""
    I = engine.coef.module
    gram = [[I.from_vec(e) for e in row] for row in gkey]
    return HermitianForm(engine.coef, module, gram, engine.epsilon)


LOOKUP_CASES = [
    ("GF(3), sigma=id", 1, 3),
    ("GF(9), sigma=frobenius", 1, 2),
    ("GF(3)xGF(3), sigma=swap", 1, 5),
    ("GF(3)[t]/(t^3), sigma=id", 1, 2),
    ("GF(3)[t]/(t^2), sigma=t->-t", -1, 2),
]


@pytest.mark.parametrize("text, epsilon, bound", LOOKUP_CASES,
                         ids=[f"{t} {e:+d}" for t, e, _ in LOOKUP_CASES])
def test_every_recorded_lookup_is_the_class_a_search_finds(text, epsilon, bound):
    rwi = parse_ring_with_involution(text)
    result = witt_group(standard_coefficient(rwi), epsilon, bound)
    engine = result.engine
    # every class answers for itself
    for c in result.classes:
        assert engine._lookups[(c.module.key, c.gram_key())] is c
    for (mkey, gkey), rep in engine._lookups.items():
        assert rep.module.key == mkey
        form = rebuilt(engine, rep.module, gkey)
        fp = form.norm_fingerprint()
        matches = [c for c in engine.classes(rep.module)
                   if rebuilt(engine, c.module, c.gram_key()).norm_fingerprint() == fp
                   and isometric(form, rebuilt(engine, c.module, c.gram_key())) is not None]
        assert [c.gram_key() for c in matches] == [rep.gram_key()]


def test_lookup_answers_an_enumerated_sum_without_a_search(monkeypatch):
    F3 = PrimeField(3)
    engine = WittEngine(std(F3), 1)
    form = diagonal_form(engine.coef, [F3.one, F3.el(2)])
    classes = engine.classes(form.module)
    monkeypatch.setattr(wittgroup, "isometric", lambda f, g: pytest.fail("searched"))
    rep = engine.lookup(form)
    assert rep in classes and isometric(form, rep) is not None


# -- Gram tables on raw coordinates --------------------------------------------
#
# _gram_from_assignment sets a form up on its Gram key, computed from raw
# slot bases.  The oracle is the Element code before that: each slot
# combination summed as Elements, entry (j, i) as epsilon . i of entry
# (i, j), and a form built from the Element table.


def element_gram_tables(coef, module, epsilon):
    I, F = coef.module, coef.module.F
    eps_el = coef.rwi.ring.el(epsilon)
    slots = [(ij, [tuple(Element(F, x) for x in b) for b in basis])
             for ij, basis in wittgroup._gram_slots(coef, module, epsilon)]
    opts = list(F.elements())
    n = len(module.factors)
    spaces = [list(itertools.product(opts, repeat=len(basis))) for _, basis in slots]
    for assignment in itertools.product(*spaces):
        gram = [[I.zero() for _ in range(n)] for _ in range(n)]
        for ((i, j), basis), combo in zip(slots, assignment):
            vec = [F.zero] * I.sdim
            for c, b in zip(combo, basis):
                vec = [x + c * y for x, y in zip(vec, b)]
            e = I.from_vec(tuple(vec))
            gram[i][j] = e
            if i != j:
                gram[j][i] = I.scal(eps_el, coef.i(e))
        yield HermitianForm(coef, module, gram, epsilon, check=False)


@pytest.mark.parametrize("text", [
    "GF(3)[t]/(t^2), sigma=id",
    "GF(3)[t]/(t^2), sigma=t->-t",
    "GF(3)[t]/(t^3), sigma=id",
    "GF(9), sigma=frobenius",
    "GF(3)xGF(3), sigma=swap",
    "GF(9)[t]/(t^2), sigma=t->-t",
])
def test_gram_enumeration_matches_the_element_oracle(text):
    """The same Gram keys and entries in the same order on every
    one-factor module, against the standard coefficient and, over the
    t-adic rings, against the transfer coefficient on the residue field;
    and on the first tables of each two-factor module, whose entries
    below the diagonal are epsilon i of those above."""
    rwi = parse_ring_with_involution(text)
    coefs = [standard_coefficient(rwi)]
    if is_nilpotent_quotient(rwi.ring):
        coefs.append(DevissageData(rwi).tc.coefficient)
    for coef in coefs:
        anns = indecomposable_factor_anns(coef.ring)
        shapes = [([a], None) for a in anns] + [([a, b], 40) for a in anns for b in anns]
        for anns_of, count in shapes:
            module = coef.rwi.module(anns_of)
            for epsilon in (1, -1):
                new = list(itertools.islice(enumerate_gram_tables(coef, module, epsilon), count))
                old = list(itertools.islice(element_gram_tables(coef, module, epsilon), count))
                assert len(new) == len(old) > 0
                assert [f.gram_key() for f in new] == [f.gram_key() for f in old]
                assert [f.gram for f in new] == [f.gram for f in old]


# -- which hyperbolic blocks class enumeration keeps ---------------------------
#
# Over R = k[t]/(t^n) with sigma(t) = s t and sigma = id on k (a field is
# n = 1, s = 1), level l is alternating when epsilon s^(n - l) = -1.  There
# an odd rank carries no form, so H(R/(t^l)) is the one class of rank two;
# at a symmetric level it is <u, -u>, a sum of one-factor blocks met first.


def kept_hyperbolic_levels(text, epsilon):
    """The lengths l of the indecomposables N = R/(t^l) whose hyperbolic
    block H(N) is the class that enumeration keeps on its own shape."""
    engine = WittEngine(standard_coefficient(parse_ring_with_involution(text)), epsilon)
    levels = []
    for blk in engine.blocks():
        if len(blk.module.factors) == 2:
            engine.classes(blk.module)
            if engine._lookups[(blk.module.key, blk.gram_key())] is blk:
                levels.append(blk.module.factors[0].length)
    return sorted(levels)


ADIC_BLOCKS = [
    # text, epsilon, n, s, kept levels
    ("GF(3)[t]/(t^2), sigma=t->-t", -1, 2, -1, [2]),
    ("GF(3)[t]/(t^4), sigma=t->-t", 1, 4, -1, [1, 3]),
    ("GF(3)[t]/(t^4), sigma=t->-t", -1, 4, -1, [2, 4]),
    ("GF(5)[t]/(t^3), sigma=t->-t", 1, 3, -1, [2]),
    ("GF(9)[t]/(t^2), sigma=t->-t", 1, 2, -1, [1]),
    ("GF(3)[t]/(t^3), sigma=id", 1, 3, 1, []),
    ("GF(3), sigma=id", 1, 1, 1, []),
    ("GF(3), sigma=id", -1, 1, 1, [1]),
    ("GF(7), sigma=id", 1, 1, 1, []),
    ("GF(7), sigma=id", -1, 1, 1, [1]),
]


@pytest.mark.parametrize("text, epsilon, n, s, levels", ADIC_BLOCKS,
                         ids=[f"{t} {e:+d}" for t, e, *_ in ADIC_BLOCKS])
def test_hyperbolic_blocks_are_kept_exactly_at_alternating_levels(text, epsilon, n, s, levels):
    assert levels == [l for l in range(1, n + 1) if epsilon * s ** (n - l) == -1]
    assert kept_hyperbolic_levels(text, epsilon) == levels


@pytest.mark.parametrize("epsilon", [1, -1], ids=["+1", "-1"])
def test_hermitian_hyperbolic_blocks_over_a_field_are_never_kept(epsilon):
    # hermitian forms over GF(9) are classified by rank: H(k) is a sum of
    # two one-factor classes
    assert kept_hyperbolic_levels("GF(9), sigma=frobenius", epsilon) == []


@pytest.mark.parametrize("epsilon", [1, -1], ids=["+1", "-1"])
def test_the_swap_keeps_one_of_its_two_isometric_hyperbolic_blocks(epsilon):
    # H(k x 0) and H(0 x k) live on the same shape and are isometric
    assert kept_hyperbolic_levels("GF(3)xGF(3), sigma=swap", epsilon) == [1]
