"""Each module, restriction and coordinate Echelon is built once per shape.

A RingWithInvolution keeps one FLModule per exact annihilator tuple and
one CyclicFactor per exact annihilator, shared by every module with that
factor, a TransferCoefficient one RestrictedModule per module key and
involution, and a Decomposition builds the Echelon behind its
coordinates on the first of_ambient call.  The oracles below are the
code without that sharing: a fresh FLModule per request, a fresh
RestrictedModule per transfer and a coordinate matrix solved from
scratch.  Each must agree with what the shared objects give.  The Gram
entries a sum takes from its summands are checked in test_compose.py,
and the action matrices a module assembles from its factors in
test_modules.py."""

import itertools
from collections import Counter

import pytest

from wittkit.cli import main
from wittkit.coefficients import DualModule, standard_coefficient
from wittkit.devissage import DevissageData
from wittkit.errors import EngineError
from wittkit.forms import (
    HermitianForm,
    _ann_rows,
    _scalar_action_ints,
)
from wittkit.linalg import matrix_of_map
from wittkit.modules import (
    FLModule,
    free_module,
    indecomposable_factor_anns,
    module_from_shape,
)
from wittkit.parser import parse_ring_with_involution
from wittkit.rings import Element, involution
from wittkit.transfer import RestrictedModule, transfer_form
from wittkit.wittgroup import WittEngine, witt_group


def test_equal_annihilator_tuples_give_one_module():
    rwi = parse_ring_with_involution("GF(3)[t]/(t^3), sigma=id")
    R = rwi.ring
    t = R.gen("t")
    M = rwi.module([R.zero, t ** 2])
    assert M.rwi is rwi
    assert rwi.module([R.zero, t ** 2]) is M
    assert rwi.module([0, t ** 2]) is M
    assert module_from_shape(rwi, [3, 2]) is M
    assert free_module(rwi, 2) is rwi.module([R.zero, R.zero])
    assert rwi.module([t ** 2, R.zero]) is not M
    # the same ideal from another generator has the same key, but keeps
    # its own annihilator, as a fresh module would
    N = rwi.module([R.zero, -t ** 2])
    assert N.key == M.key and N is not M
    assert [f.ann for f in N.factors] == [f.ann for f in FLModule(rwi, [R.zero, -t ** 2]).factors]
    assert [f.ann for f in N.factors] == [R.zero, -t ** 2]
    # another ring with involution keeps a table of its own, even an equal one
    for text in ("GF(3)[t]/(t^3), sigma=id", "GF(3)[t]/(t^3), sigma=t->-t"):
        other = parse_ring_with_involution(text)
        O = other.module([R.zero, t ** 2])
        assert O.key == M.key
        assert O is not M and O.rwi is other
        assert other.module([R.zero, t ** 2]) is O


def test_modules_share_their_cyclic_factors():
    rwi = parse_ring_with_involution("GF(3)[t]/(t^3), sigma=t->-t")
    R = rwi.ring
    t = R.gen("t")
    a, b = t ** 2, R.zero
    assert rwi.module([a, b]).factors[0] is rwi.module([a]).factors[0]
    assert rwi.module([a, b]).factors[1] is rwi.module([b, a]).factors[0]
    assert FLModule(rwi, [b]).factors[0] is rwi.factor(b) is rwi.factor(0)
    # the same ideal from another generator keeps a factor of its own
    assert rwi.factor(-a) is not rwi.factor(a)
    assert rwi.factor(-a).key == rwi.factor(a).key
    # factors are kept per ring with involution
    other = parse_ring_with_involution("GF(3)[t]/(t^3), sigma=id")
    assert other.factor(a) is not rwi.factor(a)


def shape_anns(rwi, bound):
    """Every tuple of indecomposable annihilators of total length at most
    bound, in the library's canonical order and reversed."""
    ring = rwi.ring
    lengths = {a.data: FLModule(rwi, [a]).length for a in indecomposable_factor_anns(ring)}
    anns = indecomposable_factor_anns(ring)
    out = []
    for k in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(anns, k):
            if sum(lengths[a.data] for a in combo) <= bound:
                out.append(list(combo))
                if len(set(a.data for a in combo)) > 1:
                    out.append(list(reversed(combo)))
    return out


@pytest.mark.parametrize("text", [
    "GF(3)[t]/(t^3), sigma=id",
    "GF(9)[t]/(t^2), sigma=t->-t",
    "GF(3)xGF(3), sigma=swap",
])
def test_interned_tables_match_fresh_modules(text):
    rwi = parse_ring_with_involution(text)
    ring = rwi.ring
    # fill the shared modules' tables through the engine first
    witt_group(standard_coefficient(rwi), 1, 2)
    indecomposables = indecomposable_factor_anns(ring)
    scalars = [Element(ring, d) for d in ring.scalar_basis()]
    shapes = shape_anns(rwi, 4)
    assert len(shapes) >= 8
    for anns in shapes:
        M, fresh = rwi.module(anns), FLModule(rwi, anns)
        assert M.key == fresh.key
        assert [f.ann for f in M.factors] == [f.ann for f in fresh.factors]
        assert all(a is b for a, b in zip(M.factors, fresh.factors))
        assert _scalar_action_ints(M) == _scalar_action_ints(fresh)
        for a in scalars + indecomposables + [ring.gen(g) for g in ring.generator_names()]:
            assert M.action_matrix(a) == fresh.action_matrix(a)
        for a in indecomposables:
            assert _ann_rows(M, a).rows == _ann_rows(fresh, a).rows


def fresh_transfer_form(tc, form):
    """transfer_form with a RestrictedModule and a module of its own."""
    rm = RestrictedModule(tc.pi, tc.rwi_src, form.module)
    module = FLModule(tc.rwi_src, [f.ann for f in rm.module.factors])
    gens = [form.module.from_vec(rm.to_ambient(g)) for g in module.generators()]
    gram = [[tc.eval_at_one(form.evaluate(x, y)) for y in gens] for x in gens]
    return HermitianForm(tc.source_coef, module, gram, form.epsilon)


@pytest.mark.parametrize("text, bound", [
    ("GF(3)[t]/(t^3), sigma=id", 3),
    ("GF(9)[t]/(t^2), sigma=t->-t", 2),
])
def test_transfer_form_matches_a_fresh_restriction(text, bound, monkeypatch):
    builds = Counter()
    init = RestrictedModule.__init__

    def counted(self, pi, rwi_src, M):
        builds[(M.rwi, M.key)] += 1
        init(self, pi, rwi_src, M)

    data = DevissageData(parse_ring_with_involution(text))
    tc = data.tc
    classes = []
    for epsilon in (1, -1):
        engine = WittEngine(tc.coefficient, epsilon)
        for m in engine.shapes_up_to(bound):
            classes.extend(engine.classes(m))
    assert len(classes) >= 4
    expected = [fresh_transfer_form(tc, f) for f in classes]
    monkeypatch.setattr(RestrictedModule, "__init__", counted)
    for _ in range(2):
        for f, ref in zip(classes, expected):
            out = transfer_form(tc, f)
            assert out.module.key == ref.module.key
            assert [x.ann for x in out.module.factors] == [x.ann for x in ref.module.factors]
            assert out.module is tc.rwi_src.module([x.ann for x in ref.module.factors])
            assert out.gram == ref.gram
            assert out.gram_key() == ref.gram_key()
            assert out.is_nondegenerate() == ref.is_nondegenerate()
            rm = tc.restriction(f.module)
            assert rm is tc.restriction(f.module)
            # the transfer reads the generator vectors of the split and
            # converts nothing, so no Basis (and no Echelon) is built
            assert rm._basis is None
    assert set(builds.values()) == {1}
    assert set(builds) == {(f.module.rwi, f.module.key) for f in classes}


def test_restrictions_are_kept_per_involution():
    data = DevissageData(parse_ring_with_involution("GF(9)[t]/(t^2), sigma=u->u^3, t->t"))
    tc = data.tc
    k = tc.rwi_dst.ring
    own = tc.rwi_dst.module([k.zero])
    other = involution(k, "id")
    assert other != tc.rwi_dst
    theirs = other.module([k.zero])
    assert theirs.key == own.key
    assert tc.restriction(own).over is own
    assert tc.restriction(theirs).over is theirs
    assert tc.restriction(own) is not tc.restriction(theirs)


@pytest.mark.parametrize("text, anns", [
    ("GF(9), sigma=frobenius", lambda R: [R.zero]),
    ("GF(3)[t]/(t^3), sigma=id", lambda R: [R.gen("t") ** 2]),
    ("GF(3)xGF(3), sigma=swap", lambda R: list(R.idempotents())),
])
def test_decomposition_builds_its_echelon_on_first_use(text, anns):
    rwi = parse_ring_with_involution(text)
    dual = DualModule(standard_coefficient(rwi), rwi.module(anns(rwi.ring)))
    assert dual._basis is None
    dual.to_ambient(dual.module.zero())
    assert dual._basis._echelon is None
    # the coordinate matrix of the subspace, solved from scratch per vector
    eager = matrix_of_map(
        dual.F, dual.module.sdim, lambda u: dual.to_ambient(dual.module.from_vec(u)),
        nrows=dual._n)
    inside, echelons = 0, set()
    for vec in itertools.product(list(dual.F.elements()), repeat=dual._n):
        sol = eager.solve(vec)
        if sol is None:
            with pytest.raises(EngineError):
                dual.of_ambient(vec)
        else:
            assert dual.of_ambient(vec) == dual.module.from_vec(sol)
            inside += 1
        echelons.add(id(dual._basis._echelon))
    assert inside == dual.module.size()
    assert len(echelons) == 1


def test_witt_builds_one_module_per_annihilator_tuple(monkeypatch, capsys):
    builds = Counter()
    init = FLModule.__init__

    def counted(self, rwi, anns):
        builds[(id(rwi), tuple(rwi.ring.el(a).data for a in anns))] += 1
        init(self, rwi, anns)

    monkeypatch.setattr(FLModule, "__init__", counted)
    assert main(["witt", "GF(3)[t]/(t^3), sigma=id", "+1", "4", "--json"]) == 0
    capsys.readouterr()
    # one ring with involution and 17 annihilator tuples; a fresh module
    # per request built 279 modules for them
    assert len({r for r, _ in builds}) == 1
    assert set(builds.values()) == {1}
    assert len(builds) == 17
