"""is_metabolic against an exhaustive breadth-first reference.

The reference lists every totally isotropic submodule, one dimension at a
time, before it answers False; the library grows one maximal totally
isotropic submodule in a single forward pass, over every ring, and
answers whether it reached half the scalar dimension.  Both must agree on
every nondegenerate Gram table of the small shapes below, and on a seeded
sample for larger ones, over fields and over non-field rings up to
length 6.

The library's pass walks the isotropic vectors of L-perp and walks again
from the start each time L grows; whole_table_pass below walks every
element once and tests each against L.  Both must take the same vectors
in the same order."""

import random
from operator import mul

import pytest

from wittkit.coefficients import DualityCoefficient, standard_coefficient
from wittkit.errors import Degenerate, NotStrongDuality
from wittkit.forms import (
    HermitianForm,
    _closure_rows,
    _functional,
    _scalar_action_ints,
    is_metabolic,
)
from wittkit.linalg import Echelon
from wittkit.modules import module_from_shape, simple_scalar_dim
from wittkit.parser import parse_ring_with_involution
from wittkit.wittgroup import WittEngine, enumerate_gram_tables, sample_gram_tables

from oracles import int_elements, norm_table


def bfs_is_metabolic(form):
    """Breadth-first over all totally isotropic submodules, one dimension
    at a time; answers False only after listing every one."""
    M = form.module
    if M.sdim == 0:
        return True
    if M.sdim % 2 == 1:
        return False
    p = M.F.p
    d = M.sdim
    half = d // 2
    if M.ring.is_field and half % M.ring.scalar_dim():
        return False
    isd = form.coef.module.sdim
    elems = int_elements(M)
    norms = norm_table(form)
    zero = (0,) * isd
    iso = [elems[k] for k, v in enumerate(norms) if v == zero and any(elems[k])]
    bt = form._coord_tensor()
    actmats = _scalar_action_ints(M)

    def row_funcs(rows):
        out = []
        for _, r in rows.rows:
            func = []
            for c in range(d):
                acc = [0] * isd
                for i1, a in enumerate(r):
                    if a:
                        for s in range(isd):
                            acc[s] += a * bt[i1][c][s]
                func.append(tuple(x % p for x in acc))
            out.append(func)
        return out

    def key_of(rows):
        return tuple((piv, tuple(r)) for piv, r in rows.rows)

    frontier = [(Echelon(M.F), [])]
    seen = {key_of(frontier[0][0])}
    while frontier:
        nxt = []
        for rows, funcs in frontier:
            for v in iso:
                if rows.contains(v):
                    continue
                if any(any(sum(a * func[c][s] for c, a in enumerate(v)) % p for s in range(isd))
                       for func in funcs):
                    continue
                rows2, _ = _closure_rows(rows, v, actmats, p)
                if len(rows2.rows) > half:
                    continue
                if len(rows2.rows) == half:
                    return True
                k = key_of(rows2)
                if k in seen:
                    continue
                seen.add(k)
                nxt.append((rows2, row_funcs(rows2)))
        frontier = nxt
    return False


# (ring, epsilon, largest length); every module shape up to that length
CASES = [
    ("GF(3), sigma=id", 1, 3),
    ("GF(3), sigma=id", -1, 3),
    ("GF(5), sigma=id", 1, 2),
    ("GF(9), sigma=id", 1, 2),
    ("GF(9), sigma=frobenius", 1, 2),
    ("GF(3)[t]/(t^2), sigma=id", 1, 3),
    ("GF(3)[t]/(t^2), sigma=t->-t", 1, 3),
    ("GF(3)xGF(3), sigma=swap", 1, 2),
    ("GF(3)xGF(3), sigma=swap", -1, 2),
]


def agree_on(forms):
    """Compare both searches on every nondegenerate form; returns how many
    answered True and how many False."""
    answers = {True: 0, False: 0}
    for form in forms:
        try:
            got = is_metabolic(form)
        except Degenerate:
            continue
        assert got == bfs_is_metabolic(form), form.gram
        answers[got] += 1
    return answers


@pytest.mark.parametrize("text, epsilon, length", CASES)
def test_depth_first_search_agrees_with_breadth_first_reference(text, epsilon, length):
    coef = standard_coefficient(parse_ring_with_involution(text))
    checked = 0
    for module in WittEngine(coef, epsilon).shapes_up_to(length):
        if module.sdim % 2 == 0:  # odd ones get False before any search
            answers = agree_on(enumerate_gram_tables(coef, module, epsilon))
            checked += sum(answers.values())
    assert checked


# scalar dimension 4 over GF(3) is the smallest size where a search reaches
# a second level, so the orthogonality test and the target dimension matter;
# all Gram tables are too many, so a seeded sample of each shape is checked
SAMPLED = [
    ("GF(3), sigma=id", 1, [1, 1, 1, 1]),
    ("GF(3)[t]/(t^2), sigma=id", 1, [1, 1, 1, 1]),
    ("GF(3)[t]/(t^2), sigma=id", 1, [2, 1, 1]),
    ("GF(3)[t]/(t^2), sigma=t->-t", -1, [1, 1, 1, 1]),
]


@pytest.mark.parametrize("text, epsilon, shape", SAMPLED)
def test_depth_first_search_agrees_on_sampled_length_four_forms(text, epsilon, shape):
    coef = standard_coefficient(parse_ring_with_involution(text))
    module = module_from_shape(coef.rwi, shape)
    forms = sample_gram_tables(coef, module, epsilon, 80, random.Random(1))
    answers = agree_on(forms)
    assert answers[True] and answers[False]


# length 6 over non-field rings: shapes whose maximal totally isotropic
# submodules are reached along several chains of cyclic spans
SAMPLED_LENGTH_SIX = [
    ("GF(3)[t]/(t^2), sigma=id", 1, [2, 2, 1, 1]),
    ("GF(3)[t]/(t^2), sigma=t->-t", -1, [2, 2, 1, 1]),
    ("GF(3)[t]/(t^3), sigma=id", 1, [3, 3]),
    ("GF(3)[t]/(t^3), sigma=id", 1, [3, 2, 1]),
]


@pytest.mark.parametrize("text, epsilon, shape", SAMPLED_LENGTH_SIX)
def test_first_maximal_submodule_decides_on_sampled_length_six_forms(text, epsilon, shape):
    coef = standard_coefficient(parse_ring_with_involution(text))
    module = module_from_shape(coef.rwi, shape)
    forms = sample_gram_tables(coef, module, epsilon, 30, random.Random(1))
    answers = agree_on(forms)
    assert answers[True] and answers[False]


def whole_table_pass(form):
    """The forward pass over every element of M in index order: an
    isotropic vector orthogonal to L (tested against the columns of b(r, -)
    for every row r of L) and outside L grows L by its R-span.  Returns the
    vectors taken, in order, and whether L reached half the scalar
    dimension."""
    M = form.module
    p, d = M.F.p, M.sdim
    half = d // 2
    isd = form.coef.module.sdim
    bt = form._coord_tensor()
    actmats = _scalar_action_ints(M)
    rows = Echelon(M.F)
    cols = []
    taken = []
    for x, v in zip(int_elements(M), norm_table(form)):
        if any(v) or any(sum(map(mul, x, col)) % p for col in cols) or rows.contains(x):
            continue
        taken.append(x)
        rows, _ = _closure_rows(rows, x, actmats, p)
        if len(rows.rows) == half:
            return taken, True
        cols = [col for _, r in rows.rows for col in _functional(bt, r, d, isd, p)]
    return taken, False


def searched(forms):
    """The forms on which is_metabolic runs its search: nondegenerate, of
    even scalar dimension whose half is a whole length."""
    for form in forms:
        M = form.module
        half = M.sdim // 2
        if M.sdim % 2 == 0 and half % simple_scalar_dim(M.ring) == 0 and form.is_nondegenerate():
            yield form


def assert_walk_takes_the_whole_table_vectors(forms, monkeypatch):
    taken = []

    def recording(rows, vec, actmats, p):
        taken.append(vec)
        return _closure_rows(rows, vec, actmats, p)

    monkeypatch.setattr("wittkit.forms._closure_rows", recording)
    walks = 0  # searches that grew L more than once, so walked again
    for form in searched(forms):
        taken.clear()
        got = is_metabolic(form)
        want, reached = whole_table_pass(form)
        assert taken == want, form.gram_key()
        assert got == reached, form.gram_key()
        walks += len(taken) > 1
    assert walks


# the classes and a seeded sample of every shape up to length 4
WALK_RINGS = [
    "GF(3), sigma=id",
    "GF(5), sigma=id",
    "GF(9), sigma=frobenius",
    "GF(3)xGF(3), sigma=swap",
    "GF(3)[t]/(t^2), sigma=id",
    "GF(3)[t]/(t^3), sigma=id",
    "GF(3)[t]/(t^2), sigma=t->-t",
]


@pytest.mark.parametrize("text", WALK_RINGS)
@pytest.mark.parametrize("epsilon", [1, -1])
def test_walk_of_l_perp_takes_the_whole_table_vectors(text, epsilon, monkeypatch):
    # is_metabolic walks the isotropic vectors of L-perp and starts again
    # each time L grows; it must pass _closure_rows exactly the vectors
    # the whole-table pass takes, in the same order
    engine = WittEngine(standard_coefficient(parse_ring_with_involution(text)), epsilon)
    rng = random.Random(5)
    forms = []
    for module in engine.shapes_up_to(4):
        forms.extend(engine.classes(module))
        forms.extend(sample_gram_tables(engine.coef, module, epsilon, 10, rng))
    assert_walk_takes_the_whole_table_vectors(forms, monkeypatch)


@pytest.mark.parametrize("text, epsilon, shape", SAMPLED_LENGTH_SIX)
def test_walk_of_l_perp_takes_the_whole_table_vectors_at_length_six(
        text, epsilon, shape, monkeypatch):
    coef = standard_coefficient(parse_ring_with_involution(text))
    module = module_from_shape(coef.rwi, shape)
    forms = sample_gram_tables(coef, module, epsilon, 30, random.Random(3))
    assert_walk_takes_the_whole_table_vectors(forms, monkeypatch)


def test_search_refuses_a_coefficient_that_is_not_strong():
    # I = R/(t) over R = GF(3)[t]/(t^2): reflexive on k, not on R, so the
    # sublagrangian lemma does not apply to forms with values in I
    rwi = parse_ring_with_involution("GF(3)[t]/(t^2), sigma=id")
    R = rwi.ring
    I = rwi.module([R.gen("t")])
    coef = DualityCoefficient(rwi, I, lambda x: x)
    k2 = rwi.module([R.gen("t")] * 2)
    one = I.element([R.one])
    form = HermitianForm(coef, k2, [[one, I.zero()], [I.zero(), one]], 1)
    assert form.is_nondegenerate()
    with pytest.raises(NotStrongDuality):
        is_metabolic(form)


def test_odd_length_answers_false_before_the_search_off_a_field(monkeypatch):
    # GF(9)[t]/(t^2): a simple module has scalar dimension 2 over GF(3),
    # so an odd-length module has even scalar dimension and no Lagrangian
    coef = standard_coefficient(parse_ring_with_involution("GF(9)[t]/(t^2), sigma=t->-t"))
    even, odd = [], []
    for module in WittEngine(coef, -1).shapes_up_to(3):
        if module.sdim <= 4:
            forms = enumerate_gram_tables(coef, module, -1)
        else:
            forms = sample_gram_tables(coef, module, -1, 20, random.Random(1))
        forms = [f for f in forms if f.is_nondegenerate()]
        (odd if sum(f.length for f in module.factors) % 2 else even).extend(forms)
    answers = agree_on(even)
    assert answers[True] and answers[False]

    def unread(form):
        raise AssertionError("the norm table was read")

    monkeypatch.setattr("wittkit.forms._norm_table", unread)
    assert odd and not any(is_metabolic(f) for f in odd)
