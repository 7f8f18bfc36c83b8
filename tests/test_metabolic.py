"""is_metabolic against an exhaustive breadth-first reference.

The reference lists every totally isotropic submodule, one dimension at a
time, before it answers False; the library's depth-first search stops at
the first Lagrangian, and over a field at the first maximal totally
isotropic subspace.  Both must agree on every nondegenerate Gram table of
the small shapes below, and on a seeded sample for a few larger ones."""

import random

import pytest

from wittkit.coefficients import DualModule, standard_coefficient
from wittkit.errors import Degenerate
from wittkit.forms import (
    _closure_rows,
    _int_btensor,
    _int_elements,
    _norm_table,
    _rref_reduce,
    _scalar_action_ints,
    is_metabolic,
)
from wittkit.modules import module_from_shape
from wittkit.parser import parse_ring_with_involution
from wittkit.wittgroup import WittEngine, enumerate_gram_tables, sample_gram_tables


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
    elems = _int_elements(M)
    norms = _norm_table(form)
    zero = (0,) * isd
    iso = [elems[k] for k, v in enumerate(norms) if v == zero and any(elems[k])]
    bt = _int_btensor(form)
    actmats = _scalar_action_ints(M)

    def row_funcs(rows):
        out = []
        for _, r in rows:
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
        return tuple((piv, tuple(r)) for piv, r in rows)

    frontier = [([], [])]
    seen = {key_of([])}
    while frontier:
        nxt = []
        for rows, funcs in frontier:
            for v in iso:
                if not any(_rref_reduce(rows, v, p)):
                    continue
                if any(any(sum(a * func[c][s] for c, a in enumerate(v)) % p for s in range(isd))
                       for func in funcs):
                    continue
                rows2, _ = _closure_rows(rows, v, actmats, p)
                if len(rows2) > half:
                    continue
                if len(rows2) == half:
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


def agree_on(coef, module, epsilon, forms):
    """Compare both searches on every nondegenerate form; returns how many
    answered True and how many False."""
    answers = {True: 0, False: 0}
    dual = DualModule(coef, module)
    for form in forms:
        try:
            got = is_metabolic(form, dual)
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
            answers = agree_on(coef, module, epsilon, enumerate_gram_tables(coef, module, epsilon))
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
    answers = agree_on(coef, module, epsilon, forms)
    assert answers[True] and answers[False]
