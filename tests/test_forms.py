"""Epsilon-hermitian forms: evaluation, nondegeneracy, isometry, metabolicity."""

import random
from fractions import Fraction

import pytest

from wittkit.coefficients import DualityCoefficient, standard_coefficient
from wittkit.devissage import DevissageData
from wittkit.errors import (
    CoefficientMismatch,
    Degenerate,
    NotEpsilonSymmetric,
    NotSesquilinear,
)
from wittkit.forms import (
    HermitianForm,
    _picked,
    canonical_order,
    coefficient_change,
    diagonal_form,
    hyperbolic_form,
    is_metabolic,
    isometric,
    orthogonal_sum,
)
from wittkit.linalg import Matrix, unit_vector
from wittkit.modules import (
    FLModule,
    free_module,
    indecomposable_factor_anns,
    is_nilpotent_quotient,
    module_from_shape,
)
from wittkit.parser import parse_ring_with_involution
from wittkit.rings import GF, PrimeField, QuadraticField, QuotientRing, RingMap, involution
from wittkit.transfer import GammaComparison, transfer_form
from wittkit.wittgroup import WittEngine, sample_gram_tables

from oracles import elements_of


def coef_over(p):
    return standard_coefficient(involution(PrimeField(p), "id"))


def test_sesquilinear_convention():
    # b(ax, y) = sigma(a) b(x, y) and b(x, ay) = a b(x, y)
    rwi = involution(GF(9), "frobenius")
    coef = standard_coefficient(rwi)
    f = diagonal_form(coef, [rwi.ring.one])
    M = f.module
    u = rwi.ring.gen("u")
    x = M.generators()[0]
    lhs = f.evaluate(M.scal(u, x), x)[0]
    assert lhs == u ** 3
    rhs = f.evaluate(x, M.scal(u, x))[0]
    assert rhs == u


def test_epsilon_symmetry_enforced():
    coef = coef_over(3)
    F3 = coef.rwi.ring
    with pytest.raises(NotEpsilonSymmetric):
        HermitianForm(coef, free_module(coef.rwi, 2),
                      [[F3.el(0), F3.el(1)], [F3.el(2), F3.el(0)]], 1)
    # the same table is a legal skew form
    HermitianForm(coef, free_module(coef.rwi, 2),
                  [[F3.el(0), F3.el(1)], [F3.el(2), F3.el(0)]], -1)


# -- epsilon-symmetry where i is not the identity -----------------------------
#
# _validate compares the coordinate tensor with epsilon . imat applied to
# its transpose, on raw data.  The oracle is the check before that, through
# Elements: each tensor entry made an element of I, mapped by coef.i and
# scaled by epsilon.


def element_symmetry_mismatches(form):
    """Every coordinate pair (c1, c2) where b(e_c2, e_c1) differs from
    epsilon i(b(e_c1, e_c2)), in the order the check visits them."""
    I = form.coef.module
    eps = form.ring.el(form.epsilon)
    tab = form._coord_tensor()
    d = form.module.sdim
    return [(c1, c2) for c1 in range(d) for c2 in range(d)
            if tab[c2][c1] != I.to_ints(I.scal(eps, form.coef.i(I.from_vec(tab[c1][c2]))))]


def assert_symmetry_check_matches_oracle(coef, module, gram, epsilon):
    """Builds the form; True when the oracle found no bad pair."""
    bad = element_symmetry_mismatches(HermitianForm(coef, module, gram, epsilon, check=False))
    if not bad:
        HermitianForm(coef, module, gram, epsilon)
        return True
    with pytest.raises(NotEpsilonSymmetric) as exc:
        HermitianForm(coef, module, gram, epsilon)
    assert f"at coordinate pair ({bad[0][0]},{bad[0][1]})" in str(exc.value)
    return False


def _qq_i():
    coef = standard_coefficient(involution(QuadraticField(-1), "conj"))
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3)]
    I = coef.module
    return coef, [I.from_vec((a, b)) for a in values for b in values]


def _gf9_frobenius():
    coef = standard_coefficient(involution(GF(9), "frobenius"))
    return coef, elements_of(coef.module)


def _transfer_coefficient():
    coef = DevissageData(parse_ring_with_involution("GF(9)[t]/(t^2), sigma=t->-t")).tc.coefficient
    return coef, elements_of(coef.module)


@pytest.mark.parametrize("build", [_qq_i, _gf9_frobenius, _transfer_coefficient],
                         ids=["QQ(i) conj", "GF(9) frobenius", "transfer coefficient"])
def test_epsilon_symmetry_with_a_nontrivial_identification(build):
    """i is not the identity on I (and over QQ(i) the data are
    Fractions).  Each 1 x 1 table, and 2 x 2 tables with one off-diagonal
    entry made wrong, are checked against the oracle: a table is refused
    exactly when the oracle finds a bad coordinate pair, and the error
    names the first one."""
    coef, entries = build()
    assert coef.imat != Matrix.identity(coef.module.F, coef.module.sdim)
    I, M1, M2 = coef.module, free_module(coef.rwi, 1), free_module(coef.rwi, 2)
    rng = random.Random(7)
    verdicts = set()
    for epsilon in (1, -1):
        eps = coef.ring.el(epsilon)
        for e in entries:
            verdicts.add(assert_symmetry_check_matches_oracle(coef, M1, [[e]], epsilon))
        symmetric = [e for e in entries if I.scal(eps, coef.i(e)) == e]
        for _ in range(8):
            a, d = rng.choice(symmetric), rng.choice(symmetric)
            b, wrong = rng.choice(entries), rng.choice(entries)
            good = I.scal(eps, coef.i(b))
            assert assert_symmetry_check_matches_oracle(coef, M2, [[a, b], [good, d]], epsilon)
            if wrong != good:
                assert not assert_symmetry_check_matches_oracle(coef, M2, [[a, b], [wrong, d]], epsilon)
    assert verdicts == {True, False}


def test_nondegeneracy_examples():
    coef = coef_over(3)
    h = hyperbolic_form(coef, free_module(coef.rwi, 1))
    assert h.is_nondegenerate()
    F3 = coef.rwi.ring
    z = HermitianForm(coef, free_module(coef.rwi, 1), [[F3.zero]], 1)
    assert not z.is_nondegenerate()
    with pytest.raises(Degenerate):
        z.require_nondegenerate()


def test_socle_valued_form_is_degenerate():
    # b(x, y) = sigma(x) t y on M = R over R = F_3[t]/(t^2): the adjoint
    # lands inside the socle dual, so the form cannot be nondegenerate
    R = QuotientRing(PrimeField(3), [0, 0, 1], "t")
    rwi = involution(R, "id")
    coef = standard_coefficient(rwi)
    t = R.gen("t")
    f = HermitianForm(coef, free_module(rwi, 1), [[t]], 1)
    assert not f.is_nondegenerate()


def test_orthogonal_sum_blocks():
    coef = coef_over(3)
    F3 = coef.rwi.ring
    one = diagonal_form(coef, [F3.one])
    s = orthogonal_sum(one, one)
    assert len(s.module.factors) == 2
    assert s.evaluate(s.module.generators()[0], s.module.generators()[1])[0].is_zero()
    empty = diagonal_form(coef, [])
    assert orthogonal_sum(one, empty).gram_key() == one.gram_key()


def test_isometric_examples():
    c5 = coef_over(5)
    F5 = c5.rwi.ring
    f = diagonal_form(c5, [F5.el(1), F5.el(1)])
    g = diagonal_form(c5, [F5.el(2), F5.el(2)])
    assert isometric(f, g) is not None
    c3 = coef_over(3)
    F3 = c3.rwi.ring
    assert isometric(diagonal_form(c3, [F3.el(1)]), diagonal_form(c3, [F3.el(2)])) is None
    assert isometric(f, f) is not None


def test_isometry_witness_is_a_congruence():
    c5 = coef_over(5)
    F5 = c5.rwi.ring
    f = diagonal_form(c5, [F5.el(1), F5.el(1)])
    g = diagonal_form(c5, [F5.el(2), F5.el(2)])
    M = g.module
    images = [M.from_vec(tuple(M.F.el(c) for c in v)) for v in isometric(f, g)]
    gens = f.module.generators()
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            assert g.evaluate(images[i], images[j]) == f.evaluate(x, y)


def test_metabolic_examples():
    c3 = coef_over(3)
    F3 = c3.rwi.ring
    h = hyperbolic_form(c3, free_module(c3.rwi, 1))
    assert is_metabolic(h)
    assert not is_metabolic(diagonal_form(c3, [F3.one]))
    # -1 is not a square mod 3, so diag(1,1) has no isotropic vector
    assert not is_metabolic(diagonal_form(c3, [F3.one, F3.one]))
    assert is_metabolic(diagonal_form(c3, [F3.el(1), F3.el(2)]))


def test_rank_two_hyperbolic_recognition():
    c3 = coef_over(3)
    F3 = c3.rwi.ring
    mixed = diagonal_form(c3, [F3.el(1), F3.el(2)])
    h = hyperbolic_form(c3, free_module(c3.rwi, 1))
    assert isometric(mixed, h) is not None


def test_canonical_order_idempotent():
    R = QuotientRing(PrimeField(3), [0, 0, 1], "t")
    rwi = involution(R, "id")
    coef = standard_coefficient(rwi)
    t = R.gen("t")
    M = FLModule(rwi, [t, R.zero])  # factors out of canonical order
    f = HermitianForm(coef, M, [[(R.zero,), (t,)], [(t,), (R.one,)]], 1)
    g = canonical_order(f)
    assert [fac.ann.is_zero() for fac in g.module.factors] == [True, False]
    assert canonical_order(g).gram_key() == g.gram_key()


def test_skew_forms_over_f3():
    c3 = coef_over(3)
    F3 = c3.rwi.ring
    h = hyperbolic_form(c3, free_module(c3.rwi, 1), epsilon=-1)
    assert h.epsilon == -1
    assert h.is_nondegenerate()
    assert is_metabolic(h)


def test_coefficient_change_identity():
    c3 = coef_over(3)
    F3 = c3.rwi.ring
    f = diagonal_form(c3, [F3.one])
    J = Matrix.identity(c3.module.F, c3.module.sdim)
    g = coefficient_change(f, c3, J)
    assert g.gram_key() == f.gram_key()


@pytest.mark.parametrize("text, shape, unit", [
    ("GF(3)[t]/(t^2), sigma=id", [2, 1], lambda R: R.el(2) + R.gen("t")),
    ("GF(9)[t]/(t^2), sigma=t->-t", [2], lambda R: R.gen("u")),
    ("GF(9)[t]/(t^2), sigma=t->-t", [1, 1], lambda R: R.gen("u") + R.one),
], ids=["f3-t-squared", "f9-t-squared-free", "f9-t-squared-residue"])
def test_coefficient_change_along_a_unit_and_back_round_trips(text, shape, unit):
    """J, the action of a sigma-fixed unit u on I = R, is a coefficient
    isomorphism of (R, sigma): changing along J scales every Gram entry by
    u, and changing back along J^-1 gives the form it started from."""
    rwi = parse_ring_with_involution(text)
    coef = standard_coefficient(rwi)
    I = coef.module
    u = unit(rwi.ring)
    assert u.is_unit() and rwi.conj(u) == u
    J = I.action_matrix(u)
    forms = list(sample_gram_tables(coef, module_from_shape(rwi, shape), 1, 6, random.Random(3)))
    assert any(f.gram_key() != coefficient_change(f, coef, J).gram_key() for f in forms)
    for f in forms:
        g = coefficient_change(f, coef, J)
        assert g.gram == [[I.scal(u, e) for e in row] for row in f.gram]
        assert coefficient_change(g, coef, J.inverse()).gram_key() == f.gram_key()


def test_coefficient_change_along_gamma_and_back_round_trips():
    """gamma.matrix identifies the iterated transfer coefficient with the
    direct one for GF(9)[t]/(t^3) -> GF(9)[t]/(t^2) -> GF(9); its inverse
    carries a k-form over, and gamma.matrix carries it back."""
    rwi_R = parse_ring_with_involution("GF(9)[t]/(t^3), sigma=t->-t")
    rwi_T = parse_ring_with_involution("GF(9)[t]/(t^2), sigma=t->-t")
    rwi_k = parse_ring_with_involution("GF(9), sigma=id")
    T, k = rwi_T.ring, rwi_k.ring
    p = RingMap(rwi_R.ring, T, [T.gen("u"), T.gen("t")])
    q = RingMap(T, k, [k.gen("u"), k.zero])
    gamma = GammaComparison(p, q, rwi_T, rwi_k, standard_coefficient(rwi_R))
    assert gamma.matrix != Matrix.identity(gamma.direct.F, gamma.matrix.nrows)
    direct, composite = gamma.direct.coefficient, gamma.composite.coefficient
    forms = list(sample_gram_tables(direct, free_module(rwi_k, 2), 1, 4, random.Random(5)))
    for f in forms:
        fq = coefficient_change(f, composite, gamma.matrix.inverse())
        assert fq.coef == composite
        assert coefficient_change(fq, direct, gamma.matrix).gram_key() == f.gram_key()


def test_orthogonal_sum_requires_matching_data():
    c3 = coef_over(3)
    c5 = coef_over(5)
    f = diagonal_form(c3, [c3.rwi.ring.one])
    g = diagonal_form(c5, [c5.rwi.ring.one])
    with pytest.raises(CoefficientMismatch):
        orthogonal_sum(f, g)


def test_btensor_is_the_ring_valued_gram_matrix():
    rwi = involution(GF(9), "frobenius")
    coef = standard_coefficient(rwi)
    F9 = rwi.ring
    u = F9.gen("u")
    g = HermitianForm(coef, free_module(rwi, 2), [[F9.one, u], [u ** 3, F9.zero]], 1)
    assert g.btensor() == Matrix(F9, [[F9.one, u], [u ** 3, F9.zero]])
    # entry (i, j) is b(g_i, g_j), also for a form built by the library
    h = hyperbolic_form(coef, free_module(rwi, 1))
    G = h.btensor()
    assert G.ring == F9 and (G.nrows, G.ncols) == (2, 2)
    gens = h.module.generators()
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            assert G[(i, j)] == h.evaluate(x, y)[0]


def test_btensor_rejects_coefficient_not_free_of_rank_one():
    # rank 2: I = R^2 with i applied componentwise
    F3 = PrimeField(3)
    rwi = involution(F3, "id")
    I2 = free_module(rwi, 2)
    coef2 = DualityCoefficient(rwi, I2, lambda x: (rwi.conj(x[0]), rwi.conj(x[1])))
    f2 = HermitianForm(coef2, free_module(rwi, 1), [[(F3.one, F3.el(2))]], 1)
    with pytest.raises(CoefficientMismatch):
        f2.btensor()
    # rank 1 but not free: I = R/(t) over R = F_3[t]/(t^2)
    R = QuotientRing(F3, [0, 0, 1], "t")
    rwiR = involution(R, "id")
    It = FLModule(rwiR, [R.gen("t")])
    coeft = DualityCoefficient(rwiR, It, lambda x: (rwiR.conj(x[0]),))
    ft = HermitianForm(coeft, free_module(rwiR, 1), [[R.one]], 1)
    with pytest.raises(CoefficientMismatch):
        ft.btensor()


# -- the coordinate tensor and validation on raw data -------------------------
#
# A plain form's tensor is the raw action of the module's kept products
# sigma(r1) r2 on its Gram key, and _validate tests sesquilinearity as raw
# actions on that key.  The oracles are the Element code before that: each
# entry I.to_ints(I.scal(sigma(r1) * r2, gram[i][j])), and the annihilator
# tests through I.scal and I.is_zero, then epsilon-symmetry at every
# coordinate pair.


def element_coord_tensor(form):
    I, sig = form.coef.module, form.coef.rwi.conj
    reps = [(i, fac.from_coords(unit_vector(form.module.F, fac.sdim, k)))
            for i, fac in enumerate(form.module.factors) for k in range(fac.sdim)]
    return [[I.to_ints(I.scal(sig(r1) * r2, form.gram[i][j])) for j, r2 in reps]
            for i, r1 in reps]


def element_verdict(form):
    """(error class, message) of the Element validation, or None."""
    I, sig = form.coef.module, form.coef.rwi.conj
    for i, fi in enumerate(form.module.factors):
        for j, fj in enumerate(form.module.factors):
            e = form.gram[i][j]
            if not I.is_zero(I.scal(sig(fi.ann), e)):
                return NotSesquilinear, f"entry ({i},{j}) not killed by sigma(ann) of factor {i}"
            if not I.is_zero(I.scal(fj.ann, e)):
                return NotSesquilinear, f"entry ({i},{j}) not killed by ann of factor {j}"
    tab = element_coord_tensor(form)
    eps = form.ring.el(form.epsilon)
    d = form.module.sdim
    for c1 in range(d):
        for c2 in range(d):
            if tab[c2][c1] != I.to_ints(I.scal(eps, form.coef.i(I.from_vec(tab[c1][c2])))):
                return (NotEpsilonSymmetric,
                        f"b(y,x) != epsilon i(b(x,y)) at coordinate pair ({c1},{c2})")
    return None


def raw_verdict(form):
    try:
        form._validate()
    except (NotSesquilinear, NotEpsilonSymmetric) as e:
        return type(e), str(e)
    return None


RAW_RINGS = [
    "GF(3)[t]/(t^2), sigma=id",
    "GF(3)[t]/(t^2), sigma=t->-t",
    "GF(3)[t]/(t^3), sigma=id",
    "GF(9), sigma=frobenius",
    "GF(3)xGF(3), sigma=swap",
    "GF(9)[t]/(t^2), sigma=t->-t",
    "QQ(i), sigma=conj",
]


def _random_entry(I, rng):
    if I.F.is_finite:
        return I.from_vec(tuple(I.F.el(rng.randrange(I.F.p)) for _ in range(I.sdim)))
    return I.from_vec(tuple(I.F.el(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
                            for _ in range(I.sdim)))


def _oracle_forms(rwi, rng):
    """Forms with check=False on shapes of one and two indecomposables:
    random tables (most fail validation, many are not killed by the
    annihilators), their symmetrizations, sampled valid tables and each
    under the other sign, and over the t-adic rings the transfers of the
    k-classes of length <= 2 (valued in the transfer coefficient) with
    their transfers."""
    coef = standard_coefficient(rwi)
    I = coef.module
    anns = indecomposable_factor_anns(rwi.ring)
    shapes = [[a] for a in anns] + [[a, b] for a in anns for b in anns]
    out = []
    for shape in shapes:
        M = rwi.module(shape)
        n = len(shape)
        for epsilon in (1, -1):
            eps = rwi.ring.el(epsilon)
            for _ in range(3):
                gram = [[_random_entry(I, rng) for _ in range(n)] for _ in range(n)]
                out.append(HermitianForm(coef, M, gram, epsilon, check=False))
                sym = [[gram[i][j] if i <= j else I.scal(eps, coef.i(gram[j][i]))
                        for j in range(n)] for i in range(n)]
                out.append(HermitianForm(coef, M, sym, epsilon, check=False))
            if I.F.is_finite:
                for f in sample_gram_tables(coef, M, epsilon, 2, rng):
                    # valid, and killed by the annihilators under -epsilon
                    out += [f, HermitianForm(coef, M, f.gram, -epsilon, check=False)]
    if is_nilpotent_quotient(rwi.ring):
        data = DevissageData(rwi)
        for epsilon in (1, -1):
            engine = WittEngine(data.tc.coefficient, epsilon)
            for m in engine.shapes_up_to(2):
                for f in engine.classes(m):
                    out += [f, transfer_form(data.tc, f)]
    return out


@pytest.mark.parametrize("text", RAW_RINGS)
def test_raw_tensor_and_validation_match_the_element_oracle(text):
    rwi = parse_ring_with_involution(text)
    forms = _oracle_forms(rwi, random.Random(11))
    verdicts = []
    for form in forms:
        assert form._coord_tensor() == element_coord_tensor(form), form
        verdict = element_verdict(form)
        assert raw_verdict(form) == verdict, form
        verdicts.append(None if verdict is None else verdict[0])
    # each ring sees valid and non-symmetric tables, and each ring with a
    # nonzero annihilator tables that it does not kill
    assert None in verdicts and NotEpsilonSymmetric in verdicts
    assert (NotSesquilinear in verdicts) == (not rwi.ring.is_field)


# -- the Gram entries of a composed form ---------------------------------------
#
# Every form makes its Gram entries from its Gram key.  The oracle is the
# composed branch before that: each entry taken from the summand that
# holds both factors, zero off the diagonal blocks.


def picked_gram(form):
    summands, order = form._parts
    zero = form.coef.module.zero()
    picked = _picked(summands, order)
    return [[summands[s].gram[i][j] if s == t else zero for t, j in picked] for s, i in picked]


@pytest.mark.parametrize("text, epsilon", [
    ("GF(3)[t]/(t^2), sigma=id", 1),
    ("GF(3)[t]/(t^3), sigma=id", 1),
    ("GF(3)xGF(3), sigma=swap", -1),
    ("GF(9), sigma=frobenius", 1),
])
def test_a_composed_gram_is_the_summands_block_table(text, epsilon):
    engine = WittEngine(standard_coefficient(parse_ring_with_involution(text)), epsilon)
    classes = [f for m in engine.shapes_up_to(2) for f in engine.classes(m)]
    composed = 0
    for i, f in enumerate(classes):
        for g in classes[i:]:
            s = orthogonal_sum(f, g)
            # a sum whose summand is composed too, in both places
            for form in (s, orthogonal_sum(s, f), orthogonal_sum(g, s)):
                assert form.gram == picked_gram(form)
                composed += 1
    assert composed
