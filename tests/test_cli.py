"""The command-line contract: golden --json lines and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wittkit
from wittkit.cli import build_parser, main

GOLDEN = [
    (
        ["witt", "GF(3), sigma=id", "+1", "2"],
        0,
        '{"bound": 2, "classes": 4, "epsilon": 1, "factors": [4], "group": "Z/4", "stable": true}',
    ),
    (
        ["witt", "GF(3)[t]/(t^3), sigma=id", "+1", "3"],
        0,
        '{"bound": 3, "classes": 14, "epsilon": 1, "factors": [4, 0, 0], '
        '"group": "Z/4 x Z x Z", "stable": false}',
    ),
    (
        ["devissage-check", "GF(3)[t]/(t^2), sigma=id", "+1", "3"],
        0,
        '{"bound": 3, "epsilon": 1, "isomorphism": true, "source": "Z/4 (stable)", '
        '"stable": true, "target": "Z/4 (stable)", "verdict": "ISOMORPHISM (stable)"}',
    ),
    (
        # an isomorphism, but at a bound where neither side is stable yet
        ["devissage-check", "GF(3)[t]/(t^2), sigma=id", "+1", "1"],
        1,
        '{"bound": 1, "epsilon": 1, "isomorphism": true, "source": "Z x Z (unstable)", '
        '"stable": false, "target": "Z x Z (unstable)", "verdict": "ISOMORPHISM (unstable)"}',
    ),
    (
        ["transfer", "GF(3) -> GF(9)/GF(3), sigma=frobenius", "[[1]]"],
        0,
        '{"epsilon": 1, "factors": ["0", "0"], "gram": [["1", "0"], ["0", "1"]], "nondegenerate": true}',
    ),
    (
        ["transfer", "GF(3)[t]/(t^3) -> GF(3), sigma=id", "[[1,0],[0,-1]]"],
        0,
        '{"epsilon": 1, "factors": ["t", "t"], "gram": [["t^2", "0"], ["0", "2*t^2"]], "nondegenerate": true}',
    ),
    (
        ["diagonalize", "QQ(i), sigma=conj", "[[0,1],[1,0]]"],
        0,
        '{"entries": ["1", "-1"], "epsilon": 1}',
    ),
    (
        ["diagonalize", "GF(9), sigma=frobenius", "[[0,1],[1,0]]"],
        0,
        '{"entries": ["1", "1"], "epsilon": 1}',
    ),
    (
        ["koszul-sign", "QQ[X,Y]", "[X-Y]", "swap"],
        0,
        '{"augmentation_square": true, "beta_square": true, "chain_map": true, "u": "-1"}',
    ),
    (
        # the bound+1 check decides metabolicity for forms of rank 6 over
        # GF(5), most of them not metabolic
        ["witt", "GF(5), sigma=id", "+1", "5"],
        0,
        '{"bound": 5, "classes": 10, "epsilon": 1, "factors": [2, 2], "group": "Z/2 x Z/2", "stable": true}',
    ),
    (
        ["witt", "GF(3), sigma=id", "-1", "6"],
        0,
        '{"bound": 6, "classes": 3, "epsilon": -1, "factors": [], "group": "0", "stable": true}',
    ),
    (
        # every class past rank 1 is an orthogonal sum with composed tables
        ["witt", "GF(9), sigma=id", "+1", "4"],
        0,
        '{"bound": 4, "classes": 8, "epsilon": 1, "factors": [2, 2], "group": "Z/2 x Z/2", "stable": true}',
    ),
    (
        ["witt", "GF(7), sigma=id", "+1", "5"],
        0,
        '{"bound": 5, "classes": 10, "epsilon": 1, "factors": [4], "group": "Z/4", "stable": true}',
    ),
    (
        # a ring over GF(9): its products and sigma images are built from GF(9)'s
        ["devissage-check", "GF(9)[t]/(t^2), sigma=t->-t", "+1", "3"],
        0,
        '{"bound": 3, "epsilon": 1, "isomorphism": true, "source": "0 (stable)", '
        '"stable": true, "target": "0 (stable)", "verdict": "ISOMORPHISM (stable)"}',
    ),
    (
        ["devissage-check", "GF(3)[t]/(t^4), sigma=t->-t", "-1", "4"],
        0,
        '{"bound": 4, "epsilon": -1, "isomorphism": true, "source": "Z/4 (stable)", '
        '"stable": true, "target": "Z/4 (stable)", "verdict": "ISOMORPHISM (stable)"}',
    ),
    (
        # rank-10 hyperbolic forms over a product ring: the isometry
        # candidates come from the annihilator kernels, not the whole module
        ["witt", "GF(3)xGF(3), sigma=swap", "+1", "10"],
        0,
        '{"bound": 10, "classes": 5, "epsilon": 1, "factors": [], "group": "0", "stable": true}',
    ),
    (
        # restriction along GF(3)[t]/(t^3) -> GF(3)[t]/(t^2), where t acts
        # nontrivially on the restricted module
        ["transfer", "GF(3)[t]/(t^3) -> GF(3)[t]/(t^2), sigma=id", "[[1,t],[t,2]]"],
        0,
        '{"epsilon": 1, "factors": ["t^2", "t^2"], "gram": [["t", "t^2"], ["t^2", "2*t"]], "nondegenerate": true}',
    ),
    (
        # a univariate generator of degree 2: t^2 - 1 is fixed by t -> -t
        ["koszul-sign", "QQ[t]", "[t^2-1]", "t -> -t"],
        0,
        '{"augmentation_square": true, "beta_square": true, "chain_map": true, "u": "+1"}',
    ),
    (
        # every metabolicity answer over a non-field ring at length 6
        ["witt", "GF(3)[t]/(t^2), sigma=id", "+1", "6"],
        0,
        '{"bound": 6, "classes": 42, "epsilon": 1, "factors": [4], "group": "Z/4", "stable": true}',
    ),
    (
        # W(F3 x F3, id) = W(F3)^2: sigma acts componentwise on the product
        ["witt", "GF(3)xGF(3), sigma=id", "+1", "3"],
        0,
        '{"bound": 3, "classes": 24, "epsilon": 1, "factors": [4, 4], "group": "Z/4 x Z/4", "stable": true}',
    ),
]

# The paper's P^1 with [X:Y] -> [Y:X] has the fixed points [1:1] and [-1:1].
# In the chart x = X/Y the involution is x -> 1/x: t -> -t/(1+t) =
# -t + t^2 - ... at t = x - 1, and s -> -s/(1-s) = -s - s^2 - ... at
# s = x + 1.  Truncated to GF(3)[t]/(t^3), both are non-linear involutions.
# u = t - sigma(t) (2t - t^2, and 2t + t^2) is a uniformizer with
# sigma(u) = -u, so t -> u is an isomorphism of rings with involution from
# (R, t->-t) onto each model, and every answer is the one for t->-t.  The
# residue field is GF(3) with the identity.
P1_MODELS = ["t->-t+t^2", "t->-t-t^2"]
P1_ANSWERS = {
    # W(R) = W(GF(3)) = Z/4, since -1 is not a square in GF(3)
    ("witt", "+1"):
        '{"bound": 4, "classes": 15, "epsilon": 1, "factors": [4], "group": "Z/4", "stable": true}',
    # W^-(R) = W^-(GF(3)) = 0: alternating forms over a field are hyperbolic
    ("witt", "-1"):
        '{"bound": 4, "classes": 8, "epsilon": -1, "factors": [], "group": "0", "stable": true}',
    # sigma fixes the socle t^2 (sigma(t)^2 = t^2 mod t^3), so the transfer
    # keeps the sign, and devissage makes W(GF(3)) -> W(R) an isomorphism
    ("devissage-check", "+1"):
        '{"bound": 4, "epsilon": 1, "isomorphism": true, "source": "Z/4 (stable)", '
        '"stable": true, "target": "Z/4 (stable)", "verdict": "ISOMORPHISM (stable)"}',
    # the same with both sides 0
    ("devissage-check", "-1"):
        '{"bound": 4, "epsilon": -1, "isomorphism": true, "source": "0 (stable)", '
        '"stable": true, "target": "0 (stable)", "verdict": "ISOMORPHISM (stable)"}',
}
P1_GOLDEN = [([command, f"GF(3)[t]/(t^3), sigma={sigma}", eps, "4"], 0, line)
             for sigma in P1_MODELS for (command, eps), line in P1_ANSWERS.items()]
P1_IDS = [f"{command}-p1-{sigma}-{eps}" for sigma in P1_MODELS for command, eps in P1_ANSWERS]


@pytest.mark.parametrize(
    "argv, code, line",
    GOLDEN,
    ids=["witt-stable", "witt-unstable", "devissage-iso", "devissage-unstable",
         "transfer-f9", "transfer-t-cubed", "diagonalize-qq-i", "diagonalize-f9", "koszul-sign",
         "witt-f5-bound-5", "witt-f3-skew-bound-6", "witt-f9-bound-4", "witt-f7-bound-5",
         "devissage-f9-t-squared", "devissage-t-fourth-skew", "witt-swap-bound-10",
         "transfer-t-cubed-to-t-squared", "koszul-sign-univariate", "witt-t-squared-bound-6",
         "witt-product-id-bound-3"],
)
def test_golden_json_and_exit_code(argv, code, line, capsys):
    assert main(argv + ["--json"]) == code
    out, err = capsys.readouterr()
    assert out == line + "\n"
    assert err == ""


@pytest.mark.parametrize("argv, code, line", P1_GOLDEN, ids=P1_IDS)
def test_p1_fixed_point_goldens(argv, code, line, capsys):
    assert main(argv + ["--json"]) == code
    out, err = capsys.readouterr()
    assert out == line + "\n"
    assert err == ""


@pytest.mark.parametrize("sigma", P1_MODELS)
def test_p1_fixed_point_models_answer_as_the_linear_involution(sigma, capsys):
    for command, eps in P1_ANSWERS:
        answers = []
        for s in (sigma, "t->-t"):
            assert main([command, f"GF(3)[t]/(t^3), sigma={s}", eps, "4", "--json"]) == 0
            answers.append(capsys.readouterr().out)
        assert answers[0] == answers[1], (command, eps)


@pytest.mark.parametrize("named, golden", [
    ("GF(3), sigma=id -> GF(9)/GF(3), sigma=frobenius", "GF(3) -> GF(9)/GF(3), sigma=frobenius"),
    ("GF(3)[t]/(t^3), sigma=id -> GF(3)", "GF(3)[t]/(t^3) -> GF(3), sigma=id"),
])
def test_a_named_source_involution_answers_as_the_default(named, golden, capsys):
    argv, code, line = next(g for g in GOLDEN if g[0][:2] == ["transfer", golden])
    assert main(["transfer", named, *argv[2:], "--json"]) == code
    out, err = capsys.readouterr()
    assert (out, err) == (line + "\n", "")


def test_python_dash_m_wittkit_runs_the_cli(capsys):
    argv, code, line = GOLDEN[0]
    src = str(Path(wittkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "wittkit", *argv, "--json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert main(argv + ["--json"]) == done.returncode == code
    out, _ = capsys.readouterr()
    assert done.stdout == out == line + "\n"
    assert done.stderr == ""


def test_one_parser_per_process_answers_as_a_fresh_one(capsys):
    # --json before the subcommand, after it, then not at all: a flag seen
    # by one call must not leak into the next through the shared parser
    argv = ["witt", "GF(3), sigma=id", "+1", "2"]
    runs = [["--json"] + argv, argv + ["--json"], argv]
    shared = []
    for run in runs:
        shared.append((main(run), capsys.readouterr()))
    for run, seen in zip(runs, shared):
        build_parser.cache_clear()
        assert (main(run), capsys.readouterr()) == seen
    assert [out for _, (out, _) in shared] == [GOLDEN[0][2] + "\n"] * 2 + ["Z/4 (stable)\n"]


def test_bound_flag_default_bound_and_seed(capsys):
    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        return out

    witt = ["witt", "GF(3), sigma=id", "+1"]
    positional = run(witt + ["3", "--json"])
    assert run(witt + ["--bound", "3", "--json"]) == positional
    assert json.loads(run(witt + ["--json"]))["bound"] == 4
    seeded = json.loads(run(witt + ["3", "--seed", "7", "--json"]))
    assert seeded.pop("seed") == 7
    assert seeded == json.loads(positional)
    assert run(witt + ["3", "--seed", "7"]) == run(witt + ["3"]) == "Z/4 (stable)\n"


def test_koszul_sign_human_output(capsys):
    assert main(["koszul-sign", "QQ[X,Y]", "[X-Y]", "swap"]) == 0
    out, err = capsys.readouterr()
    assert out == "augmentation square: pass\nchain map: pass\nbeta square: pass\nu=-1\n"
    assert err == ""


def test_koszul_sign_on_a_non_invariant_ideal_exits_1(capsys):
    assert main(["koszul-sign", "QQ[X,Y]", "[X]", "swap", "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: sigma of the sequence is not a constant combination of it\n"


def test_parse_error_exits_2(capsys):
    assert main(["witt", "GF(3, sigma=id", "+1", "2", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: expected ')', found ',' (line 1, column 5)\n"


def test_a_form_that_is_not_epsilon_symmetric_exits_1(capsys):
    argv = ["transfer", "GF(3)[t]/(t^3) -> GF(3)[t]/(t^2), sigma=id", "[[0,1],[1,0]]", "-1", "--json"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: b(y,x) != epsilon i(b(x,y)) at coordinate pair (0,2)\n"


def test_devissage_over_a_ring_without_residue_tower_exits_1(capsys):
    assert main(["devissage-check", "GF(3)xGF(3), sigma=swap", "+1", "2", "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no residue tower for GF(3)xGF(3)\n"


# rings outside the module theory: neither a field, nor k[t]/(t^n), nor a
# product of two equal fields
REFUSALS = [
    ("GF(3)[x]/((x-1)^2), sigma=id", "no module theory over GF(3)[x]/(1 + x + x^2)"),
    ("GF(5)[x]/(x^2+1), sigma=x->4*x", "no module theory over GF(5)[x]/(1 + x^2)"),
    ("GF(3)[t]/(t^2)xGF(3)[t]/(t^2), sigma=swap", "product module theory needs equal field factors"),
    ("GF(3)xGF(9), sigma=id", "product module theory needs equal field factors"),
]


@pytest.mark.parametrize("ring, message", REFUSALS, ids=[r for r, _ in REFUSALS])
def test_a_ring_without_module_theory_exits_1(ring, message, capsys):
    assert main(["witt", ring, "+1", "2", "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_bound_below_one_exits_1(bound, capsys):
    assert main(["witt", "GF(3), sigma=id", "+1", bound, "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the length bound must be at least 1, not {bound}\n"


@pytest.mark.parametrize("command", ["witt", "devissage-check"])
def test_oversized_bound_exits_3_before_enumerating(command, capsys):
    start = time.perf_counter()
    assert main([command, "GF(3)[t]/(t^2), sigma=id", "+1", "99", "--json"]) == 3
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: module of size 531441 exceeds the engine limit 400000\n"


# QQ[t]/(t^2+1) is the field QQ(i) on another variable name; before the
# degree-2 rule over QQ it had no module theory
def test_diagonalize_over_a_quadratic_quotient_of_qq(capsys):
    argv = ["diagonalize", "QQ[t]/(t^2+1), sigma=t->-t", "[[1]]"]
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr() == ('{"entries": ["1"], "epsilon": 1}\n', "")
    assert main(argv) == 0
    assert capsys.readouterr() == ("diag(1)\n", "")


def test_quotients_over_qq_print_negative_terms_with_a_minus(capsys):
    argv = ["transfer", "QQ[t]/(t^3) -> QQ[t]/(t^2), sigma=id", "[[1,t],[t,-1]]"]
    assert main(argv) == 0
    assert capsys.readouterr() == ("[[t, t^2], [t^2, -t]]\n", "")


# bases with generators: the constants of the reduction are lifted into the
# polynomial ring, and swap fixes the generators of the base; the answers
# are those over QQ[t], QQ[X,Y] and GF(3)[X,Y]
KOSZUL_OVER_BASES = [
    (["QQ[t]", "[t]", "t -> -t"], "-1"),
    (["QQ(i)[t]", "[t]", "t -> -t"], "-1"),
    (["QQ(sqrt(-5))[t]", "[t]", "t -> -t"], "-1"),
    (["GF(9)[t]", "[t]", "t -> -t"], "-1"),
    (["QQ[X,Y]", "[X+Y]", "swap"], "+1"),
    (["GF(3)[X,Y]", "[X-Y]", "swap"], "-1"),
    (["GF(3)[X,Y]", "[X+Y]", "swap"], "+1"),
    (["QQ(i)[X,Y]", "[X-Y]", "swap"], "-1"),
    (["QQ(i)[X,Y]", "[X+Y]", "swap"], "+1"),
    (["GF(9)[X,Y]", "[X-Y]", "swap"], "-1"),
    (["GF(9)[X,Y]", "[X+Y]", "swap"], "+1"),
]


@pytest.mark.parametrize("argv, u", KOSZUL_OVER_BASES, ids=[" ".join(a) for a, _ in KOSZUL_OVER_BASES])
def test_koszul_sign_over_a_base_with_generators(argv, u, capsys):
    assert main(["koszul-sign", *argv, "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"augmentation_square": True, "beta_square": True, "chain_map": True, "u": u}
    assert err == ""


@pytest.mark.parametrize("gram", ["[[1]]", "[[1"])
def test_transfer_refuses_a_coefficient_with_several_factors_before_the_table(gram, capsys):
    # pi^flat I for the identity of GF(3)xGF(3) is R = e1.R + e2.R; a
    # malformed table is refused the same way, so the table is never read
    argv = ["transfer", "GF(3)xGF(3), sigma=swap -> GF(3)xGF(3), sigma=swap", gram, "--json"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: pi^flat I has 2 cyclic factors; Gram entries are read as ring "
                   "elements only when pi^flat I is cyclic\n")


# towers out of QQ: the canonical map is the inclusion of the prime field,
# as out of GF(p); QQ has no homomorphism to a field of characteristic p
TRANSFERS_OUT_OF_QQ = [
    ("QQ -> QQ(i), sigma=conj", "[[1, 0], [0, 1]]"),
    ("QQ -> QQ(sqrt(2))", "[[1, 0], [0, 2]]"),
    ("QQ -> QQ[i]/(i^2+1)", "[[1, 0], [0, -1]]"),
    ("QQ -> QQ(sqrt(-5)), sigma=conj", "[[1, 0], [0, 5]]"),
]


@pytest.mark.parametrize("tower, gram", TRANSFERS_OUT_OF_QQ, ids=[t for t, _ in TRANSFERS_OUT_OF_QQ])
def test_transfer_out_of_qq(tower, gram, capsys):
    assert main(["transfer", tower, "[[1]]"]) == 0
    assert capsys.readouterr() == (gram + "\n", "")


def test_transfer_from_qq_to_a_finite_field_exits_1(capsys):
    assert main(["transfer", "QQ -> GF(3)", "[[1]]", "--json"]) == 1
    assert capsys.readouterr() == ("", "error: no homomorphism from QQ to GF(3)\n")
