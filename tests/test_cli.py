"""The command-line contract: golden --json lines and exit codes."""

import time

import pytest

from wittkit.cli import main

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
]


@pytest.mark.parametrize(
    "argv, code, line",
    GOLDEN,
    ids=["witt-stable", "witt-unstable", "devissage-iso", "devissage-unstable",
         "transfer-f9", "transfer-t-cubed", "diagonalize-qq-i", "diagonalize-f9", "koszul-sign",
         "witt-f5-bound-5", "witt-f3-skew-bound-6"],
)
def test_golden_json_and_exit_code(argv, code, line, capsys):
    assert main(argv + ["--json"]) == code
    out, err = capsys.readouterr()
    assert out == line + "\n"
    assert err == ""


def test_parse_error_exits_2(capsys):
    assert main(["witt", "GF(3, sigma=id", "+1", "2", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: expected ')', found ',' (line 1, column 5)\n"


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_bound_below_one_exits_1(bound, capsys):
    assert main(["witt", "GF(3), sigma=id", "+1", bound, "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the length bound must be at least 1, not {bound}\n"


def test_oversized_bound_exits_3_before_enumerating(capsys):
    start = time.perf_counter()
    assert main(["witt", "GF(3)[t]/(t^2), sigma=id", "+1", "99", "--json"]) == 3
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: module of size 531441 exceeds the engine limit 400000\n"
