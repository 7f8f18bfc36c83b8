"""Self-test of the benchmark harness, on the tiny ``smoke`` workload.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the library's own test run; it takes about
ten seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import SMOKE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(seed, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "smoke", "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(seed, trace):
    done = _run(seed, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def test_every_metric_prints_with_its_unit():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = _result(seed=3, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= len(SMOKE.queries)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "fields-aniso", "fields-split", "nilpotent-devissage"]
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].queries


def test_wrong_expected_answer_is_a_failure():
    lib = run.Library()
    witt = SMOKE.queries[-1]
    wrong_group = dataclasses.replace(witt, expect={**witt.expect, "group": "Z/2"})
    wrong_exit = dataclasses.replace(witt, expect_exit=1)
    results = run.run_pass(lib, [*SMOKE.queries, wrong_group, wrong_exit])
    errors = [error for _, _, error in results]
    assert errors[:len(SMOKE.queries)] == [None] * len(SMOKE.queries)
    assert "group" in errors[-2]
    assert "exit code 0" in errors[-1]


def test_traced_counts_do_not_depend_on_query_order():
    (first, log1), (second, log2) = _result(seed=1, trace=1), _result(seed=2, trace=1)
    assert log1.splitlines()[0] != log2.splitlines()[0], "seeds should give two orders"
    assert first["correct"] and second["correct"]
    exact = [n for n in first["metrics"]
             if n.endswith((".calls", ".cells", ".relations", "classes_found"))]
    assert {"wittgroup.classes_found", "intsnf.smith_normal_form.cells",
            "intsnf.PresentedGroup.relations", "rings.Element.mul.calls"} <= set(exact)
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(seed=1, trace=0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
