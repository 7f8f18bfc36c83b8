"""wittkit benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload fields-aniso --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the library is imported from
the checkout's ``src/``.  One process is one closed-loop client: it sends
the workload's queries one after another, in an order fixed by the seed,
and repeats the whole list (a pass) while another pass of the mean length
so far still fits in ``--seconds``; the first pass always runs.  Every
answer is checked against the theory table in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
the median time of the slowest query, the process's peak RSS, and the
median set-up time (import plus descriptor parsing) of fresh interpreters
started between passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (medians over traced passes) and the tracing overhead;
its spans go to ``.bench_out/`` in the checkout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
fail ratio.  Per-pass details go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fresh interpreters timed before each pass and after the last; the
# machine's speed shifts between modes that last seconds, so the probes are
# spread over the run instead of taken at once
SETUP_PROBES_PER_PASS = 2

# times the set-up of one fresh interpreter: argv is src, bench, workload
SETUP_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import workloads
t0 = time.perf_counter()
workloads.set_up(workloads.WORKLOADS[sys.argv[3]])
print(repr(time.perf_counter() - t0))
"""


# -- queries -----------------------------------------------------------------


class Library:
    """The entry points a query calls, imported from the checkout."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import wittkit
        import wittkit.devissage
        from wittkit.cli import main
        from wittkit.parser import parse_element, parse_ring_with_involution

        where = Path(wittkit.__file__).resolve()
        if SRC not in where.parents:
            raise SystemExit(f"error: wittkit was imported from {where}, not from {SRC}")
        self.cli_main = main
        # verify_localcase_factorization is looked up on each call, so that
        # the tracer's wrapper is the one called
        self.devissage = wittkit.devissage
        self.parse_element = parse_element
        self.parse_ring_with_involution = parse_ring_with_involution

    def localcase(self, argv):
        ring, ideal, eps, bound = argv
        rwi = self.parse_ring_with_involution(ring)
        rep = self.devissage.verify_localcase_factorization(
            rwi, self.parse_element(rwi.ring, ideal), int(eps), int(bound))
        return {"diagram_commutes": rep.diagram_commutes,
                "diagram_checked": rep.diagram_checked,
                "p_star": rep.p_star.describe()}

    def execute(self, query):
        """(exit code, parsed --json payload or None)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if query.kind == "localcase":
                return 0, self.localcase(query.argv)
            code = self.cli_main([*query.argv, "--json"])
        return code, (json.loads(out.getvalue()) if code == 0 else None)


def mismatch(query, code, got):
    """None when the answer agrees with theory, else what differs."""
    if code != query.expect_exit:
        return f"exit code {code}, expected {query.expect_exit}"
    if query.expect_exit != 0:
        return None
    # compared as JSON text, so that true and 1 differ
    bad = {k: got.get(k) for k, v in query.expect.items()
           if json.dumps(got.get(k), sort_keys=True) != json.dumps(v, sort_keys=True)}
    return f"fields differ from theory: {bad}" if bad else None


def run_pass(lib, queries, tracer=None):
    """Send each query once, in order; returns [(query, seconds, error)]."""
    out = []
    for q in queries:
        gc.collect()
        token = tracer.start_query(q.qid) if tracer else None
        t0 = time.perf_counter()
        try:
            code, got = lib.execute(q)
        except Exception as e:  # a raising query is a failed query, not a harness crash
            code, got, error = None, None, f"raised {type(e).__name__}: {e}"
        else:
            error = None
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end_query(token)
        if error is None:
            error = mismatch(q, code, got)
        if error:
            print(f"FAIL {q.qid}: {error} (theory: {q.why})", file=sys.stderr)
        out.append((q, seconds, error))
    return out


# -- metrics -----------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def _calls_self(name):
    return [(f"{name}.calls", "count", lambda st: st[name].calls),
            (f"{name}.self_s", "s", lambda st: st[name].self_s)]


def _calls_total(name):
    return [(f"{name}.calls", "count", lambda st: st[name].calls),
            (f"{name}.total_s", "s", lambda st: st[name].total_s)]


def _hit_ratio(cache, inner):
    # a miss is a call of the inner function made directly by the cache method
    return lambda st: _ratio(st[cache].calls - st[inner].under_cache, st[cache].calls)


# (metric, unit, value from one traced pass's stats); trace.overhead_ratio
# is added from the pass walls
PER_LAYER = (
    _calls_self("rings.Element.mul")
    + _calls_self("rings.RingWithInvolution.conj")
    + _calls_self("linalg.Matrix.rref")
    + _calls_self("modules.FLModule")
    + _calls_total("coefficients.DualModule")
    + _calls_total("transfer.TransferCoefficient")
    + _calls_total("transfer.transfer_form")
    + _calls_total("forms.HermitianForm.is_nondegenerate")
    + _calls_total("wittgroup.WittEngine.classes")
    + [("wittgroup.classes_found", "count",
        lambda st: st["wittgroup.WittEngine.classes"].extra.get("classes_found", 0))]
    + _calls_total("wittgroup.WittEngine.lookup")
    + _calls_total("forms.HermitianForm.norm_fingerprint")
    + [("wittgroup.fingerprint.hit_ratio", "ratio",
        _hit_ratio("wittgroup.WittEngine.fingerprint", "forms.HermitianForm.norm_fingerprint")),
       ("wittgroup.metabolic.hit_ratio", "ratio",
        _hit_ratio("wittgroup.WittEngine.metabolic", "forms.is_metabolic")),
       ("wittgroup.dual.hit_ratio", "ratio",
        _hit_ratio("wittgroup.WittEngine.dual_of", "coefficients.DualModule"))]
    + _calls_total("forms.isometric")
    + [("forms.isometric.hit_ratio", "ratio",
        lambda st: _ratio(st["forms.isometric"].extra.get("hits", 0), st["forms.isometric"].calls))]
    + _calls_total("forms.is_metabolic")
    + [("forms.is_metabolic.true_ratio", "ratio",
        lambda st: _ratio(st["forms.is_metabolic"].extra.get("trues", 0), st["forms.is_metabolic"].calls))]
    + _calls_total("intsnf.PresentedGroup")
    + [("intsnf.PresentedGroup.relations", "count",
        lambda st: st["intsnf.PresentedGroup"].extra.get("relations", 0))]
    + _calls_total("intsnf.hom_kernel_cokernel_trivial")
    + _calls_total("intsnf.lattice_contains")
    + _calls_total("intsnf.smith_normal_form")
    + [("intsnf.smith_normal_form.cells", "count",
        lambda st: st["intsnf.smith_normal_form"].extra.get("cells", 0)),
       ("devissage.verify_devissage.total_s", "s",
        lambda st: st["devissage.verify_devissage"].total_s),
       ("devissage.verify_localcase_factorization.total_s", "s",
        lambda st: st["devissage.verify_localcase_factorization"].total_s)]
)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def setup_samples(workload):
    """Seconds of import wittkit plus parsing the workload's descriptors,
    each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES_PER_PASS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload.name],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _pass_summary(label, results):
    wall = sum(s for _, s, _ in results)
    print(f"{label}: {wall:.3f} s  " + "  ".join(f"{s:.3f}" for _, s, _ in results),
          file=sys.stderr)
    return wall


def _room_for(start, seconds, pass_walls):
    """Is there time for one more pass (or pair of passes) of the mean
    length so far?  The first always runs."""
    if not pass_walls:
        return True
    return time.perf_counter() - start + statistics.mean(pass_walls) <= seconds


def measure(lib, workload, queries, seconds):
    """Untraced passes for about seconds, with set-up probes between them:
    the end-to-end metrics."""
    walls, per_query, results, setups = [], {}, [], []
    start = time.perf_counter()
    while _room_for(start, seconds, walls):
        setups += setup_samples(workload)
        res = run_pass(lib, queries)
        results += res
        walls.append(_pass_summary(f"pass {len(walls) + 1}", res))
        for q, s, _ in res:
            per_query.setdefault(q.qid, []).append(s)
    setups += setup_samples(workload)
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "slowest_query_s": _metric(max(statistics.median(t) for t in per_query.values()), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    return metrics, results


def measure_traced(lib, queries, seconds, spans_path):
    """Untraced and traced passes in turn for about seconds: the per-layer
    metrics.  Alternating keeps a drift in machine speed out of the
    overhead ratio."""
    tracer = Tracer()
    per_pass, traced, untraced, results = [], [], [], []
    start = time.perf_counter()
    while _room_for(start, seconds, [u + t for u, t in zip(untraced, traced)]):
        res = run_pass(lib, queries)
        results += res
        untraced.append(_pass_summary(f"untraced pass {len(untraced) + 1}", res))
        tracer.install()
        try:
            tracer.reset_stats(pass_no=len(traced) + 1)
            res = run_pass(lib, queries, tracer)
        finally:
            tracer.uninstall()
        results += res
        traced.append(_pass_summary(f"traced pass {len(traced) + 1}", res))
        per_pass.append({name: fn(tracer.stats) for name, _, fn in PER_LAYER})
    metrics = {name: _metric(statistics.median(p[name] for p in per_pass), unit)
               for name, unit, _ in PER_LAYER}
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(traced) / statistics.median(untraced), "ratio")
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    return metrics, results


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wittkit" / "__init__.py").is_file():
        print(f"error: no wittkit source under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    queries = list(workload.queries)
    random.Random(args.seed).shuffle(queries)
    print(f"{workload.name}, seed {args.seed}: " + " | ".join(q.qid for q in queries),
          file=sys.stderr)

    lib = Library()
    if args.trace:
        spans = ROOT / ".bench_out" / f"trace-{workload.name}-seed{args.seed}.jsonl"
        metrics, results = measure_traced(lib, queries, args.seconds, spans)
    else:
        metrics, results = measure(lib, workload, queries, args.seconds)
    failed = sum(1 for _, _, error in results if error)
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
