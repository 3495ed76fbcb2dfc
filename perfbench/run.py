"""Benchmark of the burnside package, driven from outside.

    python3 perfbench/run.py --workload lattice|verdicts|arith \
        --seed N --seconds S --trace 0|1

Cold workloads (lattice, verdicts) start one fresh interpreter per CLI
query, one at a time, and time ``burnside.cli.main([..., "--json"])``
inside it.  arith is one warm interpreter making library calls.  The
load is a closed loop from this single process.  Passes over the
workload repeat until the next one would overrun ``--seconds`` (at least
one pass); each metric is the median over passes.  Times are reported in
reference seconds, scaled for the host's speed (see hostspeed.py).
Every output is checked (see checks.py and child.py) and a wrong one
counts as failed.

With ``--trace 1`` the run makes one untraced and one traced pass (for
arith, half the time each) and reports per-layer metrics; see README.md.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the
environment and every pass's raw values goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "burnside"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150
# set-up is measured in this many arith processes per run (median)
ARITH_SETUPS = 5

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "groups.subgroup_lattice.self_s": "s",
    "groups.subgroup_lattice.calls": "count",
    "groups.subgroup_lattice.builds": "count",
    "groups.subgroups_found": "count",
    "groups.normalizer.self_s": "s",
    "groups.subgroups_conjugate.self_s": "s",
    "groups.subgroups_conjugate.calls": "count",
    "groups.build_group.self_s": "s",
    "groups.direct_product.self_s": "s",
    "gsets.fixed_points.self_s": "s",
    "gsets.fixed_points.calls": "count",
    "gsets.transitive.self_s": "s",
    "gsets.product.self_s": "s",
    "gsets.product.points": "count",
    "gsets.decompose.self_s": "s",
    "gsets.induce.self_s": "s",
    "gsets.induce.points": "count",
    "algebra.table_of_marks.self_s": "s",
    "algebra.structure_constants.self_s": "s",
    "algebra.structure_constants.calls": "count",
    "algebra.structure_constants.builds": "count",
    "algebra.multiply.self_s": "s",
    "algebra.multiply.calls": "count",
    "algebra.invert.self_s": "s",
    "algebra.invert.calls": "count",
    "algebra.idempotent_system.self_s": "s",
    "algebra.marks_vector.self_s": "s",
    "bisets.gamma.self_s": "s",
    "bisets.diagonal_induce.self_s": "s",
    "bisets.diagonal_restrict.self_s": "s",
    "rings.solve_linear.self_s": "s",
    "rings.solve_linear.calls": "count",
    "rings.solve_linear.rows_in": "count",
    "rings.solve_linear.rows_distinct": "count",
    "rings.solve_linear.cols": "count",
    "rings.solve_linear.kernel_size": "count",
    "rings.solve_linear.max_bits": "bits",
    "separability.casimir_linear_system.self_s": "s",
    "separability.casimir_linear_system.rows": "count",
    "separability.leibniz_system.self_s": "s",
    "separability.leibniz_system.rows": "count",
    "separability.verify_casimir.self_s": "s",
    "separability.tensor_act.self_s": "s",
    "separability.casimir_from_idempotents.self_s": "s",
    "separability.commutant_basis.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

# counters that combine across processes by maximum, not by sum
MAX_COUNTERS = {"rings.solve_linear.max_bits"}


def run_child(args):
    """Start child.py, wait for it, and return its JSON record or None."""
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), args[0], repr(spawn)] + args[1:],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not proc.stdout:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout)


class Layers:
    """Per-layer self times and counts summed over traced processes."""

    def __init__(self):
        self.values = defaultdict(float)
        self.exports = []

    def add(self, export):
        self.exports.append(export)
        for name, s in spans.self_times(export).items():
            self.values[f"{name}.self_s"] += s
        for name, v in export["counts"].items():
            if name in MAX_COUNTERS:
                self.values[name] = max(self.values[name], v)
            else:
                self.values[name] += v


def median(xs):
    return statistics.median(xs) if xs else float("nan")


# ---------------------------------------------------------------------------
# cold workloads
# ---------------------------------------------------------------------------

def cold_pass(queries, trace):
    records = []
    for qid, argv in queries:
        records.append(run_child(["query", "1" if trace else "0",
                                  json.dumps(argv)]))
    return records


def cold_summary(queries, records):
    """One pass's metrics; times in reference seconds (see hostspeed.py)."""
    ok = [r for r in records if r is not None]
    op = [r["op_s"] for r in ok]
    return {"wall_s": sum(op), "op_p50_s": median(op),
            "setup_s": median([r["setup_s"] for r in ok]),
            "peak_rss_mb": max((r["rss_mb"] for r in ok), default=float("nan")),
            "raw_wall_s": sum(r["raw_op_s"] for r in ok),
            "queries": {qid: ({k: r[k] for k in ("op_s", "setup_s", "raw_op_s",
                                                 "raw_setup_s")}
                              if r else None)
                        for (qid, _), r in zip(queries, records)}}


def traced_layers(records):
    """Per-layer values of one traced cold pass."""
    layers = Layers()
    for rec in records:
        if rec is not None:
            layers.add(rec["trace"])
            layers.values["cli.output_bytes"] += len(rec["stdout"].encode())
    return layers


def run_cold(queries, seconds, trace, checker):
    passes = []  # (traced, records)
    start = time.perf_counter()
    if trace:
        passes.append((False, cold_pass(queries, False)))
        passes.append((True, cold_pass(queries, True)))
    else:
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            passes.append((False, cold_pass(queries, False)))
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now - start + longest > seconds:
                break
    failures = []
    for _, records in passes:
        for (qid, argv), rec in zip(queries, records):
            probs = checker.problems(qid, argv, rec)
            if probs:
                failures.append({"query": qid, "argv": argv, "problems": probs})
    summaries = [cold_summary(queries, recs) for _, recs in passes]
    result = {"attempted": len(queries) * len(passes),
              "failed": len(failures), "failures": failures,
              "passes": summaries}
    if trace:
        untraced, traced = summaries
        layers = traced_layers(passes[1][1])
        layers.values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        result.update(layers=layers, passes=[untraced], traced_passes=[traced])
    return result


# ---------------------------------------------------------------------------
# arith workload
# ---------------------------------------------------------------------------

def run_arith(seed, seconds, trace, golden):
    main = run_child(["arith", json.dumps(
        {"seed": seed, "seconds": seconds,
         "mode": "trace" if trace else "run"})])
    setups = [run_child(["arith", json.dumps(
        {"seed": seed, "seconds": 0, "mode": "setup"})])
        for _ in range(ARITH_SETUPS - 1)]
    if main is None:
        return {"attempted": 1, "failed": 1, "passes": [],
                "failures": [{"problems": ["arith process failed"]}]}
    problems = []
    if main["failed"]:
        problems.append(f"{main['failed']} results fail the marks or "
                        "repeat checks")
    digest_ok = seed != 0 or main["digest"] == golden["arith"]["sha256"]
    if not digest_ok:
        problems.append(f"results sha256 {main['digest']} != golden "
                        f"{golden['arith']['sha256']}")
    failed_setups = sum(1 for s in setups if s is None)
    if failed_setups:
        problems.append(f"{failed_setups} set-up processes failed")
    setup_runs = [main] + [s for s in setups if s]
    setup_samples = [{k: r[k] for k in ("setup_s", "raw_setup_s")}
                     for r in setup_runs]
    setup_s = median([r["setup_s"] for r in setup_runs])
    rss = max(r["rss_mb"] for r in setup_runs)
    passes = [dict(p, setup_s=setup_s, peak_rss_mb=rss)
              for p in main["passes"]]
    result = {"attempted": main["attempted"] + len(setups),
              "failed": main["failed"] + failed_setups + (not digest_ok),
              "failures": [{"problems": problems}] if problems else [],
              "setup_samples": setup_samples, "passes": passes}
    if trace:
        traced = main["traced_passes"]
        layers = Layers()
        layers.add(main["trace"])
        layers.add(main["traced_pass"])
        layers.values["trace.overhead_s"] = (
            median([p["wall_s"] for p in traced])
            - median([p["wall_s"] for p in passes]))
        result["layers"] = layers
        result["traced_passes"] = traced
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_commit():
    """The checked-out commit, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    return {"python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "git_commit": git_commit()}


def metrics_of(result, trace):
    if trace:
        values = result["layers"].values
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in PER_LAYER.items()}
    passes = result["passes"]
    return {name: {"value": median([p[name] for p in passes]), "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: burnside sources not found at {SRC}",
              file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    trace = bool(args.trace)
    started = time.perf_counter()
    if args.workload == "arith":
        result = run_arith(args.seed, args.seconds, trace, golden)
    else:
        checker = checks.Checker(SRC / "schemas", golden, args.seed)
        result = run_cold(workloads.cold_queries(args.workload, args.seed),
                          args.seconds, trace, checker)
    metrics = metrics_of(result, trace) if result["passes"] else {}
    if not metrics or not all(math.isfinite(m["value"])
                              for m in metrics.values()):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    fail_ratio = result["failed"] / result["attempted"]

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "run_s": time.perf_counter() - started,
        "samples": len(result["passes"]),
        "metrics": metrics, "fail_ratio": fail_ratio,
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": result["failures"], "passes": result["passes"],
    }
    for key in ("setup_samples", "traced_passes"):
        if key in result:
            record[key] = result[key]
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump(result["layers"].exports, fh)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{record['samples']} pass(es), trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:46s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':46s} {fail_ratio:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for f in result["failures"][:10]:
        print(f"  FAILED {f.get('query', args.workload)}: {f['problems']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
