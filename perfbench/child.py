"""One benchmark process: a cold CLI query or a warm arith session.

Usage (started by run.py, one process at a time):

    python3 child.py query <spawn time> <trace 0|1> <argv as JSON>
    python3 child.py arith <spawn time> <params as JSON>

<spawn time> is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is system-wide, so set-up time
includes interpreter start.  The host's speed is sampled for the whole
life of the process (hostspeed.py) and every time is reported both raw
and in reference seconds.  The result is one JSON object on stdout.
"""

import sys
import time
from pathlib import Path

SPAWN = float(sys.argv[2])
import hostspeed  # noqa: E402

SPEED = hostspeed.Speedometer()
SPEED.start()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import burnside  # noqa: E402
import burnside.cli  # noqa: E402

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_query(trace: bool, argv):
    """Time ``cli.main(argv + ["--json"])`` with stdout and stderr captured."""
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = burnside.cli.main(list(argv) + ["--json"])
        t1 = time.perf_counter()
    if tracer:
        tracer.uninstall()
    raw_setup, setup = SPEED.reference(SPAWN, IMPORTED)
    raw_op, op = SPEED.reference(t0, t1)
    record = {"setup_s": setup, "op_s": op,
              "raw_setup_s": raw_setup, "raw_op_s": raw_op, "rc": rc,
              "stdout": out.getvalue(), "stderr": err.getvalue(),
              "rss_mb": max_rss_mb()}
    if tracer:
        record["trace"] = tracer.export()
    return record


# ---------------------------------------------------------------------------
# arith: a warm library session
# ---------------------------------------------------------------------------

def arith_setup(seed):
    """Build each group's lattice, table of marks and structure constants."""
    groups = {}
    for key in workloads.ARITH_GROUPS:
        g = burnside.build_group(workloads.group_spec(key, seed))
        n = burnside.subgroup_lattice(g).class_count
        burnside.table_of_marks(g)
        for i in range(n):
            for j in range(i, n):
                burnside.algebra.structure_constants(g, i, j)
        groups[key] = g
    return groups


def _coeff(ring, x):
    return Fraction(*x) if isinstance(x, list) else ring.from_int(x)


def _element(g, ring, coeffs):
    return burnside.BurnsideElement(
        g, ring, {i: _coeff(ring, c) for i, c in enumerate(coeffs)})


def arith_inputs(groups, seed):
    """Turn the seeded call stream into (op, argument) pairs."""
    counts = {k: burnside.subgroup_lattice(g).class_count
              for k, g in groups.items()}
    calls = []
    for key, op, ring_spec, data in workloads.arith_calls(seed, counts):
        g, ring = groups[key], burnside.ring_from_spec(ring_spec)
        if op == "multiply":
            arg = tuple(_element(g, ring, c) for c in data)
        elif op == "marks_vector":
            arg = (_element(g, ring, data[0]),)
        elif op == "invert_gamma":
            arg = (burnside.gamma(g, ring),)
        elif op == "invert_unit":
            idems = burnside.idempotent_system(g, ring)
            unit = burnside.BurnsideElement.zero(g, ring)
            for e, c in zip(idems, data[0]):
                unit = unit.add(e.scale(_coeff(ring, c)))
            arg = (unit,)
        else:
            arg = (g, ring)
        calls.append((op, arg))
    return calls


def call(op, arg):
    """One library call, looked up at call time so a tracer sees it."""
    if op == "multiply":
        return burnside.multiply(*arg)
    if op.startswith("invert"):
        return burnside.invert(*arg)
    if op == "marks_vector":
        return burnside.marks_vector(*arg)
    return burnside.idempotent_system(*arg)


class Stream:
    """The call stream of one arith session and the checks on its results.

    Only the first pass's results are kept; each later pass is compared
    with them as soon as it ends, outside the timed calls, so memory does
    not grow with the number of passes.
    """

    def __init__(self, calls):
        self.calls = calls
        self.first = None
        self.passes = 0
        self.repeat_mismatches = 0

    def run(self, seconds, before_pass=None):
        """Passes until the next would overrun ``seconds``; pass summaries."""
        summaries = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            pass_start = time.perf_counter()
            if before_pass is not None:
                before_pass(len(summaries))
            windows, results = [], []
            for op, arg in self.calls:
                t0 = time.perf_counter()
                res = call(op, arg)
                windows.append((t0, time.perf_counter()))
                results.append(res)
            raw, ref = zip(*(SPEED.reference(*w) for w in windows))
            summaries.append({"wall_s": sum(ref),
                              "op_p50_s": statistics.median(ref),
                              "raw_wall_s": sum(raw),
                              "raw_op_p50_s": statistics.median(raw)})
            self.passes += 1
            if self.first is None:
                self.first = results
            else:
                self.repeat_mismatches += sum(
                    1 for a, b in zip(self.first, results) if a != b)
            now = time.perf_counter()
            longest = max(longest, now - pass_start)
            if now - start + longest > seconds:
                return summaries

    def check(self):
        """(failed calls, sha256 of the first pass's results)."""
        failed = self.repeat_mismatches + sum(
            1 for (op, arg), res in zip(self.calls, self.first)
            if not _marks_ok(op, arg, res))
        digest = hashlib.sha256(json.dumps(_jsonable(self.first),
                                           sort_keys=True).encode()).hexdigest()
        return failed, digest


def _jsonable(res):
    if isinstance(res, list):
        return [_jsonable(x) for x in res]
    if hasattr(res, "to_json_dict"):
        return res.to_json_dict()
    return str(res)


def _marks_ok(op, arg, res):
    """Check one result through the marks homomorphism."""
    if op == "marks_vector":
        a, = arg
        ring = a.ring
        tom = burnside.table_of_marks(a.group).matrix
        want = [ring.zero] * len(tom)
        for k, v in a.coeffs.items():
            for j, m in enumerate(tom[k]):
                want[j] = ring.add(want[j], ring.mul(v, ring.from_int(m)))
        return [ring.to_str(x) for x in want] == [ring.to_str(x) for x in res]
    if op == "idempotent_system":
        g, ring = arg
        if len(res) != burnside.subgroup_lattice(g).class_count:
            return False
        return all(burnside.marks_vector(e) ==
                   [ring.one if i == j else ring.zero for j in range(len(res))]
                   for i, e in enumerate(res))
    if not isinstance(res, burnside.BurnsideElement):
        return False
    ring = res.ring
    if op == "multiply":
        a, b = arg
        want = [ring.mul(x, y) for x, y in
                zip(burnside.marks_vector(a), burnside.marks_vector(b))]
        return burnside.marks_vector(res) == want
    a, = arg
    return all(ring.mul(x, y) == ring.one for x, y in
               zip(burnside.marks_vector(a), burnside.marks_vector(res)))


def run_arith(params):
    """Set-up, then timed passes; with trace, half untraced and half traced."""
    seed, seconds, mode = params["seed"], params["seconds"], params["mode"]
    tracer = spans.Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    groups = arith_setup(seed)
    raw_setup, setup = SPEED.reference(SPAWN, time.perf_counter())
    record = {"setup_s": setup, "raw_setup_s": raw_setup}
    if mode == "setup":
        record["rss_mb"] = max_rss_mb()
        return record
    if tracer:
        tracer.uninstall()
    stream = Stream(arith_inputs(groups, seed))
    record["passes"] = stream.run(seconds / 2 if tracer else seconds)
    if tracer:
        # spans of the set-up and of the first traced pass are kept;
        # later traced passes only give the traced pass time
        record["trace"] = tracer.export()

        def before_pass(i):
            if i == 1:
                record["traced_pass"] = tracer.export()
            tracer.reset()

        tracer.install()
        record["traced_passes"] = stream.run(seconds / 2, before_pass)
        tracer.uninstall()
        record.setdefault("traced_pass", tracer.export())
    record["rss_mb"] = max_rss_mb()
    record["attempted"] = len(stream.calls) * stream.passes
    record["failed"], record["digest"] = stream.check()
    return record


def main():
    kind = sys.argv[1]
    if kind == "query":
        record = run_query(sys.argv[3] == "1", json.loads(sys.argv[4]))
    else:
        record = run_arith(json.loads(sys.argv[3]))
    SPEED.stop()
    sys.stdout.write(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
