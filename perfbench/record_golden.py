"""Record golden.json from the program as it is now.

    python3 perfbench/record_golden.py

Runs every seed-0 query once and stores the sha256 of its ``--json``
stdout with its seed-independent invariants, plus the sha256 of one seed-0
arith pass.  Run it only at a commit whose outputs are known to be right;
a later change to the outputs must leave this file alone so that the
benchmark reports it as failures.
"""

import json
import sys

import checks
import run
import workloads


def main() -> int:
    queries = {}
    for workload in workloads.COLD_WORKLOADS:
        for qid, argv in workloads.cold_queries(workload, 0):
            rec = run.run_child(["query", "0", json.dumps(argv)])
            if rec is None or rec["rc"] != 0 or rec["stderr"]:
                print(f"query failed: {qid}", file=sys.stderr)
                return 1
            queries[qid] = {
                "argv": argv,
                "sha256": checks.sha256(rec["stdout"]),
                "invariants": checks.invariants(argv[0],
                                                json.loads(rec["stdout"])),
            }
    arith = run.run_child(["arith", json.dumps(
        {"seed": 0, "seconds": 0, "mode": "run"})])
    if arith is None or arith["failed"]:
        print("arith pass failed", file=sys.stderr)
        return 1
    golden = {"queries": queries, "arith": {"sha256": arith["digest"]}}
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
