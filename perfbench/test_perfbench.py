"""Tests of the benchmark itself (not of burnside).

    python3 -m pytest perfbench/test_perfbench.py -q

They start child processes like the benchmark does; the per-layer test
makes one traced pass of every workload and takes about a minute.
"""

import copy
import json

import pytest

import checks
import run
import workloads

SMALL_QUERIES = [
    ["subgroups", "S3"],
    ["tom", "prod(C2,C2)"],
    ["separable", "ring", "S3", "--ring", "Z"],
    ["separable", "ring", "S3", "--ring", "Q"],
    ["separable", "functor", "S3", "--ring", "Z/5"],
    ["derivations", "C2", "--ring", "Z/2"],
    ["commutant", "C2", "--ring", "Q"],
    ["mackey-check", "C3"],
]


def golden():
    return json.loads((run.HERE / "golden.json").read_text())


@pytest.mark.parametrize("argv", SMALL_QUERIES, ids=" ".join)
def test_traced_stdout_is_byte_identical(argv):
    plain = run.run_child(["query", "0", json.dumps(argv)])
    traced = run.run_child(["query", "1", json.dumps(argv)])
    assert plain["rc"] == traced["rc"] == 0
    assert plain["stdout"] == traced["stdout"]
    assert traced["trace"]["spans"]


def test_traced_arith_results_are_identical():
    params = {"seed": 5, "seconds": 0}
    plain = run.run_child(["arith", json.dumps(dict(params, mode="run"))])
    traced = run.run_child(["arith", json.dumps(dict(params, mode="trace"))])
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]


def test_every_per_layer_metric_fires():
    fired = set()
    for workload in workloads.COLD_WORKLOADS:
        records = run.cold_pass(workloads.cold_queries(workload, 0), True)
        layers = run.traced_layers(records)
        fired |= {k for k, v in layers.values.items() if v}
    arith = run.run_child(["arith", json.dumps(
        {"seed": 0, "seconds": 0, "mode": "trace"})])
    layers = run.Layers()
    layers.add(arith["trace"])
    layers.add(arith["traced_pass"])
    fired |= {k for k, v in layers.values.items() if v}
    missing = set(run.PER_LAYER) - fired - {"trace.overhead_s"}
    assert not missing


def test_corrupted_golden_digest_fails():
    qid, argv = next(q for q in workloads.cold_queries("verdicts", 0)
                     if q[0] == "mackey-check C2xC2")
    good = golden()
    bad = copy.deepcopy(good)
    bad["queries"][qid]["sha256"] = "0" * 64
    for table, failed in ((good, 0), (bad, 1)):
        checker = checks.Checker(run.SRC / "schemas", table, seed=0)
        result = run.run_cold([(qid, argv)], 0, False, checker)
        assert (result["attempted"], result["failed"]) == (1, failed)


def test_corrupted_arith_digest_fails():
    bad = golden()
    bad["arith"]["sha256"] = "0" * 64
    result = run.run_arith(0, 0, False, bad)
    assert result["failed"] / result["attempted"] > 0


def test_seeded_specs():
    for key, (canonical, _) in workloads.GROUPS.items():
        assert workloads.group_spec(key, 0) == canonical
        spec = workloads.group_spec(key, 7)
        assert spec.startswith("perm:")
        assert spec == workloads.group_spec(key, 7)
    assert workloads.cold_queries("lattice", 3) != \
        workloads.cold_queries("lattice", 4)
    counts = {k: 5 for k in workloads.ARITH_GROUPS}
    assert workloads.arith_calls(3, counts) == workloads.arith_calls(3, counts)
    assert workloads.arith_calls(3, counts) != workloads.arith_calls(4, counts)


def test_relabelled_groups_keep_their_invariants():
    checker = checks.Checker(run.SRC / "schemas", golden(), seed=11)
    queries = [q for q in workloads.cold_queries("lattice", 11)
               if q[0] in ("subgroups D16", "tom S3xS3")]
    result = run.run_cold(queries, 0, False, checker)
    assert result["failed"] == 0
