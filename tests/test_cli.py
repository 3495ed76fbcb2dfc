import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

import burnside
import burnside.cli
from burnside.cli import main

SCHEMA_DIR = Path(burnside.cli.__file__).resolve().parent / "schemas"
# the directory that holds the ``burnside`` package under test
SRC_ROOT = Path(burnside.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    registry = Registry()
    for path in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        res = Resource.from_contents(doc, default_specification=DRAFT7)
        registry = registry.with_resource(uri=path.name, resource=res)
    Draft7Validator(schema, registry=registry).validate(payload)


def test_tom_json(capsys):
    code, out, err = run_cli(capsys, "tom", "C2", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["matrix"] == [[2, 0], [1, 1]]
    assert payload["labels"] == ["1#1", "2#1"]
    validate(payload, "tom.schema.json")


def test_group_info_json(capsys):
    code, out, _ = run_cli(capsys, "group", "info", "S3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6 and payload["abelian"] is False
    assert [c["size"] for c in payload["element_classes"]] == [1, 3, 2]
    validate(payload, "group_info.schema.json")


def test_subgroups_json(capsys):
    code, out, _ = run_cli(capsys, "subgroups", "D8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["subgroup_count"] == 10
    assert len(payload["classes"]) == 8
    validate(payload, "subgroups.schema.json")


def test_idempotents_json(capsys):
    code, out, _ = run_cli(capsys, "idempotents", "C2", "--ring", "Q", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["idempotents"]["1#1"] == {"1#1": "1/2"}
    assert payload["idempotents"]["2#1"] == {"1#1": "-1/2", "2#1": "1"}
    validate(payload, "idempotents.schema.json")


def test_gamma_invert_json(capsys):
    code, out, _ = run_cli(capsys, "gamma", "S3", "--ring", "Q", "--invert",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invertible"] is True
    assert payload["product_check"]["coeffs"] == {"6#1": "1"}
    assert payload["marks"]["1#1"] == "6"
    validate(payload, "gamma.schema.json")


def test_gamma_not_invertible_json(capsys):
    code, out, _ = run_cli(capsys, "gamma", "C2", "--ring", "Z", "--invert",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invertible"] is False
    assert payload["obstruction"]["stage"] == "non_unit_mark"
    validate(payload, "gamma.schema.json")


def test_mackey_check_json(capsys):
    code, out, _ = run_cli(capsys, "mackey-check", "prod(C2,C2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_verified"] is True
    validate(payload, "mackey_check.schema.json")


def test_separable_ring_json(capsys):
    code, out, _ = run_cli(capsys, "separable", "ring", "C2", "--ring", "Z",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["separable"] is False
    assert payload["obstruction"]["certificate"]["kind"] == "invariant_factor"
    validate(payload, "separable.schema.json")

    code, out, _ = run_cli(capsys, "separable", "ring", "C2", "--ring", "Z/3",
                           "--json")
    payload = json.loads(out)
    assert payload["separable"] is True
    assert "witness" in payload
    validate(payload, "separable.schema.json")


def test_separable_functor_json(capsys):
    code, out, _ = run_cli(capsys, "separable", "functor", "S3", "--ring", "Q",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["separable"] is True
    assert payload["claim"] == "functor-separable"
    validate(payload, "separable.schema.json")


def test_commutant_json(capsys):
    code, out, _ = run_cli(capsys, "commutant", "C2", "--ring", "Q", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert payload["matches_diagonal_span"] is True
    validate(payload, "commutant.schema.json")


@pytest.mark.parametrize("argv,digest", [
    (("commutant", "S3", "--ring", "Q"),
     "da6f87fcae37f7866cbef0c3e6157a268f76258a0271a36b8206a75ee88e32d8"),
    (("commutant", "prod(C2,C3)", "--ring", "Z/2"),
     "f1bb8d565881a6cb4a44d040642984856da37acb39c879f1139116a4fa73c45e"),
])
def test_commutant_json_bytes(capsys, argv, digest):
    # the same sha256 values as the benchmark's golden outputs
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("derivations", "S4", "--ring", "Q"),
     "41b18b22de651d2cbdc2381bd0e1b9afdf0f1e0e73dc08024931063f5f86d5d9"),
    (("commutant", "D8", "--ring", "Q"),
     "14946526404d3bf57dfc83d43c2c314383de5af3b29dc9233a407b2264d60b8e"),
    (("commutant", "D12", "--ring", "Q"),
     "f150f4afd58d8f25a069fc0df95f3b15872a5e73c65968df29cd3d34983ffb21"),
])
def test_rational_json_bytes(capsys, argv, digest):
    # pinned from the dense Gauss-Jordan that solved over Q before the
    # sparse elimination did
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("commutant", "prod(C2,prod(C2,C2))", "--ring", "Q"),
     "1400dc70ee08359f36b71f0a733c8fdf642f0fa1d74e212a313475f2d1b96ab0"),
    (("separable", "ring", "prod(S3,S3)", "--ring", "Z/2"),
     "e3e23efce09b8581e2b65834753e9e7285b32d6efb1ca2ecd294e42dacab4e02"),
])
def test_sparse_system_json_bytes(capsys, argv, digest):
    # pinned from the systems built as dense rows, before they were sparse
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_derivations_json(capsys):
    code, out, _ = run_cli(capsys, "derivations", "C2", "--ring", "Z/2",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["zero"] is False
    validate(payload, "derivations.schema.json")

    code, out, _ = run_cli(capsys, "derivations", "S3", "--ring", "Z", "--json")
    payload = json.loads(out)
    assert payload["zero"] is True and payload["basis"] == []
    validate(payload, "derivations.schema.json")


def test_error_codes(capsys):
    code, out, err = run_cli(capsys, "tom", "nope", "--json")
    assert code == 2
    assert err.startswith("E_PARSE:") and out == ""

    code, _, err = run_cli(capsys, "tom", "prod(S5,S3)")
    assert code == 2 and err.startswith("E_ORDER_BOUND:")

    code, _, err = run_cli(capsys, "idempotents", "C2", "--ring", "Z")
    assert code == 2 and err.startswith("E_RING:")

    code, _, err = run_cli(capsys, "separable", "ring", "C2", "--ring", "GF(9)")
    assert code == 2 and err.startswith("E_PARSE:")

    code, _, err = run_cli(capsys, "commutant", "D16", "--ring", "Q")
    assert code == 2 and err.startswith("E_RESOURCE:")

    # only ASCII digits are numbers: Unicode digits are parse errors, not
    # internal errors, and are never read as their ASCII counterparts
    for argv in (("subgroups", "S\u00b2"), ("subgroups", "perm:(1 \u00b2)"),
                 ("gamma", "S3", "--ring", "Z/\u00b3"), ("tom", "C\u0663"),
                 ("subgroups", "perm:(1 \u0662)"),
                 ("gamma", "S3", "--ring", "Z/\u0663")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("E_PARSE:"), argv


def test_max_order_flag_and_env(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "tom", "S3", "--max-order", "4")
    assert code == 2 and err.startswith("E_ORDER_BOUND:")
    monkeypatch.setenv("BURNSIDE_MAX_ORDER", "4")
    code, _, err = run_cli(capsys, "tom", "S3")
    assert code == 2 and err.startswith("E_ORDER_BOUND:")
    # explicit flag wins over the environment
    code, _, _ = run_cli(capsys, "tom", "S3", "--max-order", "10")
    assert code == 0
    for bad in ("\u00b2", "\u0663"):
        monkeypatch.setenv("BURNSIDE_MAX_ORDER", bad)
        code, _, err = run_cli(capsys, "tom", "S3")
        assert code == 2 and err.startswith("E_PARSE:"), bad
    # the flag goes through the same ASCII-digit check as the variable
    monkeypatch.delenv("BURNSIDE_MAX_ORDER")
    for bad in ("\u0663", "\u00b2", "-1"):
        code, out, err = run_cli(capsys, "tom", "S3", "--max-order", bad)
        assert code == 2 and out == "", bad
        assert err.startswith("E_PARSE:") and err.count("\n") == 1, (bad, err)


def test_global_flags_accepted_before_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--json", "tom", "C2")
    assert code == 0
    assert json.loads(out)["command"] == "tom"


def test_human_output_mentions_values(capsys):
    code, out, _ = run_cli(capsys, "separable", "ring", "C3", "--ring", "Z/5")
    assert code == 0
    assert "separable" in out


def _run_cli(args, cwd, hashseed):
    """Run ``python -m burnside`` in a fresh interpreter.

    The child imports the same ``burnside`` source tree as this process,
    whatever the working directory, and hashes with ``hashseed``.
    """
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "burnside", *args],
                          capture_output=True, cwd=cwd, env=env)


def test_byte_identical_json_across_processes(tmp_path):
    commands = [
        ["subgroups", "S3", "--json"],
        ["commutant", "C3", "--ring", "Q", "--json"],
        # human-readable output is deterministic too
        ["idempotents", "D8", "--ring", "Q"],
    ]
    for args in commands:
        a, b = (_run_cli(args, tmp_path, seed) for seed in ("1", "2"))
        assert a.returncode == b.returncode == 0, (args, a.stderr, b.stderr)
        assert a.stdout, args
        assert a.stdout == b.stdout, args
