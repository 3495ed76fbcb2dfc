"""Correctness checks on CLI documents: schema, invariants, golden digests.

Digests are of the exact ``--json`` stdout and are compared for seed 0
only, because other seeds renumber the group elements.  Invariants do
not depend on the numbering, so they are compared for every seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from jsonschema import Draft7Validator
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

SCHEMA_OF = {
    "subgroups": "subgroups.schema.json",
    "tom": "tom.schema.json",
    "separable": "separable.schema.json",
    "derivations": "derivations.schema.json",
    "commutant": "commutant.schema.json",
    "mackey-check": "mackey_check.schema.json",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(obj) -> str:
    return sha256(json.dumps(obj, separators=(",", ":")))


def invariants(command: str, doc: dict) -> dict:
    """Facts about a document that survive renumbering the group elements."""
    if command == "subgroups":
        profile = sorted([c["order"], c["class_size"], c["normalizer_order"],
                          c["moebius_from_trivial"]] for c in doc["classes"])
        return {"subgroup_count": doc["subgroup_count"],
                "classes": len(doc["classes"]),
                "profile_sha256": _digest(profile)}
    if command == "tom":
        # rows and columns are permuted together by a renumbering
        rows = sorted(sorted(row) for row in doc["matrix"])
        return {"classes": len(doc["labels"]), "marks_sha256": _digest(rows)}
    if command == "separable":
        return {"claim": doc["claim"], "separable": doc["separable"]}
    if command == "derivations":
        return {"zero": doc["zero"]}
    if command == "commutant":
        return {"matches_diagonal_span": doc["matches_diagonal_span"],
                "dimension": doc.get("dimension")}
    if command == "mackey-check":
        return {"all_verified": doc["all_verified"],
                "basis": len(doc["basis"])}
    raise ValueError(f"no invariants for {command}")


class Checker:
    """Validates query records against the schemas and the golden file."""

    def __init__(self, schema_dir: Path, golden: dict, seed: int):
        self.golden = golden
        self.seed = seed
        self.schemas = {}
        registry = Registry()
        for path in schema_dir.glob("*.schema.json"):
            doc = json.loads(path.read_text())
            self.schemas[path.name] = doc
            registry = registry.with_resource(
                uri=path.name,
                resource=Resource.from_contents(doc, default_specification=DRAFT7))
        self.registry = registry
        self._seen = {}

    def problems(self, qid: str, argv, record) -> list:
        """Why a query record is wrong; empty when it is right."""
        if record is None:
            return ["process failed or printed no record"]
        out = []
        if record["rc"] != 0:
            out.append(f"exit code {record['rc']}")
        if record["stderr"]:
            out.append(f"stderr: {record['stderr'][:200]!r}")
        key = (qid, sha256(record["stdout"]))
        if key not in self._seen:
            self._seen[key] = self._document_problems(qid, argv[0], key[1],
                                                      record["stdout"])
        return out + self._seen[key]

    def _document_problems(self, qid, command, digest, stdout):
        want = self.golden["queries"].get(qid)
        if want is None:
            return [f"no golden entry for {qid!r}"]
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        validator = Draft7Validator(self.schemas[SCHEMA_OF[command]],
                                    registry=self.registry)
        errors = [e.message[:200] for e in validator.iter_errors(doc)]
        if errors:
            return [f"schema: {m}" for m in errors[:3]]
        out = []
        got = invariants(command, doc)
        if got != want["invariants"]:
            out.append(f"invariants {got} != golden {want['invariants']}")
        if self.seed == 0 and digest != want["sha256"]:
            out.append(f"stdout sha256 {digest} != golden {want['sha256']}")
        return out
