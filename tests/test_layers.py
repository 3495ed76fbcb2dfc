"""The engine does not depend on the concrete G-set and biset layer.

The engine modules parse, compute and report every command.  ``gsets``
and ``bisets`` sit on top of them as the documented biset calculus and
the tests' oracle: they import the engine, never the reverse.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import burnside
import burnside.cli

PACKAGE_DIR = Path(burnside.__file__).resolve().parent
ENGINE = ("errors", "groups", "rings", "algebra", "separability", "cli", "__main__")
CONCRETE = {"gsets", "bisets"}


def _imported_names(tree):
    """Every dotted name an import statement anywhere in tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_engine_modules_import_no_concrete_layer():
    for name in ENGINE:
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text(), name)
        found = [dotted for dotted in _imported_names(tree)
                 if CONCRETE & set(dotted.split("."))]
        assert found == [], name


# one argv per command, each small enough for a quick run
_ARGVS = [
    ["group", "info", "S3"], ["subgroups", "S3"], ["tom", "S3"],
    ["idempotents", "S3", "--ring", "Q"], ["gamma", "S3", "--ring", "Q", "--invert"],
    ["mackey-check", "S3"], ["separable", "ring", "S3", "--ring", "Z"],
    ["separable", "functor", "S3", "--ring", "Z/5"], ["commutant", "C3", "--ring", "Q"],
    ["derivations", "C2", "--ring", "Z/2"],
]

# a package module whose __init__ never runs, so only what cli imports loads
_BARE_PACKAGE = """
import contextlib, io, json, sys, types
pkg = types.ModuleType("burnside")
pkg.__path__ = [sys.argv[1]]
sys.modules["burnside"] = pkg
import burnside.cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(burnside.cli.main(argv + ["--json"]))
print(json.dumps({"codes": codes, "loaded": sorted(sys.modules)}))
"""


def test_every_command_runs_without_the_concrete_layer():
    assert {" ".join(a[:2]) if a[0] == "group" else a[0] for a in _ARGVS} \
        == set(burnside.cli.COMMANDS)
    proc = subprocess.run(
        [sys.executable, "-c", _BARE_PACKAGE, str(PACKAGE_DIR), json.dumps(_ARGVS)],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(_ARGVS)
    assert "burnside.cli" in result["loaded"]
    assert not {f"burnside.{m}" for m in CONCRETE} & set(result["loaded"])
