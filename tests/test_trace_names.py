"""The package still has every function the benchmark's tracer wraps.

``perfbench/spans.py`` wraps the functions its ``LAYERS`` table names,
looked up by name in ``burnside.<module>``, so a function deleted or
renamed in the package breaks every traced benchmark run.  The
benchmark's own tests are not in this suite; these are.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import burnside.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _bindings():
    """(module, name) -> value for every function bound in a burnside module."""
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if name == "burnside" or name.startswith("burnside.")
            for attr, val in vars(mod).items() if callable(val)}


def test_every_traced_name_resolves():
    missing = [f"{mod}.{fname}" for mod, funcs in spans.LAYERS.items()
               for fname in funcs
               if not callable(getattr(importlib.import_module(f"burnside.{mod}"),
                                       fname, None))]
    assert missing == []


def test_tracer_counts_a_solve_and_restores_every_binding(capsys):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert burnside.rings.solve_linear is not before["burnside.rings", "solve_linear"]
        code = burnside.cli.main(["separable", "ring", "S4", "--ring", "Z", "--json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["separable"] is False
    assert tracer.counts["rings.solve_linear.calls"] >= 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, val in before.items() if after[key] is not val] == []
