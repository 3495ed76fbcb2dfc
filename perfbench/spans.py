"""Outside-in tracing of the burnside package for the traced run.

``Tracer.install`` wraps each public function listed in ``LAYERS`` and
rebinds the wrapper in every ``burnside.*`` namespace that holds the
original, so calls made through any import of the function are seen
(``subgroup_lattice``, for one, is bound in six modules, and
``gsets.decompose`` imports it at call time from ``groups``).  The
wrappers call the original unchanged.

A span records (name id, start, end, parent span index).  Spans stay in
memory until ``export``.  Counts are taken only from arguments and
return values.  The time a wrapper spends on a costly count (one that
walks a whole matrix) is recorded as a span named ``trace`` under the
caller, so it is not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# module -> public functions traced; the span name is "<module>.<function>"
LAYERS = {
    "groups": ("build_group", "direct_product", "subgroup_lattice",
               "normalizer", "subgroups_conjugate"),
    "gsets": ("transitive", "fixed_points", "product", "decompose", "induce"),
    "algebra": ("table_of_marks", "structure_constants", "multiply", "invert",
                "idempotent_system", "marks_vector"),
    "bisets": ("gamma", "diagonal_induce", "diagonal_restrict"),
    "rings": ("solve_linear",),
    "separability": ("casimir_linear_system", "leibniz_system",
                     "verify_casimir", "tensor_act_left", "tensor_act_right",
                     "casimir_from_idempotents", "commutant_basis"),
    "cli": ("main",),
}

# both tensor actions report as one layer
SPAN_ALIASES = {
    "separability.tensor_act_left": "separability.tensor_act",
    "separability.tensor_act_right": "separability.tensor_act",
}

BOOKKEEPING = "trace"


def _lattice_count(tr, args, kwargs, res):
    tr.counts["groups.subgroup_lattice.calls"] += 1
    g = args[0]
    if g not in tr.seen_lattices:
        tr.seen_lattices.add(g)
        tr.counts["groups.subgroup_lattice.builds"] += 1
        tr.counts["groups.subgroups_found"] += len(res.subgroups)


def _sc_count(tr, args, kwargs, res):
    tr.counts["algebra.structure_constants.calls"] += 1
    g, i, j = args[:3]
    key = (g, min(i, j), max(i, j))
    if key not in tr.seen_pairs:
        tr.seen_pairs.add(key)
        tr.counts["algebra.structure_constants.builds"] += 1


def _calls(name):
    def count(tr, args, kwargs, res):
        tr.counts[name] += 1
    return count


def _points(name):
    def count(tr, args, kwargs, res):
        tr.counts[name] += res.size
    return count


def _solve_count(tr, args, kwargs, res):
    a = args[0]
    b = args[1] if len(args) > 1 else kwargs["b"]
    c = tr.counts
    c["rings.solve_linear.calls"] += 1
    c["rings.solve_linear.rows_in"] += a.rows
    c["rings.solve_linear.cols"] += a.cols
    distinct = {(row, bb) for row, bb in zip(a.entries, b)
                if bb or any(row)}
    c["rings.solve_linear.rows_distinct"] += len(distinct)
    kernel = getattr(res, "kernel", None)
    if kernel is not None:
        c["rings.solve_linear.kernel_size"] += len(kernel)
        entries = [res.particular] + list(kernel)
    else:
        entries = [res.certificate]
    c["rings.solve_linear.max_bits"] = max(c["rings.solve_linear.max_bits"],
                                           _max_bits(entries))


def _max_bits(obj) -> int:
    """Largest bit length of an integer or fraction part inside obj."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, str):
        try:
            return _max_bits(Fraction(obj))
        except (ValueError, ZeroDivisionError):
            return 0
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(x) for x in obj), default=0)
    return 0


def _rows(name, matrix_of):
    def count(tr, args, kwargs, res):
        tr.counts[name] += matrix_of(res).rows
    return count


COUNTERS = {
    "groups.subgroup_lattice": _lattice_count,
    "groups.subgroups_conjugate": _calls("groups.subgroups_conjugate.calls"),
    "gsets.fixed_points": _calls("gsets.fixed_points.calls"),
    "gsets.product": _points("gsets.product.points"),
    "gsets.induce": _points("gsets.induce.points"),
    "algebra.structure_constants": _sc_count,
    "algebra.multiply": _calls("algebra.multiply.calls"),
    "algebra.invert": _calls("algebra.invert.calls"),
    "rings.solve_linear": _solve_count,
    "separability.casimir_linear_system": _rows(
        "separability.casimir_linear_system.rows", lambda res: res[0]),
    "separability.leibniz_system": _rows(
        "separability.leibniz_system.rows", lambda res: res),
}

# counters that walk a whole argument or result; the time they take is
# recorded as a "trace" span so the caller's self time excludes it
COSTLY_COUNTERS = {"rings.solve_linear"}


class Tracer:
    """Span recorder whose wrappers can be installed and removed."""

    def __init__(self):
        self.names = [BOOKKEEPING]
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.seen_lattices = set()
        self.seen_pairs = set()
        self._bindings = []

    def install(self):
        """Rebind every listed function in every burnside module holding it."""
        if self._bindings:
            return
        modules = [m for name, m in list(sys.modules.items())
                   if name == "burnside" or name.startswith("burnside.")]
        for mod_name, funcs in LAYERS.items():
            home = importlib.import_module(f"burnside.{mod_name}")
            for fname in funcs:
                orig = getattr(home, fname)
                span = f"{mod_name}.{fname}"
                wrapper = self._wrap(orig, SPAN_ALIASES.get(span, span),
                                     COUNTERS.get(span))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._bindings.append((mod, attr, orig))

    def uninstall(self):
        """Restore the original functions."""
        for mod, attr, orig in reversed(self._bindings):
            setattr(mod, attr, orig)
        self._bindings = []

    def reset(self):
        """Drop recorded spans and counts; keep the set of seen builds."""
        self.spans = []
        self.counts = defaultdict(int)

    def _wrap(self, fn, name, count):
        self.names.append(name)
        nid = len(self.names) - 1
        costly = name in COSTLY_COUNTERS

        def traced(*args, **kwargs):
            spans = self.spans
            stack = self.stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if count is not None:
                count(self, args, kwargs, res)
                if costly:
                    spans.append((0, t1, perf_counter(), parent))
            return res

        return functools.wraps(fn)(traced)

    def export(self):
        """Spans and counts as plain data."""
        return {"names": list(self.names),
                "spans": [list(s) for s in self.spans],
                "counts": dict(self.counts)}


def self_times(export) -> dict:
    """Summed self time per span name: duration minus child durations."""
    names = export["names"]
    spans = export["spans"]
    child = [0.0] * len(spans)
    for nid, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for i, (nid, t0, t1, parent) in enumerate(spans):
        if names[nid] != BOOKKEEPING:
            out[names[nid]] += (t1 - t0) - child[i]
    return dict(out)
