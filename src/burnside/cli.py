"""Command-line front end with deterministic text and JSON output.

This module is the top of the engine: it parses and formats, and the
mathematics it reports is the engine's (the conjugation class and the
Mackey check come from ``algebra``).  It imports nothing from the
concrete G-set and biset layer.

Mathematical verdicts ("not separable", "nonzero derivations") are data,
not failures: they exit 0.  Exit code 2 is reserved for errors, reported
as a single machine-parsable line ``E_<CODE>: message`` on stderr.

The dihedral spec D<n> names the group of ORDER n, so D8 is the symmetry
group of the square.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import errors
from .algebra import (
    NotInvertible,
    gamma,
    idempotent_system,
    invert,
    mackey_check,
    marks_vector,
    multiply,
    table_of_marks,
)
from .groups import build_group, element_classes, subgroup_lattice
from .rings import ring_from_spec
from .separability import (
    commutant_basis,
    derivation_space,
    functor_separability,
    ring_separability,
)

_encode = json.JSONEncoder().encode


class _SparseRows(tuple):
    """A square integer matrix given by its nonzeros: row i is a tuple of
    (j, value) pairs in increasing j, as in ``SubgroupLattice.marks_rows``.
    ``_indented`` writes it as the dense list of rows."""

    __slots__ = ()


def _indented(obj, pad="\n"):
    """``json.dumps(obj, separators=(",", ": "), indent=2)``, byte for byte.

    json encodes in pure Python whenever ``indent`` is set; here only the
    layout is written by hand and every leaf goes to the C encoder.  A
    non-str key is coerced as json does it: encoded, then quoted.  A
    ``_SparseRows`` matrix is written as its dense list of rows, each
    from its nonzeros, with every run of zeros one repeated string.
    """
    inner = pad + "  "
    if type(obj) is _SparseRows:
        sep = "," + inner + "  "
        zero, n, rows = "0" + sep, len(obj), []
        for row in obj:
            k, parts = 0, []
            for j, m in row:
                parts.append(f"{zero * (j - k)}{m}{sep}")
                k = j + 1
            parts.append(zero * (n - k))
            rows.append("[" + inner + "  " + "".join(parts)[:-len(sep)]
                        + inner + "]")
        return "[" + inner + ("," + inner).join(rows) + pad + "]"
    if isinstance(obj, dict) and obj:
        items = [_encode(k if isinstance(k, str) else _encode(k)) + ": "
                 + _indented(v, inner) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)) and obj:
        if {*map(type, obj)} == {int}:  # at C speed; bools are not ints here
            items = map(str, obj)
        else:
            items = [_indented(v, inner) for v in obj]
    else:
        return str(obj) if type(obj) is int else _encode(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _write(text):
    """Print text to stdout, flushed, so a failed write raises here.

    A failed write closes stdout (the close fails as the write did, but
    the stream is closed), so the interpreter's last flush does not try
    again and print "Exception ignored" on stderr.  A reader that closed
    the pipe is not an error of ours: BrokenPipeError goes up to ``main``.
    Any other failure, such as a full disk, is E_IO.
    """
    try:
        print(text, flush=True)
    except OSError as exc:
        try:
            sys.stdout.close()
        except OSError:
            pass
        if isinstance(exc, BrokenPipeError):
            raise
        raise errors.OutputError(f"cannot write to stdout: {exc}") from None


def _max_order(args) -> int | None:
    """The --max-order flag, else BURNSIDE_MAX_ORDER, as a non-negative int."""
    for name, text in (("--max-order", args.max_order),
                       ("BURNSIDE_MAX_ORDER", os.environ.get("BURNSIDE_MAX_ORDER"))):
        if text is not None:
            if not (text.isascii() and text.isdigit()):
                raise errors.ParseError(f"{name} must be an integer: {text!r}")
            return int(text)
    return None


# Each handler takes the parsed group, the parsed ring (None for commands
# without --ring) and the namespace, and returns (JSON payload, text lines).
# The lines may be a generator: only text output consumes them, so a large
# table is never formatted for --json.

def cmd_group_info(g, ring, args):
    classes = element_classes(g)
    payload = {
        "command": "group-info",
        "group": g.label,
        "order": g.order,
        "abelian": g.is_abelian,
        "element_classes": [
            {"representative": rep, "size": len(cls), "centralizer_order": cz.order}
            for rep, cls, cz in classes
        ],
    }
    lines = [
        f"group {g.label}: order {g.order}, "
        f"{'abelian' if g.is_abelian else 'non-abelian'}",
        f"element conjugacy classes: {len(classes)}",
    ]
    for rep, cls, cz in classes:
        lines.append(f"  rep {rep}: size {len(cls)}, centralizer order {cz.order}")
    return payload, lines


def cmd_subgroups(g, ring, args):
    lat = subgroup_lattice(g)
    entries = []
    for ci, cls in enumerate(lat.classes):
        rep = lat.class_rep(ci)
        entries.append({
            "label": cls.label,
            "order": rep.order,
            "class_size": len(cls.member_indices),
            "representative": list(rep.members),
            "normalizer_order": g.order // len(cls.member_indices),
            # subgroups are sorted by order, so subgroup 0 is the trivial one
            "moebius_from_trivial": lat.moebius_by_index(0, cls.rep_index),
        })
    payload = {
        "command": "subgroups",
        "group": g.label,
        "subgroup_count": len(lat.subgroups),
        "classes": entries,
    }

    def lines():
        yield (f"group {g.label}: {len(lat.subgroups)} subgroups, "
               f"{lat.class_count} conjugacy classes")
        for e in entries:
            yield (f"  {e['label']}: order {e['order']}, class size "
                   f"{e['class_size']}, |N_G(H)| {e['normalizer_order']}, "
                   f"mu(1,H) {e['moebius_from_trivial']}")
    return payload, lines()


def cmd_tom(g, ring, args):
    lat = subgroup_lattice(g)
    payload = {
        "command": "tom",
        "group": g.label,
        "labels": lat.labels(),
        "matrix": _SparseRows(lat.marks_rows),
    }

    def lines():  # the only reader of the dense table
        tom = table_of_marks(g)
        width = max(len(str(x)) for row in tom.matrix for x in row)
        yield f"table of marks of {g.label} (rows [G/H], columns K)"
        yield "        " + " ".join(f"{l:>{width + 2}}" for l in tom.labels)
        for label, row in zip(tom.labels, tom.matrix):
            yield f"{label:>7} " + " ".join(f"{x:>{width + 2}}" for x in row)
    return payload, lines()


def cmd_idempotents(g, ring, args):
    lat = subgroup_lattice(g)
    idems = idempotent_system(g, ring)
    payload = {
        "command": "idempotents",
        "group": g.label,
        "ring": ring.spec,
        "idempotents": {lat.classes[i].label: e.to_json_dict()["coeffs"]
                        for i, e in enumerate(idems)},
    }
    lines = [f"primitive idempotents of {g.label} over {ring.spec}"]
    for i, e in enumerate(idems):
        lines.append(f"  e[{lat.classes[i].label}] = {e.render()}")
    return payload, lines


def cmd_gamma(g, ring, args):
    lat = subgroup_lattice(g)
    gam = gamma(g, ring)
    marks = marks_vector(gam)
    payload = {
        "command": "gamma",
        "group": g.label,
        "ring": ring.spec,
        "gamma": gam.to_json_dict(),
        "marks": {lat.classes[j].label: ring.to_str(marks[j])
                  for j in range(lat.class_count)},
    }
    lines = [f"conjugation class of {g.label} over {ring.spec}",
             f"  gamma = {gam.render()}"]
    if args.invert:
        res = invert(gam)
        if isinstance(res, NotInvertible):
            payload["invertible"] = False
            payload["obstruction"] = res.to_json_dict()
            lines.append(f"  not invertible: {res.stage} ({res.detail})")
        else:
            check = multiply(gam, res)
            payload["invertible"] = True
            payload["inverse"] = res.to_json_dict()
            payload["product_check"] = check.to_json_dict()
            lines.append(f"  inverse = {res.render()}")
            lines.append(f"  gamma * inverse = {check.render()}")
    return payload, lines


def cmd_mackey_check(g, ring, args):
    lat = subgroup_lattice(g)
    results = [{"label": cls.label, "verified": ok}
               for cls, ok in zip(lat.classes, mackey_check(g))]
    ok = all(r["verified"] for r in results)
    payload = {
        "command": "mackey-check",
        "group": g.label,
        "identity": "diagonal_restrict(diagonal_induce(x)) == gamma * x",
        "basis": results,
        "all_verified": ok,
    }
    lines = [f"Mackey identity on {g.label}: "
             f"{'verified' if ok else 'FAILED'} on all basis classes"]
    for r in results:
        lines.append(f"  [{g.label}/{r['label']}]: "
                     f"{'ok' if r['verified'] else 'FAILED'}")
    return payload, lines


def cmd_separable(g, ring, args):
    if args.what == "ring":
        verdict = ring_separability(g, ring)
        payload = verdict.to_json_dict("ring-separable", g, ring)
        lines = [f"Burnside algebra of {g.label} over {ring.spec}: "
                 f"{'separable' if verdict.separable else 'not separable'}"]
        if verdict.separable:
            lines.append("  witness: Casimir element from the idempotent basis "
                         "(verified)")
        else:
            cert = verdict.obstruction["certificate"]
            lines.append(f"  obstruction: |G| = {g.order} is not a unit; "
                         f"linear certificate {cert}")
    else:
        verdict = functor_separability(g, ring)
        payload = verdict.to_json_dict(g, ring)
        lines = [f"shifted Burnside functor of {g.label} over {ring.spec}: "
                 f"{'separable' if verdict.separable else 'not separable'}"]
        lines.append(f"  gamma = {verdict.gamma.render()}")
        if verdict.separable:
            lines.append(f"  gamma inverse = {verdict.gamma_inverse.render()}")
        else:
            lines.append(f"  obstruction: {verdict.obstruction}")
    return payload, lines


def cmd_commutant(g, ring, args):
    result = commutant_basis(g, ring)
    # the trivial subgroup is a twisted diagonal, so a solution always exists
    gg_lat = subgroup_lattice(result.solutions[0].group)
    payload = {
        "command": "commutant",
        "group": g.label,
        "ring": ring.spec,
        "solutions": [s.to_json_dict() for s in result.solutions],
        "matches_diagonal_span": result.matches_diagonal_span,
        "diagonal_labels": [gg_lat.classes[i].label
                            for i in result.diagonal_class_indices],
    }
    if result.dimension is not None:
        payload["dimension"] = result.dimension
    lines = [f"commutant of the identity biset over {g.label} x {g.label}, "
             f"ring {ring.spec}"]
    lines.append(f"  spanning set size: {len(result.solutions)}")
    if result.dimension is not None:
        lines.append(f"  dimension: {result.dimension}")
    lines.append(f"  equals the span of the diagonal classes: "
                 f"{result.matches_diagonal_span}")
    for s in result.solutions:
        lines.append(f"  {s.render()}")
    return payload, lines


def cmd_derivations(g, ring, args):
    space = derivation_space(g, ring)
    payload = {
        "command": "derivations",
        "group": g.label,
        "ring": ring.spec,
        "zero": space.is_zero(),
        "basis": space.matrices_json(),
    }
    lines = [f"derivations of the Burnside algebra of {g.label} over {ring.spec}"]
    if space.is_zero():
        lines.append("  only the zero derivation")
    else:
        lines.append(f"  spanning set of size {len(space.basis)}")
        for m in payload["basis"]:
            lines += [f"    d[{label}] -> {nz}" for label, nz in m.items() if nz]
            lines.append("    --")
    return payload, lines


# Each command's words map to (handler, positional names, takes --ring,
# help line).  Every command takes --json and --max-order; --invert is
# gamma's alone.
COMMANDS = {
    "group info": (cmd_group_info, ("spec",), False,
                   "order, abelianness, element classes"),
    "subgroups": (cmd_subgroups, ("spec",), False, "subgroup lattice summary"),
    "tom": (cmd_tom, ("spec",), False, "table of marks"),
    "idempotents": (cmd_idempotents, ("spec",), True,
                    "primitive idempotents (|G| a unit)"),
    "gamma": (cmd_gamma, ("spec",), True,
              "conjugation class; --invert also inverts it"),
    "mackey-check": (cmd_mackey_check, ("spec",), False,
                     "verify restrict(induce(x)) = gamma * x on the basis"),
    "separable": (cmd_separable, ("what", "spec"), True,
                  "separability verdicts"),
    "commutant": (cmd_commutant, ("spec",), True,
                  "solutions of the two-sided diagonal condition"),
    "derivations": (cmd_derivations, ("spec",), True,
                    "derivation space of the algebra"),
}
_CHOICES = {"what": ("ring", "functor")}


def _synopsis(key):
    _, names, takes_ring, _ = COMMANDS[key]
    words = [key, *("|".join(_CHOICES[n]) if n in _CHOICES else f"<{n}>"
                    for n in names)]
    if takes_ring:
        words.append("--ring R")
    return " ".join(words)


def _help():
    synopses = {key: _synopsis(key) for key in COMMANDS}
    width = max(map(len, synopses.values())) + 2
    return "\n".join([
        "usage: burnside [group] <command> [ring|functor] <spec> [--ring R] "
        "[--invert] [--json] [--max-order N]", "",
        "Exact Burnside ring computations for small finite groups.", "",
        "commands:",
        *(f"  {synopses[key]:<{width}}{text}"
          for key, (_, _, _, text) in COMMANDS.items()),
        "",
        "options (anywhere on the line, as --opt value or --opt=value):",
        "  --ring R         coefficient ring",
        "  --invert         invert gamma (gamma only)",
        "  --json           emit exactly one JSON document on stdout",
        "  --max-order N    reject groups larger than N (also via",
        "                   BURNSIDE_MAX_ORDER; hard cap 255)",
        "  -h, --help       print this help",
        "",
        "Group specs: C<n>, D<n> (D<n> has ORDER n), S<n> (degree <= 5), Q8,",
        "perm:<cycles>;..., prod(<spec>,<spec>).  Rings: Z, Q, Z/<m>.",
        "Errors are one line E_<CODE>: message on stderr, exit code 2.",
    ])


def parse_argv(argv) -> SimpleNamespace:
    """Read argv against ``COMMANDS``; every error is a ``ParseError``.

    Options go anywhere: before, between or after the words.  The
    namespace holds ``func``, each positional by name, ``json`` and
    ``invert`` (bools), and ``ring`` and ``max_order`` (None when absent).
    """
    args = SimpleNamespace(json=False, invert=False, ring=None, max_order=None)
    words = []
    rest = iter(argv)
    for word in rest:
        if not word.startswith("-"):
            words.append(word)
            continue
        name, eq, value = word.partition("=")
        if name in ("--json", "--invert") and not eq:
            setattr(args, name[2:], True)
        elif name in ("--ring", "--max-order"):
            if not eq:
                value = next(rest, None)
                if value is None:
                    raise errors.ParseError(f"{name} needs a value")
            setattr(args, name[2:].replace("-", "_"), value)
        else:
            raise errors.ParseError(f"unknown option {word!r}")
    n = 2 if " ".join(words[:2]) in COMMANDS else 1
    key = " ".join(words[:n])
    if key not in COMMANDS:
        what = f"unknown command {key!r}" if words else "no command given"
        raise errors.ParseError(f"{what}; expected one of: {', '.join(COMMANDS)}")
    func, names, takes_ring, _ = COMMANDS[key]
    given = words[n:]
    if len(given) != len(names):
        problem = (f"missing <{names[len(given)]}>" if len(given) < len(names)
                   else f"unexpected argument {given[len(names)]!r}")
        raise errors.ParseError(f"{key}: {problem} (usage: {_synopsis(key)})")
    for name, value in zip(names, given):
        choices = _CHOICES.get(name)
        if choices and value not in choices:
            raise errors.ParseError(f"{key}: {name} must be "
                                    f"{' or '.join(choices)}, not {value!r}")
        setattr(args, name, value)
    if takes_ring != (args.ring is not None):
        raise errors.ParseError(f"{key} {'needs' if takes_ring else 'takes no'} "
                                f"--ring (usage: {_synopsis(key)})")
    if args.invert and key != "gamma":
        raise errors.ParseError(f"--invert applies to gamma only, not {key}")
    args.func = func
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            _write(_help())
            return 0
        args = parse_argv(argv)
        # the group is parsed before the ring, so a bad pair reports the group
        g = build_group(args.spec, max_order=_max_order(args))
        ring = ring_from_spec(args.ring) if args.ring is not None else None
        payload, lines = args.func(g, ring, args)
        _write(_indented(payload) if args.json else "\n".join(lines))
        return 0
    except BrokenPipeError:
        # the reader closed stdout, which is not an error of ours
        return 1
    except errors.BurnsideError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"E_INTERNAL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
