"""Command-line front end with deterministic text and JSON output.

Mathematical verdicts ("not separable", "nonzero derivations") are data,
not failures: they exit 0.  Exit code 2 is reserved for errors, reported
as a single machine-parsable line ``E_<CODE>: message`` on stderr.

The dihedral spec D<n> names the group of ORDER n, so D8 is the symmetry
group of the square.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import errors
from .algebra import (
    BurnsideElement,
    NotInvertible,
    idempotent_system,
    invert,
    marks_vector,
    multiply,
    table_of_marks,
)
from .bisets import diagonal_induce, diagonal_restrict, gamma
from .groups import (
    build_group,
    element_classes,
    moebius,
    subgroup_lattice,
    trivial_subgroup,
)
from .rings import ZZ, ring_from_spec
from .separability import (
    commutant_basis,
    derivation_space,
    functor_separability,
    ring_separability,
)

_ERROR_CODES = (
    (errors.ParseError, "E_PARSE"),
    (errors.BadLabelError, "E_PARSE"),
    (errors.OrderBoundError, "E_ORDER_BOUND"),
    (errors.NotInvertibleError, "E_RING"),
    (errors.ResourceBoundError, "E_RESOURCE"),
)


def _error_code(exc) -> str:
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return code
    return "E_INTERNAL"


def _emit(payload, as_json, text_lines, out):
    if as_json:
        print(json.dumps(payload, separators=(",", ": "), indent=2), file=out)
    else:
        for line in text_lines:
            print(line, file=out)


def _coeff_text(elem) -> str:
    return elem.render()


def _max_order(args) -> int | None:
    """The --max-order flag, else BURNSIDE_MAX_ORDER, as a non-negative int."""
    for name, text in (("--max-order", args.max_order),
                       ("BURNSIDE_MAX_ORDER", os.environ.get("BURNSIDE_MAX_ORDER"))):
        if text is not None:
            if not (text.isascii() and text.isdigit()):
                raise errors.ParseError(f"{name} must be an integer: {text!r}")
            return int(text)
    return None


def _group(args):
    return build_group(args.spec, max_order=_max_order(args))


def cmd_group_info(args, out):
    g = _group(args)
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
    _emit(payload, args.json, lines, out)
    return 0


def cmd_subgroups(args, out):
    g = _group(args)
    lat = subgroup_lattice(g)
    triv = trivial_subgroup(g)
    entries = []
    for ci, cls in enumerate(lat.classes):
        rep = lat.class_rep(ci)
        entries.append({
            "label": cls.label,
            "order": rep.order,
            "class_size": len(cls.member_indices),
            "representative": list(rep.members),
            "normalizer_order": g.order // len(cls.member_indices),
            "moebius_from_trivial": moebius(lat, triv, rep),
        })
    payload = {
        "command": "subgroups",
        "group": g.label,
        "subgroup_count": len(lat.subgroups),
        "classes": entries,
    }
    lines = [f"group {g.label}: {len(lat.subgroups)} subgroups, "
             f"{lat.class_count} conjugacy classes"]
    for e in entries:
        lines.append(
            f"  {e['label']}: order {e['order']}, class size {e['class_size']}, "
            f"|N_G(H)| {e['normalizer_order']}, mu(1,H) {e['moebius_from_trivial']}")
    _emit(payload, args.json, lines, out)
    return 0


def cmd_tom(args, out):
    g = _group(args)
    tom = table_of_marks(g)
    payload = {
        "command": "tom",
        "group": g.label,
        "labels": list(tom.labels),
        "matrix": [list(row) for row in tom.matrix],
    }
    width = max(len(str(x)) for row in tom.matrix for x in row)
    lines = [f"table of marks of {g.label} (rows [G/H], columns K)"]
    lines.append("        " + " ".join(f"{l:>{width + 2}}" for l in tom.labels))
    for label, row in zip(tom.labels, tom.matrix):
        lines.append(f"{label:>7} " + " ".join(f"{x:>{width + 2}}" for x in row))
    _emit(payload, args.json, lines, out)
    return 0


def cmd_idempotents(args, out):
    g = _group(args)
    ring = ring_from_spec(args.ring)
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
        lines.append(f"  e[{lat.classes[i].label}] = {_coeff_text(e)}")
    _emit(payload, args.json, lines, out)
    return 0


def cmd_gamma(args, out):
    g = _group(args)
    ring = ring_from_spec(args.ring)
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
             f"  gamma = {_coeff_text(gam)}"]
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
            lines.append(f"  inverse = {_coeff_text(res)}")
            lines.append(f"  gamma * inverse = {_coeff_text(check)}")
    _emit(payload, args.json, lines, out)
    return 0


def cmd_mackey_check(args, out):
    g = _group(args)
    lat = subgroup_lattice(g)
    gam = gamma(g, ZZ)
    results = []
    for ci in range(lat.class_count):
        alpha = BurnsideElement.basis(g, ZZ, ci)
        lhs = diagonal_restrict(diagonal_induce(alpha))
        rhs = multiply(gam, alpha)
        results.append({"label": lat.classes[ci].label, "verified": lhs == rhs})
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
    _emit(payload, args.json, lines, out)
    return 0


def cmd_separable(args, out):
    g = _group(args)
    ring = ring_from_spec(args.ring)
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
        lines.append(f"  gamma = {_coeff_text(verdict.gamma)}")
        if verdict.separable:
            lines.append(f"  gamma inverse = {_coeff_text(verdict.gamma_inverse)}")
        else:
            lines.append(f"  obstruction: {verdict.obstruction}")
    _emit(payload, args.json, lines, out)
    return 0


def cmd_commutant(args, out):
    g = _group(args)
    ring = ring_from_spec(args.ring)
    result = commutant_basis(g, ring)
    gg_lat = subgroup_lattice(result.solutions[0].group) if result.solutions else None
    payload = {
        "command": "commutant",
        "group": g.label,
        "ring": ring.spec,
        "solutions": [s.to_json_dict() for s in result.solutions],
        "matches_diagonal_span": result.matches_diagonal_span,
        "diagonal_labels": (
            [gg_lat.classes[i].label for i in result.diagonal_class_indices]
            if gg_lat is not None else []),
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
        lines.append(f"  {_coeff_text(s)}")
    _emit(payload, args.json, lines, out)
    return 0


def cmd_derivations(args, out):
    g = _group(args)
    ring = ring_from_spec(args.ring)
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
        lat = subgroup_lattice(g)
        for m in space.basis:
            for i, row in enumerate(m):
                nz = {lat.classes[j].label: ring.to_str(v)
                      for j, v in enumerate(row) if not ring.is_zero(v)}
                if nz:
                    lines.append(f"    d[{lat.classes[i].label}] -> {nz}")
            lines.append("    --")
    _emit(payload, args.json, lines, out)
    return 0


def build_parser():
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit exactly one JSON document on stdout")
    common.add_argument("--max-order", default=argparse.SUPPRESS,
                        help="reject groups larger than this (also via "
                             "BURNSIDE_MAX_ORDER; hard cap 255)")

    parser = argparse.ArgumentParser(
        prog="burnside",
        parents=[common],
        description="Exact Burnside ring computations for small finite groups. "
                    "Group specs: C<n>, D<n> (D<n> has ORDER n), S<n> (degree "
                    "<= 5), Q8, perm:<cycles>;..., prod(<spec>,<spec>). "
                    "Rings: Z, Q, Z/<m>.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="group-level queries")
    gsub = p.add_subparsers(dest="group_command", required=True)
    gi = gsub.add_parser("info", parents=[common],
                         help="order, abelianness, element classes")
    gi.add_argument("spec")
    gi.set_defaults(func=cmd_group_info)

    p = sub.add_parser("subgroups", parents=[common],
                       help="subgroup lattice summary")
    p.add_argument("spec")
    p.set_defaults(func=cmd_subgroups)

    p = sub.add_parser("tom", parents=[common], help="table of marks")
    p.add_argument("spec")
    p.set_defaults(func=cmd_tom)

    p = sub.add_parser("idempotents", parents=[common],
                       help="primitive idempotents (|G| a unit)")
    p.add_argument("spec")
    p.add_argument("--ring", required=True)
    p.set_defaults(func=cmd_idempotents)

    p = sub.add_parser("gamma", parents=[common],
                       help="conjugation class, optionally inverted")
    p.add_argument("spec")
    p.add_argument("--ring", required=True)
    p.add_argument("--invert", action="store_true")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("mackey-check", parents=[common],
                       help="verify restrict(induce(x)) = gamma * x on the basis")
    p.add_argument("spec")
    p.set_defaults(func=cmd_mackey_check)

    p = sub.add_parser("separable", parents=[common],
                       help="separability verdicts")
    p.add_argument("what", choices=["ring", "functor"])
    p.add_argument("spec")
    p.add_argument("--ring", required=True)
    p.set_defaults(func=cmd_separable)

    p = sub.add_parser("commutant", parents=[common],
                       help="solutions of the two-sided diagonal condition")
    p.add_argument("spec")
    p.add_argument("--ring", required=True)
    p.set_defaults(func=cmd_commutant)

    p = sub.add_parser("derivations", parents=[common],
                       help="derivation space of the algebra")
    p.add_argument("spec")
    p.add_argument("--ring", required=True)
    p.set_defaults(func=cmd_derivations)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the shared flags use SUPPRESS so a pre-subcommand value survives;
    # fill the defaults here when the flag never appeared
    if not hasattr(args, "json"):
        args.json = False
    if not hasattr(args, "max_order"):
        args.max_order = None
    try:
        return args.func(args, sys.stdout)
    except errors.BurnsideError as exc:
        print(f"{_error_code(exc)}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"E_INTERNAL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
