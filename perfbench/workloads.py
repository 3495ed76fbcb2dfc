"""Workload definitions and seeded input generation for the benchmark.

Every group is named by a short key.  Seed 0 queries the canonical spec
(``S4``, ``prod(D8,D8)``, ...).  Any other seed queries the same group as
a ``perm:`` spec whose points are relabelled by a permutation drawn from
the seed, with the generators in a seeded order.  The element numbering
of the group changes with the seed; its isomorphism type does not, so the
invariants recorded in ``golden.json`` hold for every seed.
"""

from __future__ import annotations

import random

# key -> (canonical spec, permutation generators on points 1..d)
GROUPS = {
    "S3": ("S3", ("(1 2 3)", "(1 2)")),
    "C2xC2": ("prod(C2,C2)", ("(1 2)", "(3 4)")),
    "C2xC3": ("prod(C2,C3)", ("(1 2)", "(3 4 5)")),
    "C2^3": ("prod(C2,prod(C2,C2))", ("(1 2)", "(3 4)", "(5 6)")),
    "C2^4": ("prod(C2,prod(C2,prod(C2,C2)))",
             ("(1 2)", "(3 4)", "(5 6)", "(7 8)")),
    "C2^5": ("prod(C2,prod(C2,prod(C2,prod(C2,C2))))",
             ("(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)")),
    "S4": ("S4", ("(1 2 3 4)", "(1 2)")),
    "D16": ("D16", ("(1 2 3 4 5 6 7 8)", "(1 8)(2 7)(3 6)(4 5)")),
    "S3xS3": ("prod(S3,S3)", ("(1 2 3)", "(1 2)", "(4 5 6)", "(4 5)")),
    "S4xC2": ("prod(S4,C2)", ("(1 2 3 4)", "(1 2)", "(5 6)")),
    "A5": ("perm:(1 2 3 4 5);(1 2 3)", ("(1 2 3 4 5)", "(1 2 3)")),
    "D8xC2": ("prod(D8,C2)", ("(1 2 3 4)", "(1 3)", "(5 6)")),
    "D8xS3": ("prod(D8,S3)", ("(1 2 3 4)", "(1 3)", "(5 6 7)", "(5 6)")),
    "C3xS4": ("prod(C3,S4)", ("(1 2 3)", "(4 5 6 7)", "(4 5)")),
    "D8xD8": ("prod(D8,D8)", ("(1 2 3 4)", "(1 3)", "(5 6 7 8)", "(5 7)")),
}

# lattice: subgroup enumeration and marks are nearly all the work
LATTICE_GROUPS = ("S4", "D16", "S3xS3", "C2^5", "S4xC2", "A5", "D8xS3",
                  "C3xS4", "D8xD8")

# verdicts: system build and exact solve dominate; lattices stay tiny.
# Each entry is (argv before the group, group key, argv after the group).
VERDICT_QUERIES = (
    (("separable", "ring"), "S4", ("--ring", "Z")),
    (("separable", "ring"), "S4", ("--ring", "Z/6")),
    (("separable", "ring"), "D16", ("--ring", "Z/2")),
    (("separable", "ring"), "S4", ("--ring", "Z/5")),
    (("separable", "ring"), "D8xC2", ("--ring", "Q")),
    (("separable", "functor"), "S4", ("--ring", "Z/3")),
    (("separable", "functor"), "S3xS3", ("--ring", "Q")),
    (("derivations",), "C2^3", ("--ring", "Z/2")),
    (("derivations",), "S4", ("--ring", "Z")),
    (("commutant",), "S3", ("--ring", "Q")),
    (("commutant",), "C2xC3", ("--ring", "Z/2")),
    (("mackey-check",), "S3", ()),
    (("mackey-check",), "C2xC2", ()),
)

# arith: a warm library session over cached structure constants
ARITH_GROUPS = ("S4", "S3xS3", "D8xC2", "C2^4")

# Calls per group in one arith pass (about 5 s on a 2 GHz Xeon core, so
# that a pass averages over the host's short speed swings).  The counts
# are fixed so that every seed does the same mix of work; the seed only
# draws the coefficients and the order of the calls.
ARITH_CELLS = (
    ("multiply", "Z", 12),
    ("multiply", "Q", 12),
    ("multiply", "Z/6", 12),
    ("invert_gamma", "Q", 4),
    ("invert_gamma", "Z/5", 4),
    ("invert_gamma", "Z/7", 4),
    ("invert_unit", "Q", 4),
    ("invert_unit", "Z/7", 4),
    ("marks_vector", "Z", 4),
    ("marks_vector", "Q", 4),
    ("idempotent_system", "Q", 4),
    ("idempotent_system", "Z/5", 4),
)

COLD_WORKLOADS = ("lattice", "verdicts")
WORKLOADS = COLD_WORKLOADS + ("arith",)


def group_spec(key: str, seed: int) -> str:
    """The spec the benchmark passes for group ``key`` under ``seed``."""
    canonical, gens = GROUPS[key]
    if seed == 0:
        return canonical
    rng = random.Random(f"{seed}/{key}")
    points = sorted({int(p) for g in gens
                     for p in g.replace("(", " ").replace(")", " ").split()})
    images = points[:]
    rng.shuffle(images)
    relabel = dict(zip(points, images))
    out = []
    for g in gens:
        cycles = g.strip("()").split(")(")
        out.append("".join(
            "(" + " ".join(str(relabel[int(p)]) for p in c.split()) + ")"
            for c in cycles))
    rng.shuffle(out)
    return "perm:" + ";".join(out)


def cold_queries(workload: str, seed: int):
    """(query id, CLI argv) pairs of one pass, in a fixed order.

    The query id names the group by key, so it is the same for every
    seed and indexes the golden outputs.
    """
    if workload == "lattice":
        return [(f"{cmd} {key}", [cmd, group_spec(key, seed)])
                for key in LATTICE_GROUPS for cmd in ("subgroups", "tom")]
    if workload == "verdicts":
        return [(" ".join(pre + (key,) + post),
                 list(pre) + [group_spec(key, seed)] + list(post))
                for pre, key, post in VERDICT_QUERIES]
    raise ValueError(f"not a cold workload: {workload}")


def arith_calls(seed: int, class_counts: dict):
    """The seeded call stream of one arith pass, as plain data.

    ``class_counts`` maps each arith group key to its number of subgroup
    classes.  Each call is (group key, op, ring spec, data), where data
    holds the coefficients of the inputs: two dense vectors for
    ``multiply``, one for ``marks_vector``, one unit coefficient per
    primitive idempotent for ``invert_unit``, and nothing otherwise.
    """
    rng = random.Random(f"arith/{seed}")
    calls = []
    for key in ARITH_GROUPS:
        n = class_counts[key]
        for op, ring, count in ARITH_CELLS:
            for _ in range(count):
                if op == "multiply":
                    data = [_dense(rng, ring, n), _dense(rng, ring, n)]
                elif op == "marks_vector":
                    data = [_dense(rng, ring, n)]
                elif op == "invert_unit":
                    data = [_dense(rng, ring, n)]
                else:
                    data = []
                calls.append((key, op, ring, data))
    rng.shuffle(calls)
    return calls


def _dense(rng, ring: str, n: int):
    """n coefficients, none zero, so every draw is equally dense.

    Integers are written as ints, rationals as [numerator, denominator],
    residues mod m as ints in 1..m-1 (all units when m is prime).
    """
    if ring == "Q":
        return [[rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)]
                for _ in range(n)]
    if ring == "Z":
        return [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)]
    m = int(ring.split("/")[1])
    return [rng.randint(1, m - 1) for _ in range(n)]
