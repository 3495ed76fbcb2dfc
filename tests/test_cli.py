import errno
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

import burnside
import burnside.cli
import burnside.rings
import burnside.separability
import burnside.algebra
from burnside.cli import main
from burnside.gsets import conjugation_gset, from_gset, product, transitive_of_class
from burnside.rings import ZZ
from helpers import marks_by_class_masks
from test_groups import _PERM_GENS, _cycles

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


# C1 to prod(S4,S3), then D8 x D8 and S4 x S3 on points relabelled by a
# seeded permutation, generators in seeded order
TOM_SPECS = ("C1", "C2", "S3", "S4", "prod(C2,prod(C2,prod(C2,prod(C2,C2))))",
             "prod(D8,D8)", "prod(S4,S3)",
             "perm:(3 1);(7 4 6 2);(8 3 5 1);(7 6)",
             "perm:(7 1);(6 5 7 1);(4 2);(4 3 2)")


@pytest.mark.parametrize("spec", TOM_SPECS)
def test_tom_json_is_the_dense_table_dumped(capsys, spec):
    # the writer goes from the sparse rows to the dense layout json.dumps
    # gives, rows of ones ([G/G]) and of column 0 alone ([G/1]) included;
    # the dense table is the oracle's, built from the class masks
    code, out, err = run_cli(capsys, "tom", spec, "--json")
    lat = burnside.subgroup_lattice(burnside.build_group(spec))
    dense = {"command": "tom", "group": lat.group.label, "labels": lat.labels(),
             "matrix": [list(row) for row in marks_by_class_masks(lat)]}
    assert (code, err) == (0, "")
    assert out == json.dumps(dense, indent=2) + "\n"


def test_tom_text_bytes(capsys):
    # one sha256 over the text tables, pinned from the dense table that the
    # lattice built before the sparse rows were the primary form
    h = hashlib.sha256()
    for spec in TOM_SPECS:
        code, text, err = run_cli(capsys, "tom", spec)
        assert (code, err) == (0, ""), spec
        h.update(text.encode())
    assert h.hexdigest() == ("7ca24e66b4b8de3acdfd0973c56e170a"
                             "f546ca49bfc57a01c4c87e4a47d22033")


def _refuse_dense(self):
    raise AssertionError("a command built the dense table of marks")


@pytest.mark.parametrize("spec", ["S4", "D16"])
@pytest.mark.parametrize("line", [
    "tom {} --json", "subgroups {}", "separable ring {} --ring Q",
    "separable ring {} --ring Z", "idempotents {} --ring Q",
    "gamma {} --ring Q --invert", "mackey-check {}",
])
def test_ghost_ring_commands_read_only_the_sparse_marks(capsys, monkeypatch,
                                                         line, spec):
    # a property on the class wins over a value cached on a lattice
    monkeypatch.setattr(burnside.groups.SubgroupLattice, "marks",
                        property(_refuse_dense))
    code, out, err = run_cli(capsys, *line.format(spec).split())
    assert (code, err) == (0, "") and out


GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                     / "golden.json").read_text())["queries"]


@pytest.mark.parametrize("qid", GOLDEN)
def test_benchmark_golden_json_bytes(capsys, qid):
    # the benchmark's seed-0 cold queries, run in process: output drift
    # fails here as well as in the benchmark's own check
    code, out, err = run_cli(capsys, *GOLDEN[qid]["argv"], "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[qid]["sha256"]


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


def _refuse_once_built(monkeypatch, refusals):
    """Patch each (owner, name, stub) into every burnside module that binds
    the name, once the command line's group is built: building a
    prod(...) spec itself calls direct_product."""
    build = burnside.cli.build_group

    def build_then_refuse(*args, **kwargs):
        g = build(*args, **kwargs)
        for owner, name, stub in refusals:
            orig = getattr(owner, name)
            for mod in [m for k, m in sys.modules.items() if k.startswith("burnside")]:
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, stub)
        return g

    monkeypatch.setattr(burnside.cli, "build_group", build_then_refuse)


def _refuse_products(*args):
    raise AssertionError("mackey-check built a product group")


def test_mackey_check_builds_no_g_x_g(capsys, monkeypatch):
    import burnside.groups

    _refuse_once_built(monkeypatch, [(burnside.groups, name, _refuse_products)
                                     for name in ("squared", "direct_product")])
    code, out, _ = run_cli(capsys, "mackey-check", "D8")
    assert code == 0
    labels = ["1#1", "2#1", "2#2", "2#3", "4#1", "4#2", "4#3", "8#1"]
    assert out.splitlines() == [
        "Mackey identity on D8: verified on all basis classes",
        *(f"  [D8/{label}]: ok" for label in labels)]


@pytest.mark.parametrize("spec", ["S4", "D16", "prod(S3,S3)",
                                  "prod(C2,prod(C2,prod(C2,C2)))", "S5"])
def test_mackey_check_verifies_the_ladder_above_order_15(capsys, monkeypatch, spec):
    import burnside.groups
    from burnside.groups import build_group, subgroup_lattice

    classes = subgroup_lattice(build_group(spec)).class_count
    _refuse_once_built(monkeypatch, [(burnside.groups, name, _refuse_products)
                                     for name in ("squared", "direct_product")])
    code, out, err = run_cli(capsys, "mackey-check", spec, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["all_verified"] is True
    assert len(payload["basis"]) == classes
    validate(payload, "mackey_check.schema.json")


def test_mackey_check_builds_no_gset(capsys, monkeypatch):
    # C255 and prod(S4,D8) were refused while the left side was the G-set
    # G_conj x G/H, at 28.1 and 224 million action-table entries
    import burnside.gsets

    monkeypatch.setattr(burnside.gsets.GSet, "__init__", _refuse)
    for spec in ("C255", "prod(S4,D8)"):
        code, out, err = run_cli(capsys, "mackey-check", spec, "--json")
        assert (code, err) == (0, ""), spec
        assert json.loads(out)["all_verified"] is True, spec


# the bases of the test_bisets check against the diagonal pair, then the
# ladder above order 15
_MACKEY_ORACLE_SPECS = ([f"C{n}" for n in range(1, 16)]
                        + ["S3", "prod(C2,C2)", "D8", "Q8", "D10", "D12", "D14",
                           "prod(C2,prod(C2,C2))", "prod(C3,C3)", "S4", "D16",
                           "prod(S3,S3)", "prod(C2,prod(C2,prod(C2,C2)))", "S5"])


@pytest.mark.parametrize("spec", _MACKEY_ORACLE_SPECS)
def test_mackey_check_orbit_count_is_the_conjugation_times_coset_set(
        capsys, monkeypatch, spec):
    # with the right side swapped for the G-set G_conj x G/H, every class
    # still verifies: the orbit count equals that set, class by class
    def gset_side(lat, marks, ci):
        x = from_gset(
            product(conjugation_gset(lat.group), transitive_of_class(lat.group, ci)), ZZ)
        return [x.coeffs.get(k, 0) for k in range(lat.class_count)]

    monkeypatch.setattr(burnside.algebra, "_gamma_times", gset_side)
    code, out, err = run_cli(capsys, "mackey-check", spec, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["all_verified"] is True


@pytest.mark.parametrize("spec", ["C1", "S3", "D12", "prod(C2,prod(C2,C2))"])
def test_mackey_check_left_side_does_not_read_the_right(capsys, monkeypatch, spec):
    # adding [G/G] to gamma * x must fail every class: the left side is
    # counted on its own, not derived from the right
    gamma_times = burnside.algebra._gamma_times

    def shifted(lat, marks, ci):
        x = gamma_times(lat, marks, ci)
        x[-1] += 1
        return x

    monkeypatch.setattr(burnside.algebra, "_gamma_times", shifted)
    code, out, err = run_cli(capsys, "mackey-check", spec)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == f"Mackey identity on {spec}: FAILED on all basis classes"
    assert lines[1:] and all(line.endswith(": FAILED") for line in lines[1:])
    code, out, _ = run_cli(capsys, "mackey-check", spec, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["all_verified"] is False
    assert not any(r["verified"] for r in payload["basis"])


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gens=_PERM_GENS)
def test_mackey_check_verifies_random_permutation_groups(capsys, gens):
    spec = "perm:" + ";".join(_cycles(p) for p in gens)
    code, out, err = run_cli(capsys, "mackey-check", spec, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["all_verified"] is True


def _refuse(*args, **kwargs):
    raise AssertionError("a command built a G-set")


@pytest.mark.parametrize("spec", ["C3", "Q8", "D12", "prod(C2,prod(C2,C2))", "C15"])
def test_mackey_check_induces_no_gset(capsys, monkeypatch, spec):
    # the left side is G_conj x G/H, not a set induced to G x G
    import burnside.bisets
    import burnside.groups
    import burnside.gsets

    _refuse_once_built(monkeypatch, [
        (burnside.gsets, "induce", _refuse),
        (burnside.bisets, "diagonal_induce", _refuse),
        (burnside.groups, "squared", _refuse_products),
        (burnside.groups, "direct_product", _refuse_products)])
    code, out, _ = run_cli(capsys, "mackey-check", spec, "--json")
    assert code == 0
    assert json.loads(out)["all_verified"] is True


@pytest.mark.parametrize("argv,cls,count", [
    (("mackey-check", "D12"), "Group", 1),  # D12 alone, no D12 x D12
    (("group", "info", "C255"), "Subgroup", 1),  # every centralizer is C255
])
def test_commands_build_each_group_and_centralizer_once(capsys, monkeypatch,
                                                        argv, cls, count):
    import burnside.groups

    built = []
    klass = getattr(burnside.groups, cls)
    init = klass.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(klass, "__init__", counted)
    code, _, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert len(built) == count


@pytest.mark.parametrize("spec", ["S3", "Q8", "D12", "C15", "prod(C2,prod(C2,C2))"])
def test_mackey_check_restricts_without_a_diagonal_subgroup(capsys, monkeypatch, spec):
    # every burnside module that binds the two names gets the refusal
    import burnside.groups
    import burnside.gsets

    for owner, name in ((burnside.gsets, "restrict"),
                        (burnside.groups, "diagonal_subgroup")):
        orig = getattr(owner, name)
        for mod in [m for k, m in sys.modules.items() if k.startswith("burnside")]:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, _refuse)
    monkeypatch.setattr(burnside.groups.Subgroup, "as_group", _refuse)
    code, out, _ = run_cli(capsys, "mackey-check", spec, "--json")
    assert code == 0
    assert json.loads(out)["all_verified"] is True


@pytest.mark.parametrize("argv,digest", [
    (("group", "info", "C255"),
     "79d2ed74c512d272f814f5ad270e847a5d39d6a3e607104331a388a7cd47797e"),
    (("group", "info", "prod(C15,C15)"),
     "774bc794740ebfb17f003d6e75bb3f69a06203b6ba7f077379583c9db628202f"),
    (("gamma", "C255", "--ring", "Q", "--invert"),
     "7d8ce75ef5d319973411f6753d2c5ff48a0e48a2830d36c6774951801947a56d"),
    (("mackey-check", "C15"),
     "cab0c900fc8e1194ebdbac40f0a8cd4e7429240e209716088f4c6410218345f2"),
    (("mackey-check", "prod(C2,prod(C2,C2))"),
     "448c2d751887aa0c8cc6b0fa5987c4de6d6a08754bcc8ec3623caabb4d7e6ddb"),
])
def test_centralizer_and_restriction_json_bytes(capsys, argv, digest):
    # pinned from centralizers found by a second scan of G, and from the
    # restriction taken to a Delta(G) Subgroup and carried over to G
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,system", [
    (("separable", "ring", "prod(D8,D8)", "--ring", "Z/2"), "Casimir"),
    (("derivations", "prod(C2,prod(C2,prod(C2,prod(C2,C2))))", "--ring", "Z/2"),
     "Leibniz"),
])
def test_oversized_system_is_refused_before_it_is_built(capsys, argv, system):
    # 9.8M Casimir rows and 26M Leibniz rows, against the cap of 10^6
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err.startswith(f"E_RESOURCE: the {system} system of ")
    assert err.endswith("rows; systems are capped at 1000000\n")


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


# the 28 groups of order at most 15, A4 and Dic3 as permutation groups
ORDER_15_BASES = [
    "C1", "C2", "C3", "C4", "prod(C2,C2)", "C5", "C6", "S3", "C7", "C8",
    "prod(C2,C4)", "prod(C2,prod(C2,C2))", "D8", "Q8", "C9", "prod(C3,C3)",
    "C10", "D10", "C11", "C12", "prod(C2,C6)", "D12",
    "perm:(1 2 3);(1 2)(3 4)", "perm:(1 2 3);(2 3)(4 5 6 7)",
    "C13", "C14", "D14", "C15"]


def test_commutant_json_bytes_on_every_base_to_order_15(capsys, monkeypatch):
    # one sha256 over the outputs, ring by ring and base by base, pinned
    # from the conjugacy search in G^3 that clustered the stabilizers
    # before they were read off the twisted diagonals, and from the solve
    # of the cluster rows before the kernel was read off the loops
    def no_solve(*args, **kwargs):
        raise AssertionError("commutant built or solved a linear system")

    monkeypatch.setattr(burnside.separability, "solve_linear", no_solve)
    monkeypatch.setattr(burnside.rings.Matrix, "from_sparse", no_solve)
    h = hashlib.sha256()
    for ring in ("Q", "Z", "Z/2", "Z/6"):
        for spec in ORDER_15_BASES:
            code, out, _ = run_cli(capsys, "commutant", spec, "--ring", ring,
                                   "--json")
            assert code == 0
            h.update(out.encode())
    assert h.hexdigest() == \
        "35401f23e5b6a11d36fb78592824016a12351f98df9df4cca331e362c0e5813f"


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


@pytest.mark.parametrize("spec", ["C2", "S3", "D8", "Q8", "prod(C2,C3)"])
def test_rational_commands_solve_nothing(capsys, spec):
    # solve_linear refuses Q, so a command that reached it would end in
    # E_INTERNAL: over Q every answer is read off the idempotents, the
    # checked Casimir element or the loops of the commutant's clusters
    for words, tail in ((("separable", "ring"), ()), (("separable", "functor"), ()),
                        (("derivations",), ()), (("commutant",), ()),
                        (("idempotents",), ()), (("gamma",), ("--invert",))):
        code, out, err = run_cli(capsys, *words, spec, *tail, "--ring", "Q",
                                 "--json")
        assert (code, err) == (0, ""), (words, err)
        json.loads(out)


@pytest.mark.parametrize("argv,digest", [
    (("subgroups", "S5"),
     "bbc444383691ed6f565dc6b7e9c8e0e278de99050a175bd46707eb5b96e04a23"),
    (("tom", "prod(S4,S3)"),
     "aa1d9cf9df71b86327aa37c3a65eacad7b992bcd6ce1d78e736590155b3da39f"),
    (("mackey-check", "D12"),
     "9e3afaa1f84a90078440de6608561bb5b183734892f710617b02a9f75b081b2b"),
    (("subgroups", "prod(D12,D12)"),
     "c5d4d998ae1c4ecdbac5de4b1ad7fe91459bc410b64d63d3b25b12f5bd348179"),
    (("tom", "prod(D12,D12)"),
     "2f8b1c8c4c24121fd4f9e293deadc602ce9f8b46a411d4509d3fdb97a23e7b29"),
    (("tom", "S5"),
     "b566b4b5da2c063a82408921dd50d09a0b288fcdfc03ac2a0cb7f3d1d8d13edf"),
    (("idempotents", "prod(D8,D8)", "--ring", "Q"),
     "099c1905cc9788872d699751aba1097b920d0c01579a8a48ce98f9f63a54a323"),
])
def test_lattice_json_bytes(capsys, argv, digest):
    # the first three pinned from the cyclic extension that joined every
    # zuppo outside H, conjugates under H included, the last four from the
    # classes sorted by (order, least member) before they were numbered as
    # first met; commutant D12 --ring Q, whose lattice is that of
    # prod(D12,D12), is pinned in test_rational_json_bytes
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


@pytest.mark.parametrize("argv,digest", [
    (("separable", "ring", "prod(S4,C2)", "--ring", "Z/2"),
     "51e1205feeb535ed2a5bc965a56057838728abd495d6e87e6fd26cd1117cda53"),
    (("derivations", "prod(C2,prod(C2,S3))", "--ring", "Z/2"),
     "6749deaefe6c649425f74b8741827f31d59c29194c54082349f1a618bed97fb8"),
])
def test_elimination_order_json_bytes(capsys, argv, digest):
    # the certificate's index and the mod-2 kernel both follow the exact
    # pivot order of the mod-m elimination; pinned from the pivot search
    # that scanned every remaining row at each step
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("separable", "ring", "prod(C2,prod(C2,prod(C2,C2)))", "--ring", "Q"),
     "251b544962a1eff7f9bd6e5048888574199b044cce448369bef320dd0925edef"),
    (("separable", "ring", "S5", "--ring", "Z/7"),
     "8ba165ec0b8e6cdf43f292fe95bc49c5f3e261ec318cee1f6496f7fe4dde9cb7"),
    (("separable", "ring", "prod(D8,C2)", "--ring", "Z/3"),
     "5f0c9ac59efead42ae0f5b9d13411b713a8a0ed4e360d7dded664263d789189a"),
])
def test_casimir_witness_json_bytes(capsys, argv, digest):
    # pinned from the witness built as E^T E over the Moebius idempotents
    # and checked by centrality on each basis class plus mu
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("idempotents", "prod(C2,prod(C2,prod(C2,C2)))", "--ring", "Q"),
     "c5265f08dfa5ffeb5e09ed43ec015b7d6788e33e297305e5d70a669dd92cdef0"),
    (("idempotents", "prod(S3,S3)", "--ring", "Z/5"),
     "9b346033f5f8d1c4473fe5bd419615024c621b6c9bb3bd18a74b5e0418e795af"),
    (("idempotents", "prod(D8,C2)", "--ring", "Z/35"),
     "5c65152794a7a4b4a671ee44a626c7153b09bebda6121237d079ff8ff0129bc9"),
    (("gamma", "S4", "--ring", "Z/5", "--invert"),
     "9febbe0465b157345401bec3cb7357e749726ba3d9e81ab4caf167d5f0617194"),
])
def test_idempotent_and_inverse_json_bytes(capsys, argv, digest):
    # pinned from idempotents read off a scan of every subgroup and
    # divided by |N_G(H)| one coefficient at a time, and from an inverse
    # lowered through reduced fractions
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("derivations", "S4", "--ring", "Z"),
     "d43ba6a9c6867238318739642c0813da56bc22a8341ab0ca06ca1ee6aeb92cba"),
    (("derivations", "prod(C2,D8)", "--ring", "Z"),
     "5ff36f13d532bc92ad560bc1cd98d298661de36ede3537ffc33abaf9d11f0c4f"),
    (("derivations", "prod(S3,S3)", "--ring", "Q"),
     "77870ffaea69bd959e455138139dd99e2a80fec98161bc8af4c631b9642978fe"),
    (("derivations", "S4", "--ring", "Z/5"),
     "f99266769d8c16b1843d44e5ffa8f8efd26b482ed95815a5b8648df158e29f45"),
    (("derivations", "prod(C2,prod(C2,C2))", "--ring", "Z/3"),
     "c0d8ca653c49c0012fa4e1cfedb010157bdc719b77baa31d06c37ea5d0467e05"),
    (("derivations", "C1", "--ring", "Z/2"),
     "4b083c7bfde8d9ddb1287efa35f9edbea2b51dd4febcb71288afadd6d2759501"),
    (("derivations", "D10", "--ring", "Z/3"),
     "4d8ad4143f47a85d25bb364626a540e06e83c7ec19dad1e707aefebce5cea3d6"),
])
def test_zero_derivations_json_bytes(capsys, argv, digest):
    # pinned from the Leibniz system eliminated over Q (for Z and Q) and
    # mod m, before a unit |G| was decided by the Casimir element alone
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("gamma", "S5", "--ring", "Q", "--invert"),
     "5cca3f15d38fe16b8291f4ea0ef834133759de04d4850eb54d8a7ee4267fd5d1"),
    (("gamma", "perm:(1 2 3 4 5);(1 2 3)", "--ring", "Z/7", "--invert"),
     "52f3165ebf79c91cc389c07c21675d798304d3c0c5553b9d8a7a56c003a2fec4"),
    (("separable", "functor", "prod(S3,S3)", "--ring", "Q"),
     "22642bb7c4b42512154e2a7068985f74f9a6ad0b406b1238c9cf18d24267dbc5"),
    (("separable", "functor", "S4", "--ring", "Z/2"),
     "ceca8f999e20ad5024919c2375746c9393c45427f5eb90cd131c2eb692cd6dc3"),
    (("mackey-check", "Q8"),
     "bef53b1715ab8106aa75c20e88ae6b73c7a7f58a3e7eac8a58791d1126a0030e"),
    (("mackey-check", "prod(C3,C3)"),
     "fab5da4c005cfb686a9b632f48e168d46631012a37391c2692de11fd3e731017"),
])
def test_gamma_and_diagonal_json_bytes(capsys, argv, digest):
    # pinned from gamma decomposed off the conjugation G-set and from
    # diagonal induction built as a G x G-set, before both were read off
    # the subgroup lattice
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
    # the whole stderr line, so neither a code nor a message can drift
    bound = ("E_RESOURCE: G x G computations are capped at base order 15, "
             "since |G x G| <= 255")
    cases = [
        (("tom", "nope", "--json"), "E_PARSE: cannot parse group spec 'nope'"),
        (("tom", "prod(S5,S3)"),
         "E_ORDER_BOUND: direct product order 720 exceeds bound 255"),
        (("idempotents", "C2", "--ring", "Z"), "E_RING: |G| = 2 is not a unit in Z"),
        (("separable", "ring", "C2", "--ring", "GF(9)"),
         "E_PARSE: unknown ring spec 'GF(9)' (expected Z, Q or Z/<m>)"),
        # the bound on G x G is commutant's alone
        (("commutant", "D16", "--ring", "Q"), bound),
        # nesting deeper than the parser's recursion is a parse error
        (("tom", "prod(C1," * 1200 + "C1" + ")" * 1200),
         "E_PARSE: group spec is nested too deeply"),
        # only ASCII digits are numbers: Unicode digits are parse errors, not
        # internal errors, and are never read as their ASCII counterparts
        (("subgroups", "S\u00b2"), "E_PARSE: cannot parse group spec 'S\u00b2'"),
        (("subgroups", "perm:(1 \u00b2)"),
         "E_PARSE: cycle points must be positive integers: '\u00b2'"),
        (("gamma", "S3", "--ring", "Z/\u00b3"),
         "E_PARSE: bad modulus in ring spec 'Z/\u00b3'"),
        (("tom", "C\u0663"), "E_PARSE: cannot parse group spec 'C\u0663'"),
        (("subgroups", "perm:(1 \u0662)"),
         "E_PARSE: cycle points must be positive integers: '\u0662'"),
        (("gamma", "S3", "--ring", "Z/\u0663"),
         "E_PARSE: bad modulus in ring spec 'Z/\u0663'"),
    ]
    for argv, line in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", line + "\n"), argv


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



_EXPECTED = ("expected one of: group info, subgroups, tom, idempotents, gamma, "
             "mackey-check, separable, commutant, derivations")


@pytest.mark.parametrize("argv,line", [
    ((), f"no command given; {_EXPECTED}"),
    (("--json",), f"no command given; {_EXPECTED}"),
    (("frob", "C2"), f"unknown command 'frob'; {_EXPECTED}"),
    (("group", "S3"), f"unknown command 'group'; {_EXPECTED}"),
    (("tom",), "tom: missing <spec> (usage: tom <spec>)"),
    (("group", "info", "--json"),
     "group info: missing <spec> (usage: group info <spec>)"),
    (("separable", "ring", "--ring", "Q"),
     "separable: missing <spec> "
     "(usage: separable ring|functor <spec> --ring R)"),
    (("tom", "C2", "C3"), "tom: unexpected argument 'C3' (usage: tom <spec>)"),
    (("separable", "ring", "C2", "C2", "--ring", "Q"),
     "separable: unexpected argument 'C2' "
     "(usage: separable ring|functor <spec> --ring R)"),
    (("separable", "both", "C2", "--ring", "Q"),
     "separable: what must be ring or functor, not 'both'"),
    (("separable", "C2", "--ring", "Q"),
     "separable: missing <spec> "
     "(usage: separable ring|functor <spec> --ring R)"),
    (("idempotents", "C2"),
     "idempotents needs --ring (usage: idempotents <spec> --ring R)"),
    (("tom", "C2", "--ring", "Q"), "tom takes no --ring (usage: tom <spec>)"),
    (("tom", "C2", "--ring=Q"), "tom takes no --ring (usage: tom <spec>)"),
    (("gamma", "C2", "--ring"), "--ring needs a value"),
    (("tom", "C2", "--max-order"), "--max-order needs a value"),
    (("tom", "C2", "--invert"), "--invert applies to gamma only, not tom"),
    (("tom", "C2", "--frob"), "unknown option '--frob'"),
    # argparse's prefix abbreviations are gone
    (("tom", "C2", "--js"), "unknown option '--js'"),
    (("tom", "C2", "--json=1"), "unknown option '--json=1'"),
    (("tom", "-x", "C2"), "unknown option '-x'"),
])
def test_argv_errors_are_one_e_parse_line(capsys, argv, line):
    # a bad command line is an error like any other: one E_PARSE line on
    # stderr and exit code 2, returned rather than raised as SystemExit
    assert run_cli(capsys, *argv) == (2, "", f"E_PARSE: {line}\n")


_SWEEP_GROUPS = (("C2", "Z/5"), ("C3", "Q"), ("S3", "Z/5"), ("prod(C2,C2)", "Q"))
# (command words, positionals before the spec, takes --ring, extra flags)
_SWEEP_SHAPES = (
    (("group", "info"), (), False, ()), (("subgroups",), (), False, ()),
    (("tom",), (), False, ()), (("mackey-check",), (), False, ()),
    (("idempotents",), (), True, ()), (("gamma",), (), True, ()),
    (("gamma",), (), True, ("--invert",)),
    (("separable",), ("ring",), True, ()),
    (("separable",), ("functor",), True, ()),
    (("commutant",), (), True, ()), (("derivations",), (), True, ()),
)


def _argv_sweep():
    """Every command shape on four groups, text and --json, with the flags
    after, before and between the words, --ring both ways, --max-order=24
    and --json given twice."""
    for gi, (spec, ring) in enumerate(_SWEEP_GROUPS):
        for si, (words, what, takes_ring, extra) in enumerate(_SWEEP_SHAPES):
            for as_json in (False, True):
                k = gi + si + as_json
                local = [*((f"--ring={ring}",) if k % 2 else ("--ring", ring))
                         * takes_ring, *extra]
                shared = (["--json"] * as_json * (1 + (k % 4 == 3))
                          + ["--max-order=24"] * (k % 5 == 1))
                pos = [*what, spec]
                if k % 3 == 0:
                    yield [*words, *pos, *local, *shared]
                elif k % 3 == 1:
                    yield [*shared, *words, *local, *pos]
                else:
                    yield [*shared[:1], *words, *pos[:-1], *local, *shared[1:],
                           pos[-1]]


def test_valid_argv_sweep_digest(capsys):
    # one sha256 over (argv, exit code, stdout) of the sweep, pinned from
    # the argparse command line this parser replaced
    h = hashlib.sha256()
    for argv in _argv_sweep():
        code, out, err = run_cli(capsys, *argv)
        assert err == "", argv
        h.update(json.dumps([argv, code, out]).encode())
    assert h.hexdigest() == ("34edaf8948ba38c86893828bac65ad42"
                             "557c0970e37614fcbf997e565bc83555")


@pytest.mark.parametrize("argv", [
    ("-h",), ("--help",), ("tom", "--help"), ("--json", "-h", "tom", "C2"),
    ("separable", "ring", "C2", "--ring", "Q", "-h"), ("frob", "--help"),
])
def test_help_names_every_command(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: burnside ")
    for key in burnside.cli.COMMANDS:
        assert f"\n  {key} " in out, key


def test_import_leaves_argparse_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import burnside.cli, sys; print('argparse' in sys.modules)"],
        capture_output=True, env=env, check=True).stdout
    assert out == b"False\n"


@pytest.mark.parametrize("argv", [("tom", "C2"), ("tom", "prod(D8,D8)", "--json"),
                                  ("--help",)])
def test_closed_stdout_exits_1_silently(argv):
    # the reader is gone before anything is written: that is no E_INTERNAL
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "burnside", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


_FULL_DISK = """
import errno, io, sys
from burnside.cli import main

class Full(io.RawIOBase):  # a device with no room left
    def writable(self):
        return True

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

sys.stdout = io.TextIOWrapper(io.BufferedWriter(Full()), encoding="utf-8")
raise SystemExit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [("tom", "C2"), ("tom", "prod(D8,D8)", "--json"),
                                  ("--help",)])
def test_failed_stdout_write_is_one_e_io_line(argv):
    # no E_INTERNAL, and no "Exception ignored" when the interpreter exits
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _FULL_DISK, *argv],
                          capture_output=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.decode() == (f"E_IO: cannot write to stdout: [Errno "
                                    f"{errno.ENOSPC}] No space left on device\n")


def test_tom_of_a_product_checks_nothing_the_package_built(capsys, monkeypatch):
    # the spec builders, direct_product, the lattice and the centralizers
    # build through _built, so the checks meant for outside input never run
    import burnside.groups
    from burnside.groups import Group, Subgroup, build_group

    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Subgroup, "_check", counted("_check", Subgroup._check))
    monkeypatch.setattr(Group, "_validate_shape",
                        counted("_validate_shape", Group._validate_shape))
    acts = burnside.groups.acts_compatibly
    for mod in [m for k, m in sys.modules.items() if k.startswith("burnside")]:
        if getattr(mod, "acts_compatibly", None) is acts:
            monkeypatch.setattr(mod, "acts_compatibly", counted("acts", acts))
    for argv in (("tom", "prod(D8,D8)"), ("subgroups", "prod(S3,S3)"),
                 ("group", "info", "prod(D8,C3)"), ("mackey-check", "D12"),
                 ("separable", "functor", "prod(S3,S3)", "--ring", "Q")):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err, calls) == (0, "", []), argv
    # the counters are live: outside input is still checked
    Subgroup(Group(build_group("S3").mul_table), [0])
    assert sorted(calls) == ["_check", "_validate_shape", "acts"]


TEXT_ARGV = (
    "group info S3", "subgroups D8", "tom S3", "idempotents S3 --ring Q",
    "gamma S3 --ring Q --invert", "gamma S3 --ring Z/6 --invert",
    "mackey-check prod(C2,C2)", "separable ring S3 --ring Z",
    "separable ring S3 --ring Z/5", "separable functor S3 --ring Z/6",
    "separable functor S3 --ring Q", "commutant C3 --ring Q",
    "derivations C2 --ring Z/2",
)


def test_text_output_bytes(capsys):
    # one command of each kind, both verdicts where the ring decides them;
    # pinned before the commands shared one parse-and-emit path
    out = []
    for line in TEXT_ARGV:
        code, text, err = run_cli(capsys, *line.split())
        assert code == 0 and err == "", line
        out.append(text)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == ("d15c749fb6f0da23bd2c7fb5339ef599"
                      "f87b940df410dc54da44a9a470d17ccd")


# the gamma queries, then one line of each command kind: no command builds
# a G-set, so neither the algebra nor mackey-check's left side needs one
@pytest.mark.parametrize("argv", [
    ("gamma", "S5", "--ring", "Q", "--invert"),
    ("separable", "functor", "prod(S3,S3)", "--ring", "Q"),
    ("separable", "functor", "S4", "--ring", "Z/2"),
    *(line.split() for line in TEXT_ARGV),
    ("mackey-check", "S5"),
])
def test_gamma_commands_build_no_gset(capsys, monkeypatch, argv):
    import burnside.gsets

    monkeypatch.setattr(burnside.gsets.GSet, "__init__", _refuse)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv,digest", [
    ("tom S4",
     "23f4d3266f3656dc44e527cd77de2b098a7467195fbbdf99f8b929555bfe588e"),
    ("subgroups prod(S3,S3)",
     "52a7ad191b29db479d0f670ff8637d609d3b8b3acca46fc8e8533f54fdfb52c8"),
])
def test_lazy_table_text_bytes(capsys, argv, digest):
    # the text lines of tom and subgroups are built only for text output;
    # the digests are those of the eagerly built lines they replaced
    code, text, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Well-formed specs, and specs broken in one place: a bad atom or cycle, or
# a prod( with one argument or no closing parenthesis.  A well-formed spec
# has at most two factors besides C1, of order at most 6, so no query
# reaches the groups of order 16 to 24 (C2 x D8, say) that take minutes.
_ATOMS = st.sampled_from(("C1", "C2", "C3", "C4", "S3", " C2 "))
_BAD_ATOMS = st.sampled_from(("D2", "D5", "C0", "D3", "S6", "Q9", "C\u0663",
                              "S\u00b2", "D", "", "nope"))


def _perm(points, min_size, cycles):
    cycle = st.lists(st.sampled_from(points), min_size=min_size, max_size=4,
                     unique=min_size > 0).map(lambda pts: "(" + " ".join(pts) + ")")
    gens = st.lists(st.lists(cycle, min_size=1, max_size=cycles).map("".join),
                    min_size=1, max_size=2)
    return gens.map(lambda g: "perm:" + ";".join(g))


def _prod(left, right):
    return st.tuples(left, right).map(lambda t: f"prod({t[0]},{t[1]})")


_GOOD_SPEC = st.recursive(
    _ATOMS | _perm("123", 2, 1),
    lambda inner: _prod(inner, inner) | inner.map(lambda x: f"prod(C1,{x})"),
    max_leaves=2)
_BAD_LEAF = _BAD_ATOMS | _perm(("1", "2", "0", "\u0662", "x", "-1"), 0, 2)
_SPEC = st.one_of(
    _GOOD_SPEC, st.sampled_from(("Q8", "D8", "perm:(1 2 3 4);(1 2)")),
    _BAD_LEAF, _prod(_GOOD_SPEC, _BAD_LEAF),
    _GOOD_SPEC.map(lambda x: f"prod({x}"), _GOOD_SPEC.map(lambda x: f"prod({x})"))
_RINGS = st.sampled_from(("Z", "Q", "Z/2", "Z/3", "Z/6", "Z/1", "Z/0", "Z/-2",
                          "Z/\u0663", "Z/\u00b2", "GF(9)", "", "z"))
# (words before the spec, takes --ring, words after the ring)
_COMMANDS = (
    (("group", "info"), False, ()), (("subgroups",), False, ()),
    (("tom",), False, ()), (("mackey-check",), False, ()),
    (("idempotents",), True, ()), (("gamma",), True, ()),
    (("gamma",), True, ("--invert",)), (("separable", "ring"), True, ()),
    (("separable", "functor"), True, ()), (("commutant",), True, ()),
    (("derivations",), True, ()),
)


# how the argv is broken, if at all: the spec dropped, one word too many,
# or an option no command knows
_BROKEN = st.sampled_from((None, None, "drop spec", "extra word", "unknown flag"))


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(_COMMANDS), spec=_SPEC,
       ring=_RINGS, as_json=st.booleans(), ring_eq=st.booleans(),
       slots=st.lists(st.integers(0, 4), min_size=5, max_size=5),
       broken=_BROKEN)
def test_fuzz_exit_codes(capsys, command, spec, ring, as_json, ring_eq, slots,
                         broken):
    head, takes_ring, tail = command
    words = [*head, *(() if broken == "drop spec" else (spec,)),
             *(("C2",) if broken == "extra word" else ())]
    options = [((f"--ring={ring}",) if ring_eq else ("--ring", ring)) * takes_ring,
               tail, ("--max-order", "24"), ("--json",) * as_json,
               ("--frob",) * (broken == "unknown flag")]
    # each option goes in whole before the word at its slot (or at the
    # end), so flags land before, between and after the words
    argv = []
    for i in range(len(words) + 1):
        for option, slot in zip(options, slots):
            if min(slot, len(words)) == i:
                argv += option
        argv += words[i:i + 1]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2), argv
    assert "E_INTERNAL" not in err, (argv, err)
    if broken:
        assert code == 2 and err.startswith("E_PARSE: "), argv
    if code == 2:
        assert out == "" and err.startswith("E_") and err.count("\n") == 1, argv
        return
    assert err == "", argv
    if as_json:
        json.loads(out)
    else:
        assert out, argv


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


_JSON_KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
                | st.text() | st.sampled_from(("", "\"\\\n\t\x00", "é中\U0001f600"))
                | st.lists(st.integers() | st.booleans(), max_size=5))
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(_JSON_KEYS, kids, max_size=5)),
    max_leaves=30)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(payload=_JSON_PAYLOADS)
def test_indented_json_matches_json_dumps(payload):
    # --json output is written by hand around the C encoder; the layout
    # must stay that of the pure-Python indented encoder, byte for byte
    expected = json.dumps(payload, separators=(",", ": "), indent=2)
    assert burnside.cli._indented(payload) == expected
