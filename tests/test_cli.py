import argparse
import json
import re
from pathlib import Path

import pytest

from orbifrob import cli
from orbifrob import cocycles as cocy
from orbifrob import frobenius as frob
from orbifrob import gfrob
from orbifrob import grading
from orbifrob import groups
from orbifrob.groups import symmetric_group

from conftest import cyclic_table, swapped_cyclic_table

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_verify_good_fixture_exits_zero(capsys):
    assert run("verify", FIXTURES / "dual_numbers.json") == 0
    assert "all checks pass" in capsys.readouterr().out


def test_verify_broken_invariance_exits_one(capsys):
    assert run("verify", FIXTURES / "dual_numbers_broken_invariance.json") == 1
    out = capsys.readouterr().out
    assert "invariance" in out and "FAIL" in out


def test_verify_broken_metric_names_axiom_d(capsys):
    assert run("verify", FIXTURES / "ks3_broken_metric.json") == 1
    out = capsys.readouterr().out
    assert "d (invariance of the metric): FAIL" in out


def test_verify_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("verify", bad) == 2
    assert run("verify", tmp_path / "missing.json") == 2
    # a directory and a 100,000-deep array are unusable input too, on every reader
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    for path in (tmp_path, deep):
        for argv in (["verify", path], ["export", path], ["invariants", path],
                     ["symprod", path, "--n", 2]):
            assert run(*argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert run("export", FIXTURES / "dual_numbers.json", "--out", tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")


def test_verify_zero_denominator_exits_two(tmp_path, capsys):
    doc = json.loads((FIXTURES / "dual_numbers.json").read_text())
    doc["metric"][0][2] = "1/0"
    bad = tmp_path / "zero_den.json"
    bad.write_text(json.dumps(doc))
    assert run("verify", bad) == 2
    err = capsys.readouterr().err
    assert err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("value", ["1_0", "\u0661", "1/\u0662", "1 / 1"])
def test_coefficients_outside_the_grammar_exit_two(tmp_path, capsys, value):
    # int() reads "1_0" as 10 and an Arabic-Indic digit as its value: verify
    # used to pass a base whose metric values were "1_0", and export wrote them
    # back as "10"; a value outside [+-]?[0-9]+(/[+-]?[0-9]+)? is refused, by name
    def edit(doc):
        for entry in doc["metric"]:
            entry[2] = value

    path = _variant(tmp_path, "dual_numbers.json", edit)
    for command in ("verify", "export"):
        assert run(command, path) == 2
        assert capsys.readouterr().err == f"error: {value!r} is not an exact rational p or p/q\n"
    # an element's leading coefficient is read with ASCII digits only, too
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    capsys.readouterr()
    assert run("mult", sp2, "\u0661x@(1 2)", "1@(1 2)") == 2
    assert "unknown basis label '\u0661x'" in capsys.readouterr().err


def _variant(tmp_path, fixture, edit):
    doc = json.loads((FIXTURES / fixture).read_text())
    edit(doc)
    path = tmp_path / f"variant_{Path(fixture).name}"
    path.write_text(json.dumps(doc))
    return path


def test_verify_out_of_range_action_index_exits_two(tmp_path, capsys):
    path = _variant(tmp_path, "ks3.json", lambda doc: doc["action"][0].__setitem__(2, 7))
    assert run("verify", path) == 2
    assert capsys.readouterr().err == "error: action index 7 is not in range(1)\n"


def test_verify_negative_sector_dim_exits_two(tmp_path, capsys):
    path = _variant(tmp_path, "ks3.json", lambda doc: doc["sectors"][1].__setitem__("dim", -1))
    assert run("verify", path) == 2
    assert capsys.readouterr().err == "error: sector 1: dim -1 is not an integer >= 0\n"


@pytest.mark.parametrize("sector", [0, 1])   # the identity sector and another
def test_huge_sector_dim_exits_two_before_any_list_is_made(tmp_path, capsys, sector):
    # used to escape as an OverflowError from a list of dim entries
    path = _variant(tmp_path, "ks3.json",
                    lambda doc: doc["sectors"][sector].__setitem__("dim", 10 ** 20))
    for command in ("verify", "export"):
        assert run(command, path) == 2
        assert capsys.readouterr().err == \
            f"error: the sectors hold {10 ** 20 + 5} basis vectors in all (budget 50000000)\n"


@pytest.mark.parametrize("n,message", [
    (8, "sector count does not match the group order"),
    (10 ** 30, "sector count does not match the group order"),
    ("3", "symmetric group degree '3' is not an integer >= 1"),
])
def test_verify_bad_symmetric_degree_exits_two(tmp_path, capsys, n, message):
    # n = 8 used to build all (8!)^2 table entries of S_8 before counting the 6 sectors
    path = _variant(tmp_path, "ks3.json", lambda doc: doc["group"].__setitem__("n", n))
    assert run("verify", path) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, fixture", [
    ("verify", "ks3.json"), ("export", "ks3.json"), ("invariants", "ks3.json"),
    ("verify", "sn3_sign_cocycle.json"), ("export", "sn3_sign_cocycle.json"),
])
def test_group_entry_that_is_not_an_object_exits_two(tmp_path, capsys, command, fixture):
    # used to end in an AttributeError traceback ('str' object has no attribute 'get')
    path = _variant(tmp_path, fixture, lambda doc: doc.__setitem__("group", "S3"))
    assert run(command, path) == 2
    assert capsys.readouterr().err == "error: group entry 'S3' is not an object\n"


def test_verify_negative_index_exits_two(tmp_path, capsys):
    # a negative index used to wrap round to the last entry and pass silently
    path = _variant(tmp_path, "ks3.json", lambda doc: doc["action"][0].__setitem__(2, -1))
    assert run("verify", path) == 2
    assert capsys.readouterr().err == "error: action index -1 is not in range(1)\n"


def test_verify_out_of_range_base_metric_index_exits_two(tmp_path, capsys):
    # used to end in an IndexError traceback
    path = _variant(tmp_path, "dual_numbers.json", lambda doc: doc["metric"][0].__setitem__(0, 5))
    assert run("verify", path) == 2
    assert capsys.readouterr().err == "error: metric index 5 is not in range(2)\n"


def test_verify_negative_base_structure_index_exits_two(tmp_path, capsys):
    # k = -1 used to wrap round to the last basis element and fail as a grading law
    path = _variant(tmp_path, "dual_numbers.json", lambda doc: doc["structure"][0].__setitem__(2, -1))
    assert run("verify", path) == 2
    assert capsys.readouterr().err == "error: structure index -1 is not in range(2)\n"


@pytest.mark.parametrize("dim", ["2", 2.0, True, -1])
def test_verify_untyped_base_dim_exits_two(tmp_path, capsys, dim):
    # "2" with two basis entries used to fail as "declared dim 2 but 2 basis entries"
    path = _variant(tmp_path, "dual_numbers.json", lambda doc: doc.__setitem__("dim", dim))
    for command in ("verify", "export"):
        assert run(command, path) == 2
        assert capsys.readouterr().err == f"error: dim {dim!r} is not an integer >= 0\n"


@pytest.mark.parametrize("fixture, field, message", [
    ("ks3.json", "product", "duplicate product entry at [0, 0, 0, 0, 0]"),
    ("ks3.json", "action", "duplicate action entry at [0, 0, 0, 0]"),
    ("ks3.json", "metric", "duplicate metric entry at [0, 0, 0]"),
    ("ks3.json", "unit", "duplicate unit entry at [0]"),
    ("dual_numbers.json", "metric", "duplicate metric entry at [0, 1]"),
    ("dual_numbers.json", "structure", "duplicate structure entry at [0, 0, 0]"),
    ("sn3_sign_cocycle.json", "values", "duplicate values entry at ['(2 3)', '(2 3)']"),
])
def test_repeated_entry_exits_two(tmp_path, capsys, fixture, field, message):
    # a repeated entry used to keep its last value silently: verify exited 1 on the
    # repeated ks3 product entry, and export re-emitted the "7"
    path = _variant(tmp_path, fixture, lambda doc: doc[field].append(doc[field][0][:-1] + ["7"]))
    for command in ("verify", "export"):
        assert run(command, path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _unreduced_ks3(doc):
    for field in ("product", "action", "metric", "unit"):
        doc[field][0][-1] = "2/2"


def _unreduced_dual_numbers(doc):
    doc["structure"][0][-1] = "2/2"
    doc["structure"].append([1, 1, 0, "0"])
    doc["metric"].append([0, 0, "0/3"])


@pytest.mark.parametrize("fixture, edit", [("ks3.json", _unreduced_ks3),
                                           ("dual_numbers.json", _unreduced_dual_numbers)],
                         ids=["ks3", "dual_numbers"])
def test_unreduced_and_zero_entries_normalize(tmp_path, capsys, fixture, edit):
    # "2/2" reads as 1 and a zero entry is not stored, so export gives the fixture's bytes
    assert run("export", FIXTURES / fixture) == 0
    expected = capsys.readouterr().out
    assert run("export", _variant(tmp_path, fixture, edit)) == 0
    assert capsys.readouterr().out == expected


@pytest.fixture
def sym2_hilbert(tmp_path):
    """Sym^2(Q[x]/x^2) twisted by lambda = -1, as a document."""
    path = tmp_path / "sym2_hilbert.json"
    assert run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--lambda", "-1",
               "--out", path) == 0
    return path


@pytest.mark.parametrize("field, value, message", [
    ("degree", 2.5, "degree 2.5 is not an integer"),
    ("degree", True, "degree True is not an integer"),
    ("degree", "2", "degree '2' is not an integer"),
    ("parity", 2, "parity 2 is not 0 or 1"),
    ("parity", True, "parity True is not 0 or 1"),
    ("label", 7, "basis label 7 is not a string"),
    ("label", "1", "basis labels ['1', '1'] are not distinct"),
])
def test_base_basis_data_must_be_typed(tmp_path, capsys, field, value, message):
    # 2.5, true and "2" used to pass verify, and export wrote them back as 2, 1 and 2;
    # a repeated label passed too, and symprod wrote sectors whose labels all repeated
    path = _variant(tmp_path, "dual_numbers.json", lambda doc: doc["basis"][1].__setitem__(field, value))
    for command in ("verify", "export"):
        assert run(command, path) == 2
        assert capsys.readouterr().err == f"error: Q[x]/(x^2): {message}\n"


@pytest.mark.parametrize("field, value, message", [
    ("degrees", "2", "degree '2' is not an integer"),
    ("degrees", 2.5, "degree 2.5 is not an integer"),
    ("parities", -1, "parity -1 is not 0 or 1"),
    ("basis", None, "basis label None is not a string"),
    ("basis", "x", "basis labels ['x', 'x'] are not distinct"),
])
def test_sector_basis_data_must_be_typed(tmp_path, capsys, sym2_hilbert, field, value, message):
    # a sector degree "2" used to pass verify, then fail invariants --poincare on comparing
    # an int with a str; 2.5 reached the exact engine as a float; of two equal labels,
    # mult read the first
    path = _variant(tmp_path, sym2_hilbert, lambda doc: doc["sectors"][1][field].__setitem__(0, value))
    capsys.readouterr()
    for argv in (("verify",), ("invariants", "--poincare", "--shift", "standard"), ("export",)):
        assert run(argv[0], path, *argv[1:]) == 2
        assert capsys.readouterr().err == \
            f"error: sym2(Q[x]/(x^2)) lambda=-1: sector (1 2): {message}\n"


@pytest.mark.parametrize("fixture, field, position", [
    ("dual_numbers.json", "unit", (0,)),
    ("dual_numbers.json", "metric", (0, 2)),
    ("dual_numbers.json", "structure", (0, 3)),
    ("ks3.json", "product", (0, 5)),
    ("ks3.json", "action", (0, 4)),
    ("ks3.json", "metric", (0, 3)),
    ("ks3.json", "character", (0,)),
    ("ks3.json", "unit", (0, 1)),
    ("sn3_sign_cocycle.json", "values", (0, 2)),
])
def test_boolean_coefficients_exit_two(tmp_path, capsys, fixture, field, position):
    # a JSON true used to be read as the int 1: verify passed, and export wrote
    # "True", which verify then refused as no integer
    def edit(doc):
        *parents, last = position
        node = doc[field]
        for key in parents:
            node = node[key]
        node[last] = True

    path = _variant(tmp_path, fixture, edit)
    for command in ("verify", "export"):
        assert run(command, path) == 2
        assert capsys.readouterr().err == "error: cannot interpret True as an exact rational\n"


def test_document_names_must_be_strings(tmp_path, capsys, sym2_hilbert):
    # a base named [1, 2] used to verify, and symprod wrote it out as "sym2([1, 2])"
    base = _variant(tmp_path, "dual_numbers.json", lambda doc: doc.__setitem__("name", [1, 2]))
    for argv in (("verify", base), ("export", base), ("symprod", base, "--n", 2)):
        assert run(*argv) == 2
        assert capsys.readouterr().err == "error: name [1, 2] is not a string\n"
    graded = _variant(tmp_path, sym2_hilbert, lambda doc: doc.__setitem__("name", {"x": 1}))
    capsys.readouterr()
    for argv in (("verify",), ("invariants", "--poincare", "--shift", "standard"), ("export",)):
        assert run(argv[0], graded, *argv[1:]) == 2
        assert capsys.readouterr().err == "error: name {'x': 1} is not a string\n"


@pytest.mark.parametrize("n, message", [
    (8, "a cocycle on S_8 holds at least 1625702400 values (budget 50000000)"),
    (10 ** 30, f"a cocycle on S_{10 ** 30} holds at least 1625702400 values (budget 50000000)"),
    ("3", "symmetric group degree '3' is not an integer >= 1"),
    (0, "symmetric group degree 0 is not an integer >= 1"),
])
def test_cocycle_document_degree_is_guarded(tmp_path, capsys, n, message):
    # n = 8 used to build the 40320^2 group table on load
    path = _variant(tmp_path, "sn3_sign_cocycle.json",
                    lambda doc: doc.update(group={"type": "symmetric", "n": n}, values=[]))
    for command in ("verify", "export"):
        assert run(command, path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_cocycle_law_scan_respects_the_budget(tmp_path, capsys):
    # S_4 has 24^3 = 13824 triples; the scan is refused before it starts
    path = _variant(tmp_path, "sn3_sign_cocycle.json",
                    lambda doc: doc.update(group={"type": "symmetric", "n": 4}, values=[]))
    assert run("verify", path, "--budget", 1000) == 2
    assert capsys.readouterr().err == \
        "error: cocycle check would touch ~13824 group triples (budget 1000)\n"
    assert run("verify", path) == 0


def test_cocycle_verify_refuses_before_building_the_group(tmp_path, capsys, monkeypatch):
    # S_7 passes the load guard ((7!)^2 values) but not the 5040^3-triple scan
    calls = []
    for module in (cocy, groups):
        original = module.symmetric_group
        monkeypatch.setattr(module, "symmetric_group",
                            lambda n, *rest, f=original: calls.append(n) or f(n, *rest))
    path = _variant(tmp_path, "sn3_sign_cocycle.json",
                    lambda doc: doc.update(group={"type": "symmetric", "n": 7}, values=[]))
    assert run("verify", path) == 2
    assert capsys.readouterr().err == \
        "error: cocycle check would touch ~128024064000 group triples (budget 50000000)\n"
    assert calls == []


@pytest.mark.parametrize("entry", [True, 1.0])
def test_group_table_entries_must_be_integers(tmp_path, capsys, entry):
    # true used to verify as element 1, and 1.0 ended in a tuple-index error
    path = tmp_path / "table_cocycle.json"
    path.write_text(json.dumps({"group": {"type": "table", "labels": ["e", "a"],
                                          "table": [[0, 1], [entry, 0]]}, "values": []}))
    assert run("verify", path) == 2
    assert capsys.readouterr().err == \
        f"error: multiplication table entry {entry!r} is not an integer\n"


@pytest.mark.parametrize("labels", [["e", "x", "x"], ["e", 1, "y"], ["e", ["x"], "y"], "exy"])
def test_group_labels_must_be_distinct_strings(tmp_path, capsys, labels):
    # ["e", "x", "x"] used to verify, and to name two elements "x" in a witness;
    # a cocycle on it was written out as a document that export refused; "exy"
    # was read as ["e", "x", "y"], and export rewrote it so
    path = tmp_path / "z3_cocycle.json"
    path.write_text(json.dumps({"group": {"type": "table", "labels": labels, "table": cyclic_table(3)},
                                "values": []}))
    for command in ("verify", "export"):
        assert run(command, path) == 2
        assert capsys.readouterr().err == \
            f"error: group labels {labels!r} are not a list of distinct strings\n"


def test_unknown_group_label_is_printed_without_quotes(tmp_path, capsys):
    # a KeyError used to print its message in quotes: error: "no group element ..."
    path = _variant(tmp_path, "sn3_sign_cocycle.json", lambda doc: doc["values"][0].__setitem__(0, "zz"))
    for command in ("verify", "export"):
        assert run(command, path) == 2
        assert capsys.readouterr().err == "error: no group element labelled 'zz'\n"


_DUAL_NUMBERS = json.loads((FIXTURES / "dual_numbers.json").read_text())


@pytest.mark.parametrize("doc, key", [
    ({"values": []}, "group"),
    ({k: v for k, v in _DUAL_NUMBERS.items() if k != "unit"}, "unit"),
])
def test_missing_required_key_is_named(tmp_path, capsys, doc, key):
    # the one error line says the key is missing, not just its repr
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run("verify", path) == 2
    assert capsys.readouterr().err == f"error: missing required key '{key}'\n"


def _table_cocycle(path, table):
    """A cocycle document with every value 1 on the group of ``table``."""
    labels = [str(i) for i in range(len(table))]
    path.write_text(json.dumps({"group": {"type": "table", "labels": labels, "table": table},
                                "values": []}))
    return path


def test_verify_refuses_a_nonassociative_table_past_the_order_of_s5(tmp_path, capsys):
    # a Latin square with an identity used to pass as a group past order 200
    path = _table_cocycle(tmp_path / "z202_swapped.json", swapped_cyclic_table(202))
    assert run("verify", path) == 2
    assert capsys.readouterr().err == "error: table is not associative at (1, 1, 2)\n"


def test_twist_refuses_an_oversized_cocycle_before_building_its_group(tmp_path, capsys,
                                                                      sym2_hilbert):
    # 370^3 group triples pass the budget that verify applies to the same document
    path = _table_cocycle(tmp_path / "z370.json", cyclic_table(370))
    message = "error: cocycle check would touch ~50653000 group triples (budget 50000000)\n"
    assert run("twist", sym2_hilbert, "--cocycle", path) == 2
    assert capsys.readouterr().err == message
    assert run("verify", path) == 2
    assert capsys.readouterr().err == message


def test_twist_refuses_an_oversized_lambda_scan(tmp_path, capsys):
    # S_6 has 720^3 group triples; verify refuses the same scan from its budget
    path = tmp_path / "s6.json"
    path.write_text(json.dumps({"group": {"type": "symmetric", "n": 6},
                                "sectors": [{"dim": 0}] * 720, "character": ["1"] * 720}))
    assert run("twist", path, "--lambda", "-1", "--out", tmp_path / "out.json") == 2
    assert capsys.readouterr().err == ("error: cocycle check would touch ~373248000 group "
                                       "triples (budget 50000000)\n")
    assert not (tmp_path / "out.json").exists()


def test_twist_refuses_a_lambda_scan_before_loading_the_document(tmp_path, capsys, monkeypatch):
    # the refusal reads the group entry alone: no sector table, no S_6 cocycle
    calls = []
    monkeypatch.setattr(gfrob, "from_json_dict", lambda doc: calls.append("load"))
    monkeypatch.setattr(cocy, "normalized_sn_cocycle", lambda *args: calls.append("cocycle"))
    path = tmp_path / "s6.json"
    path.write_text(json.dumps({"group": {"type": "symmetric", "n": 6},
                                "sectors": [{"dim": 0}] * 720, "character": ["1"] * 720}))
    assert run("twist", path, "--lambda", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cocycle check would touch ~373248000 group triples "
                            "(budget 50000000)\n")
    assert calls == []


def test_twist_refuses_a_cocycle_scan_before_loading_the_document(tmp_path, capsys, monkeypatch):
    # --cocycle scans on the document's group entry too: no sector table is built
    calls = []
    monkeypatch.setattr(gfrob, "from_json_dict", lambda doc: calls.append("load"))
    path, cocycle = tmp_path / "s6.json", tmp_path / "c6.json"
    path.write_text(json.dumps({"group": {"type": "symmetric", "n": 6},
                                "sectors": [{"dim": 0}] * 720, "character": ["1"] * 720}))
    cocycle.write_text(json.dumps({"group": {"type": "symmetric", "n": 6}, "values": []}))
    assert run("twist", path, "--cocycle", cocycle) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cocycle check would touch ~373248000 group triples "
                            "(budget 50000000)\n")
    assert calls == []


@pytest.mark.parametrize("kind", ["algebra", "bare group"])
def test_twist_refuses_a_cocycle_file_without_values(tmp_path, capsys, kind):
    # a document with a group entry and no values used to twist by the trivial cocycle
    path = FIXTURES / "ks3.json"
    if kind == "bare group":
        path = tmp_path / "s3_group.json"
        path.write_text(json.dumps({"group": {"type": "symmetric", "n": 3}}))
    assert run("twist", FIXTURES / "ks3.json", "--cocycle", path, "--out", tmp_path / "out.json") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {path} is not a cocycle document\n"
    assert not (tmp_path / "out.json").exists()


def test_twist_refuses_lambda_with_cocycle(capsys):
    # the two flags are alternatives: --lambda used to be dropped in silence
    assert run("twist", FIXTURES / "ks3.json", "--lambda", "1/2",
               "--cocycle", FIXTURES / "sn3_sign_cocycle.json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --lambda and --cocycle are alternatives: pass one\n"


@pytest.mark.parametrize("argv", [["verify"], ["export"], ["invariants"], ["mult", "0@e", "0@e"],
                                  ["twist", "--super"]])
def test_sector_document_on_s8_is_refused_before_building_the_group(tmp_path, capsys, monkeypatch,
                                                                     argv):
    # one empty sector per element of S_8 used to build its 40320^2-entry table
    calls = []
    original = groups.symmetric_group

    def guarded(n):
        calls.append(n)
        if n >= 8:   # a regression fails on the call record, not by exhausting memory
            raise ValueError(f"S_{n} table built")
        return original(n)
    for module in (cocy, groups):
        monkeypatch.setattr(module, "symmetric_group", guarded)
    path = tmp_path / "s8.json"
    path.write_text(json.dumps({"group": {"type": "symmetric", "n": 8},
                                "sectors": [{"dim": 0}] * 40320, "character": ["1"] * 40320}))
    assert run(argv[0], path, *argv[1:]) == 2
    assert calls == []
    assert capsys.readouterr().err == \
        "error: the table of S_8 holds 1625702400 entries (budget 50000000)\n"


def test_verify_writes_its_report_before_printing(tmp_path, capsys):
    # an --out that cannot be written fails the run before any line of the report
    assert run("verify", FIXTURES / "dual_numbers.json", "--out", tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    report = tmp_path / "report.json"
    assert run("verify", FIXTURES / "dual_numbers.json", "--out", report) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "RESULT: all checks pass"
    assert json.loads(report.read_text())


def test_invariants_poincare_builds_the_basis_once(monkeypatch, capsys, sym2_hilbert):
    calls = []
    build = gfrob._invariant_basis

    def counted(X):
        calls.append(X.name)
        return build(X)

    monkeypatch.setattr(gfrob, "_invariant_basis", counted)
    monkeypatch.setattr(grading, "_invariant_basis", counted)
    assert run("invariants", sym2_hilbert, "--poincare", "--shift", "standard") == 0
    assert "poincare: 1 + t + t^2 + t^3 + t^4" in capsys.readouterr().out
    assert len(calls) == 1


def test_symprod_checks_the_base_laws_once(monkeypatch, capsys):
    # the loader only parses: SymmetricProductAlgebra is the one place the base's laws are checked
    calls = []
    verify = frob.FrobeniusAlgebra.verify

    def counted(algebra):
        calls.append(algebra.name)
        return verify(algebra)

    monkeypatch.setattr(frob.FrobeniusAlgebra, "verify", counted)
    assert run("symprod", FIXTURES / "surface4.json", "--n", 2, "--lambda", -1) == 0
    assert len(calls) == 1
    capsys.readouterr()
    assert run("symprod", FIXTURES / "dual_numbers_broken_invariance.json", "--n", 2) == 2
    assert capsys.readouterr().err == (
        "error: Q[x]/(x^2) broken pairing: invariance fails, witness "
        "{'i': '1', 'j': 'x', 'k': 'x', 'eta(ij,k)': '1', 'eta(i,jk)': '0'}\n")


def test_readme_synopsis_matches_the_parser():
    # every flag a subcommand takes is in README's synopsis, and no other
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    synopsis = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
                for line in block.strip().splitlines()}
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {name: {flag for action in parser._actions for flag in action.option_strings}
               - {"-h", "--help"} for name, parser in subparsers.choices.items()}
    assert synopsis == options


def test_verify_cocycle_document():
    assert run("verify", FIXTURES / "sn3_sign_cocycle.json") == 0


def test_verify_machine_report(tmp_path):
    report_path = tmp_path / "report.json"
    assert run("verify", FIXTURES / "ks3.json", "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert {entry["check"] for entry in report} >= {"a", "b", "c", "d", "i", "ii", "iii", "iv"}
    assert all(entry["passed"] for entry in report)


def test_symprod_ground_field_matches_group_ring(tmp_path):
    out = tmp_path / "spk3.json"
    assert run("symprod", FIXTURES / "ground.json", "--n", 3, "--out", out) == 0
    built = gfrob.load(out)
    assert built.math_equal(cocy.twisted_group_ring(symmetric_group(3)))
    # documents agree entry for entry once names and basis labels are set aside
    ring_doc = gfrob.to_json_dict(cocy.twisted_group_ring(symmetric_group(3)))
    built_doc = json.loads(out.read_text())
    for doc in (ring_doc, built_doc):
        doc.pop("name")
        for sector in doc["sectors"]:
            sector.pop("basis")
    assert built_doc == ring_doc


def test_symprod_n1_echoes_base(tmp_path):
    out = tmp_path / "sp1.json"
    assert run("symprod", FIXTURES / "dual_numbers.json", "--n", 1, "--out", out) == 0
    built = gfrob.load(out)
    assert built.sector_dims == [2]


def test_symprod_lambda_scales_metric(tmp_path):
    plain = tmp_path / "plain.json"
    twisted = tmp_path / "twisted.json"
    assert run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", plain) == 0
    assert run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--lambda", "-1",
               "--out", twisted) == 0
    a = gfrob.load(plain)
    b = gfrob.load(twisted)
    tau = a.group.index_of("(1 2)")
    assert b.metric[tau] == {i: {j: -x for j, x in row.items()} for i, row in a.metric[tau].items()}
    assert b.metric[a.group.identity] == a.metric[a.group.identity]


def test_mult_examples(tmp_path, capsys):
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    capsys.readouterr()
    assert run("mult", sp2, "1@(1 2)", "1@(1 2)") == 0
    assert capsys.readouterr().out.strip() == "(1⊗x + x⊗1)@e"

    sp3h = tmp_path / "sp3h.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 3, "--lambda", "-1", "--out", sp3h)
    capsys.readouterr()
    assert run("mult", sp3h, "1@(1 2 3)", "1@(1 2 3)") == 0
    assert capsys.readouterr().out.strip() == "-2x@(1 3 2)"


def test_mult_unit_acts_trivially(tmp_path, capsys):
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    capsys.readouterr()
    assert run("mult", sp2, "1⊗1@e", "3/2x@(1 2)") == 0
    assert capsys.readouterr().out.strip() == "3/2x@(1 2)"


def test_mult_tuple_coefficient_syntax(tmp_path, capsys):
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    capsys.readouterr()
    assert run("mult", sp2, "sector=(1 2); coeffs={(x): 1}", "sector=(1 2); coeffs={(1): 1}") == 0
    out = capsys.readouterr().out.strip()
    assert out == "x⊗x@e"


@pytest.mark.parametrize("coeffs", ["(1,x): 2, (1,x): 3", "1⊗x: 2, (1,x): 3"])
def test_mult_map_form_refuses_a_repeated_label(tmp_path, capsys, coeffs):
    # a map that names one basis element twice is refused, not overwritten;
    # a combination that names it twice sums
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    capsys.readouterr()
    assert run("mult", sp2, f"sector=e; coeffs={{{coeffs}}}", "1⊗1@e") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'1⊗x' is given twice" in err
    assert run("mult", sp2, "2*1⊗x + 3*1⊗x@e", "1⊗1@e") == 0
    assert capsys.readouterr().out.strip() == "5*1⊗x@e"


def test_mult_ascii_tensor_sign_before_a_digit_label(tmp_path, capsys):
    # (x) spells ⊗ also where a label starts with a digit, as parse_element's docstring shows
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    capsys.readouterr()
    assert run("mult", sp2, "(1(x)x + x(x)1)@e", "1(x)1@e") == 0
    assert capsys.readouterr().out.strip() == "(1⊗x + x⊗1)@e"
    assert run("mult", sp2, "2*1(x)x - 3/2 x(x)1@e", "(1,1)@e") == 0
    assert capsys.readouterr().out.strip() == "(2*1⊗x - 3/2x⊗1)@e"
    assert run("mult", sp2, "2(x)@(1 2)", "(1)@(1 2)") == 0   # a one-factor tuple is no ⊗
    assert capsys.readouterr().out.strip() == "2x⊗x@e"


def test_mult_unknown_label_exits_two(tmp_path, capsys):
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    assert run("mult", sp2, "z@(1 2)", "1@(1 2)") == 2


def test_twist_round_trip(tmp_path):
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    once = tmp_path / "once.json"
    back = tmp_path / "back.json"
    assert run("twist", sp2, "--lambda", "2/3", "--out", once) == 0
    assert run("twist", once, "--lambda", "3/2", "--out", back) == 0
    assert gfrob.load(back).math_equal(gfrob.load(sp2))
    # the intermediate file carries non-integral rationals, bit-exactly
    assert "2/3" in once.read_text()
    # super twist applied twice restores as well
    s_once = tmp_path / "s_once.json"
    s_back = tmp_path / "s_back.json"
    assert run("twist", sp2, "--super", "--out", s_once) == 0
    assert run("twist", s_once, "--super", "--out", s_back) == 0
    assert gfrob.load(s_back).math_equal(gfrob.load(sp2))


def test_twist_requires_some_action(tmp_path):
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    assert run("twist", sp2, "--out", tmp_path / "nope.json") == 2


def test_twist_by_cocycle_file(tmp_path):
    sp3 = tmp_path / "sp3.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 3, "--out", sp3)
    out1 = tmp_path / "via_file.json"
    out2 = tmp_path / "via_lambda.json"
    assert run("twist", sp3, "--cocycle", FIXTURES / "sn3_sign_cocycle.json", "--out", out1) == 0
    assert run("twist", sp3, "--lambda", "-1", "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_invariants_output(tmp_path, capsys):
    assert run("invariants", FIXTURES / "ks3.json") == 0
    out = capsys.readouterr().out
    assert "total: 3" in out
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    capsys.readouterr()
    assert run("invariants", sp2, "--poincare", "--shift", "standard") == 0
    out = capsys.readouterr().out
    assert "total: 5" in out
    assert "poincare: 1 + t + t^2 + t^3 + t^4" in out


def test_export_round_trip_bytes(tmp_path):
    sp2 = tmp_path / "sp2.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sp2)
    again = tmp_path / "again.json"
    assert run("export", sp2, "--out", again) == 0
    assert again.read_bytes() == sp2.read_bytes()
    # determinism: rebuilding produces identical bytes
    rebuilt = tmp_path / "rebuilt.json"
    run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", rebuilt)
    assert rebuilt.read_bytes() == sp2.read_bytes()


def test_export_frobenius_and_cocycle_documents(tmp_path):
    out = tmp_path / "alg.json"
    assert run("export", FIXTURES / "dual_numbers.json", "--out", out) == 0
    assert json.loads(out.read_text())["dim"] == 2
    out2 = tmp_path / "cocycle.json"
    assert run("export", FIXTURES / "sn3_sign_cocycle.json", "--out", out2) == 0
    assert "values" in json.loads(out2.read_text())


def test_symprod_refuses_the_budget_before_building_the_group(monkeypatch, capsys):
    # S_7 took 17 s to build before the budget refused Sym^7(surface4)
    from orbifrob import symprod as sp_mod

    def no_group(n):
        raise AssertionError(f"S_{n} was built")

    monkeypatch.setattr(sp_mod, "symmetric_group", no_group)
    monkeypatch.setattr(groups, "symmetric_group", no_group)
    assert run("symprod", FIXTURES / "surface4.json", "--n", 7) == 2
    assert capsys.readouterr().err == ("error: building all product tables costs 365783040000 "
                                       "entries (budget 200000); n <= 3 fits\n")


def test_symprod_prices_a_zero_dimensional_base_per_sector_pair(tmp_path, monkeypatch, capsys):
    # a 0-dimensional base costs one entry per sector pair, (n!)^2: S_6 is refused unbuilt
    from orbifrob import symprod as sp_mod

    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"name": "z", "dim": 0, "basis": [], "unit": [], "metric": [],
                                "structure": []}))
    assert run("symprod", zero, "--n", 5, "--out", tmp_path / "sym5.json") == 0
    assert gfrob.load(tmp_path / "sym5.json").sector_dims == [0] * 120

    def no_group(n):
        raise AssertionError(f"S_{n} was built")

    monkeypatch.setattr(sp_mod, "symmetric_group", no_group)
    monkeypatch.setattr(groups, "symmetric_group", no_group)
    capsys.readouterr()
    assert run("symprod", zero, "--n", 6) == 2
    assert capsys.readouterr().err == ("error: building all product tables costs 518400 "
                                       "entries (budget 200000); n <= 5 fits\n")


def test_invariants_rejects_bad_shift_flags_before_printing(tmp_path, capsys):
    # the class lines and total used to reach stdout before the shifts failed
    ring = tmp_path / "z3_ring.json"
    gfrob.save(cocy.twisted_group_ring(groups.FiniteGroup(["0", "1", "2"], cyclic_table(3))), ring)
    capsys.readouterr()
    assert run("invariants", ring, "--poincare", "--shift", "standard") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert run("invariants", ring, "--poincare") == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["total: 3", "poincare: 3"]


def test_invariants_refuses_shift_without_poincare(tmp_path, capsys):
    # --shift used to be ignored without --poincare: class lines, no poincare line, exit 0
    sym2 = tmp_path / "sym2.json"
    assert run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--out", sym2) == 0
    capsys.readouterr()
    for shift in ("standard", "none"):
        assert run("invariants", sym2, "--shift", shift) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --shift needs --poincare\n"
    assert run("invariants", sym2, "--poincare", "--shift", "none") == 0
    plain = capsys.readouterr().out
    assert run("invariants", sym2, "--poincare") == 0
    assert capsys.readouterr().out == plain and "poincare: " in plain


def test_symprod_budget_exceeded_exits_two(tmp_path, capsys):
    assert run("symprod", FIXTURES / "surface4.json", "--n", 4,
               "--out", tmp_path / "never.json") == 2
    # Sym^3(surface4) has total dim 4*5*6 = 120, Sym^4 840
    assert capsys.readouterr().err == ("error: building all product tables costs 705600 "
                                       "entries (budget 200000); n <= 3 fits\n")
    assert run("symprod", FIXTURES / "surface4.json", "--n", 2, "--budget", 15) == 2
    assert capsys.readouterr().err == ("error: building all product tables costs 400 "
                                       "entries (budget 15); no n fits\n")
    # the exact rising factorial has over 4300 digits at n = 2000, too many to
    # print, and took seconds to compute at n = 200000: a lower bound is printed
    for n in (2000, 200000):
        assert run("symprod", FIXTURES / "surface4.json", "--n", n) == 2
        assert capsys.readouterr().err == ("error: building all product tables costs at least "
                                           "1077105223434240000 entries (budget 200000); "
                                           "n <= 3 fits\n")


def test_supergraded_document_round_trips_and_verifies(tmp_path, capsys):
    out = tmp_path / "super.json"
    assert run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--super",
               "--lambda", "-1", "--out", out) == 0
    loaded = gfrob.load(out)
    assert loaded.is_super()
    capsys.readouterr()
    assert run("verify", out) == 0
    assert "supertrace" in capsys.readouterr().out
