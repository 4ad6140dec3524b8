import json
from pathlib import Path

from orbifrob import cli
from orbifrob import cocycles as cocy
from orbifrob import gfrob
from orbifrob.groups import symmetric_group

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


def test_verify_zero_denominator_exits_two(tmp_path, capsys):
    doc = json.loads((FIXTURES / "dual_numbers.json").read_text())
    doc["metric"][0][2] = "1/0"
    bad = tmp_path / "zero_den.json"
    bad.write_text(json.dumps(doc))
    assert run("verify", bad) == 2
    err = capsys.readouterr().err
    assert err == "error: zero denominator in '1/0'\n"


def _variant(tmp_path, fixture, edit):
    doc = json.loads((FIXTURES / fixture).read_text())
    edit(doc)
    path = tmp_path / f"variant_{fixture}"
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
    assert b.metric[tau] == [[-x for x in row] for row in a.metric[tau]]
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


def test_symprod_budget_exceeded_exits_two(tmp_path):
    assert run("symprod", FIXTURES / "surface4.json", "--n", 4,
               "--out", tmp_path / "never.json") == 2


def test_supergraded_document_round_trips_and_verifies(tmp_path, capsys):
    out = tmp_path / "super.json"
    assert run("symprod", FIXTURES / "dual_numbers.json", "--n", 2, "--super",
               "--lambda", "-1", "--out", out) == 0
    loaded = gfrob.load(out)
    assert loaded.is_super()
    capsys.readouterr()
    assert run("verify", out) == 0
    assert "supertrace" in capsys.readouterr().out
