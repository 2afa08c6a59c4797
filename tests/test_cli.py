from __future__ import annotations

import json

import pytest

from qi_sentry.cli import main

DEMO_CSV = (
    "Weight,Age,Gender,Zipcode\n"
    "72,45,M,75145\n"
    "72,45,M,75145\n"
    "58,21,M,47853\n"
    "45,21,F,47853\n"
    "45,64,F,47853\n"
)

ALL_QI_RULES = {
    "default": "NSA",
    "rules": [
        {"match": "weight", "class": "QI"},
        {"match": "age", "class": "QI"},
        {"match": "gender", "class": "QI"},
        {"match": "zipcode", "class": "QI"},
    ],
}

HIGH_FORM = {
    "linkage": "High",
    "intent": [True, True, True],
    "external_linkage": True,
    "protection": [False] * 6,
    "knowledge": [True, True, True],
    "tenure_years": 10,
}

LOW_FORM = {
    "linkage": "Low",
    "intent": [False, False, False],
    "external_linkage": False,
    "protection": [True] * 6,
    "knowledge": [False, False, False],
    "tenure_years": 0,
}

MIDDLE_FORM = {
    "linkage": "High",
    "intent": [True, True, False],
    "external_linkage": False,
    "protection": [True] * 6,
    "knowledge": [True, True, True],
    "tenure_years": 8,
}


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "demo.csv").write_text(DEMO_CSV)
    (tmp_path / "rules.json").write_text(json.dumps(ALL_QI_RULES))
    (tmp_path / "high.json").write_text(json.dumps(HIGH_FORM))
    (tmp_path / "low.json").write_text(json.dumps(LOW_FORM))
    (tmp_path / "middle.json").write_text(json.dumps(MIDDLE_FORM))
    return tmp_path


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify ------------------------------------------------------------------

def test_classify_prints_census(workspace, capsys):
    code, out, _ = run(
        capsys, "classify",
        "--input", str(workspace / "demo.csv"),
        "--rules", str(workspace / "rules.json"),
    )
    assert code == 0
    assert "census: DID=0 QI=4 SA=0 NSA=0" in out


def test_classify_json_is_valid(workspace, capsys):
    code, out, _ = run(
        capsys, "classify",
        "--input", str(workspace / "demo.csv"),
        "--rules", str(workspace / "rules.json"),
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["census"] == {"did": 0, "qi": 4, "sa": 0, "nsa": 0}
    assert doc["classes"]["Weight"] == "QI"


def test_classify_missing_rules_file_exits_2(workspace, capsys):
    code, _, err = run(
        capsys, "classify",
        "--input", str(workspace / "demo.csv"),
        "--rules", str(workspace / "nope.json"),
    )
    assert code == 2
    assert "error" in err


def test_classify_twenty_tables_twenty_census_lines(workspace, capsys):
    census_lines = []
    for i in range(20):
        path = workspace / f"t{i}.csv"
        path.write_text(f"patient_name,age_{i},note\nx,1,n\n")
        code, out, _ = run(capsys, "classify", "--input", str(path))
        assert code == 0
        census_lines += [line for line in out.splitlines() if line.startswith("census:")]
    assert len(census_lines) == 20
    assert census_lines[0] == "census: DID=1 QI=1 SA=0 NSA=1"


def test_classify_uses_env_var_rules(workspace, capsys, monkeypatch):
    everything_sa = {"default": "SA", "rules": []}
    path = workspace / "env_rules.json"
    path.write_text(json.dumps(everything_sa))
    monkeypatch.setenv("QI_SENTRY_RULES", str(path))
    code, out, _ = run(capsys, "classify", "--input", str(workspace / "demo.csv"))
    assert code == 0
    assert "census: DID=0 QI=0 SA=4 NSA=0" in out


def test_classify_falls_back_to_shipped_rules(workspace, capsys, monkeypatch):
    monkeypatch.delenv("QI_SENTRY_RULES", raising=False)
    code, out, _ = run(capsys, "classify", "--input", str(workspace / "demo.csv"))
    assert code == 0
    # shipped rules: Age/Gender/Zipcode are QI patterns, Weight is not
    assert "census: DID=0 QI=3 SA=0 NSA=1" in out


# -- score ----------------------------------------------------------------------

def test_score_demo_tsv(workspace, capsys):
    code, out, _ = run(
        capsys, "score",
        "--input", str(workspace / "demo.csv"),
        "--rules", str(workspace / "rules.json"),
        "--format", "tsv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "table\tcolumn\tuniqueness\tinfluence\tsum"
    assert lines[1] == "demo\tWeight\t0.2000\t0.0000\t0.2000"
    assert lines[2] == "demo\tAge\t0.2000\t0.2500\t0.4500"
    assert lines[3] == "demo\tGender\t0.0000\t0.0000\t0.0000"
    assert lines[4] == "demo\tZipcode\t0.0000\t0.0000\t0.0000"


def test_score_header_only_input_exits_2(workspace, capsys):
    path = workspace / "empty.csv"
    path.write_text("Weight,Age,Gender,Zipcode\n")
    code, _, err = run(
        capsys, "score",
        "--input", str(path),
        "--rules", str(workspace / "rules.json"),
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["score", "select", "oracle"])
def test_oversized_field_is_one_error_line_and_exit_2(workspace, capsys, command):
    path = workspace / "huge.csv"
    path.write_text(DEMO_CSV + "45,64,F," + "9" * 200_000 + "\n")
    extra = ["--rules", str(workspace / "rules.json")] if command != "oracle" else []
    if command == "select":
        extra += ["--assessment", str(workspace / "high.json")]
    code, out, err = run(capsys, command, "--input", str(path), *extra)
    assert code == 2
    assert out == ""
    assert err == "error: malformed record: field larger than field limit (131072) (record 7)\n"


def test_score_synthetic_is_deterministic(workspace, capsys):
    spec = {
        "rows": 1000,
        "seed": 11,
        "columns": [
            {"name": "a", "distinct_values": 40, "distribution": "zipf(1.3)", "class_hint": "QI"},
            {"name": "b", "distinct_values": 5, "class_hint": "QI"},
        ],
    }
    spec_path = workspace / "spec.json"
    spec_path.write_text(json.dumps(spec))
    table_path = workspace / "syn.csv"
    rules_path = workspace / "syn_rules.json"
    code, _, _ = run(
        capsys, "generate", "--spec", str(spec_path),
        "--output", str(table_path), "--rules-out", str(rules_path),
    )
    assert code == 0
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "score",
            "--input", str(table_path),
            "--rules", str(rules_path),
            "--format", "json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])


# -- assess -----------------------------------------------------------------------

def test_assess_reference_form(workspace, capsys):
    code, out, _ = run(capsys, "assess", "--assessment", str(workspace / "middle.json"))
    assert code == 0
    assert "6.67" in out
    assert "Middle" in out


def test_assess_minimal_form(workspace, capsys):
    code, out, _ = run(capsys, "assess", "--assessment", str(workspace / "low.json"))
    assert code == 0
    assert "0.33" in out
    assert "Low" in out


def test_assess_bad_cardinality_exits_2(workspace, capsys):
    bad = dict(MIDDLE_FORM, protection=[True] * 5)
    path = workspace / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "assess", "--assessment", str(path))
    assert code == 2
    assert "protection" in err


def test_assess_text_golden(workspace, capsys):
    code, out, _ = run(capsys, "assess", "--assessment", str(workspace / "middle.json"))
    assert code == 0
    assert out == (
        "linkage points:       10\n"
        "reid ability points:  2\n"
        "understanding points: 8\n"
        "average: 6.67 (Middle)\n"
    )


def test_assess_json_format(workspace, capsys):
    code, out, _ = run(
        capsys, "assess", "--assessment", str(workspace / "middle.json"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "linkage_points": 10,
        "reid_ability_points": 2,
        "understanding_points": 8,
        "average": 6.67,
        "grade": "Middle",
    }


# -- select ------------------------------------------------------------------------

def select_args(workspace, form="high.json", *extra):
    return [
        "select",
        "--input", str(workspace / "demo.csv"),
        "--rules", str(workspace / "rules.json"),
        "--assessment", str(workspace / form),
        *extra,
    ]


def test_select_high_grade_selects_age(workspace, capsys):
    code, out, _ = run(capsys, *select_args(workspace, "high.json", "--format", "json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["final_qis"] == ["Age"]
    assert doc["grade"] == "High"
    assert doc["threshold"] == 0.25


def test_select_with_low_override_selects_both(workspace, capsys):
    code, out, _ = run(
        capsys, *select_args(workspace, "high.json", "--threshold", "0.1", "--format", "json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["final_qis"] == ["Age", "Weight"]
    assert doc["threshold"] == 0.1
    assert doc["grade_threshold"] == 0.25
    assert doc["threshold_overridden"] is True


@pytest.mark.parametrize("universe", ["all", "qi"])
def test_select_works_on_codes_without_decoding_cells(workspace, capsys, monkeypatch, universe):
    from qi_sentry.table import Table

    def decoded(table):
        raise AssertionError("select decoded the cells")

    monkeypatch.setattr(Table, "cells", property(decoded))
    code, out, _ = run(capsys, *select_args(workspace, "high.json", "--universe", universe))
    assert code == 0
    assert "Age" in out


def test_select_low_grade_selects_nothing(workspace, capsys):
    code, out, _ = run(capsys, *select_args(workspace, "low.json", "--format", "json"))
    assert code == 0
    assert json.loads(out)["final_qis"] == []


def test_select_no_timestamp_is_byte_identical(workspace, capsys):
    args = select_args(workspace, "high.json", "--no-timestamp", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "generated_at" not in out1


def test_select_default_has_timestamp(workspace, capsys):
    code, out, _ = run(capsys, *select_args(workspace, "high.json", "--format", "json"))
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_select_out_of_range_override_exits_2(workspace, capsys):
    code, _, err = run(capsys, *select_args(workspace, "high.json", "--threshold", "3.0"))
    assert code == 2
    assert "error" in err


def test_select_text_golden(workspace, capsys):
    code, out, _ = run(capsys, *select_args(workspace, "high.json", "--no-timestamp"))
    assert code == 0
    assert out == (
        "table: demo\n"
        "requestor grade: High\n"
        "threshold: 0.2500\n"
        "\n"
        "column   class  uniqueness  influence  sum     selected  note\n"
        "-------  -----  ----------  ---------  ------  --------  ----\n"
        "Weight   QI     0.2000      0.0000     0.2000  no\n"
        "Age      QI     0.2000      0.2500     0.4500  yes\n"
        "Gender   QI     0.0000      0.0000     0.0000  no\n"
        "Zipcode  QI     0.0000      0.0000     0.0000  no\n"
        "\n"
        "final QIs: Age\n"
    )


# -- generate -----------------------------------------------------------------------

def test_generate_deterministic_bytes(workspace, capsys):
    spec = {"rows": 5, "seed": 7, "columns": [{"name": "a", "distinct_values": 5}]}
    path = workspace / "gspec.json"
    path.write_text(json.dumps(spec))
    _, out1, _ = run(capsys, "generate", "--spec", str(path))
    _, out2, _ = run(capsys, "generate", "--spec", str(path))
    assert out1 == out2
    assert out1.startswith("a\n")


def test_generate_seed_override_changes_bytes(workspace, capsys):
    spec = {"rows": 20, "seed": 7, "columns": [{"name": "a", "distinct_values": 50}]}
    path = workspace / "gspec.json"
    path.write_text(json.dumps(spec))
    _, out1, _ = run(capsys, "generate", "--spec", str(path))
    _, out2, _ = run(capsys, "generate", "--spec", str(path), "--seed", "8")
    assert out1 != out2


def test_generate_invalid_spec_exits_2(workspace, capsys):
    path = workspace / "bad.json"
    path.write_text(json.dumps({"rows": 0, "columns": [{"name": "a", "distinct_values": 2}]}))
    code, _, err = run(capsys, "generate", "--spec", str(path))
    assert code == 2
    assert "error" in err


# -- oracle -------------------------------------------------------------------------

def test_oracle_agrees_on_demo(workspace, capsys):
    code, out, _ = run(capsys, "oracle", "--input", str(workspace / "demo.csv"))
    assert code == 0
    assert "ok" in out


def test_oracle_agrees_on_synthetic(workspace, capsys):
    spec = {
        "rows": 300,
        "seed": 5,
        "columns": [
            {"name": "a", "distinct_values": 4},
            {"name": "b", "distinct_values": 3, "distribution": "zipf(1.2)"},
            {"name": "c", "distinct_values": 2},
        ],
    }
    spec_path = workspace / "ospec.json"
    spec_path.write_text(json.dumps(spec))
    table_path = workspace / "osyn.csv"
    run(capsys, "generate", "--spec", str(spec_path), "--output", str(table_path))
    code, out, _ = run(capsys, "oracle", "--input", str(table_path))
    assert code == 0
    assert "ok" in out


def test_oracle_detects_corrupted_engine(workspace, capsys, monkeypatch):
    import qi_sentry.metrics as metrics

    monkeypatch.setattr(metrics, "equivalence_class_count", lambda table, subset: 123)
    code, _, err = run(capsys, "oracle", "--input", str(workspace / "demo.csv"))
    assert code == 1
    assert "divergence" in err


def test_oracle_missing_input_exits_2(workspace, capsys):
    code, _, _ = run(capsys, "oracle", "--input", str(workspace / "absent.csv"))
    assert code == 2


# -- harness ------------------------------------------------------------------------

def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
