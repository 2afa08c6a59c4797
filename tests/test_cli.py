from __future__ import annotations

import contextlib
import copy
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qi_sentry.cli as cli_module
import qi_sentry.generate as generate_module
from qi_sentry import IngestOptions, ingest_delimited
from qi_sentry.cli import main
from qi_sentry.generate import generate_table, load_spec

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

# A scores 2/6 + (1 - 5/6) = 1/2 exactly, though its float sum is
# 0.49999999999999994; B scores 4/6 + (1 - 4/6) = 1
HALF_CSV = "A,B\nx,1\nx,2\ny,3\ny,4\np,5\nq,5\n"

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
    (tmp_path / "half.csv").write_text(HALF_CSV)
    (tmp_path / "all_qi.json").write_text(json.dumps({"default": "QI", "rules": []}))
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


@pytest.mark.parametrize("data, message", [
    (b"\nx,y\n1,2\n", "no columns: header is empty (record 1)"),
    (b"", "no columns: input is empty"),
])
def test_blank_first_line_or_empty_input_is_one_error_line_and_exit_2(
    workspace, capsys, data, message
):
    path = workspace / "blank.csv"
    path.write_bytes(data)
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


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


def test_score_tsv_format(workspace, capsys):
    code, out, _ = run(
        capsys, "score",
        "--input", str(workspace / "demo.csv"),
        "--rules", str(workspace / "rules.json"),
        "--format", "tsv",
    )
    assert code == 0
    assert out == (
        "table\tcolumn\tuniqueness\tinfluence\tsum\n"
        "demo\tWeight\t0.2000\t0.0000\t0.2000\n"
        "demo\tAge\t0.2000\t0.2500\t0.4500\n"
        "demo\tGender\t0.0000\t0.0000\t0.0000\n"
        "demo\tZipcode\t0.0000\t0.0000\t0.0000\n"
    )


def test_score_json_is_valid_and_rounded(workspace, capsys):
    code, out, _ = run(
        capsys, "score",
        "--input", str(workspace / "half.csv"),
        "--rules", str(workspace / "all_qi.json"),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [
        {"table": "half", "column": "A", "uniqueness": 0.3333, "influence": 0.1667, "sum": 0.5},
        {"table": "half", "column": "B", "uniqueness": 0.6667, "influence": 0.3333, "sum": 1.0},
    ]


def test_score_text_aligns_names_shorter_than_the_column_header(workspace, capsys):
    path = workspace / "short.csv"
    path.write_text("a,bb\nx,1\ny,1\nz,2\n")
    code, out, _ = run(
        capsys, "score", "--input", str(path), "--rules", str(workspace / "all_qi.json")
    )
    assert code == 0
    assert out == (
        "column  uniqueness  influence  sum\n"
        "a           1.0000     0.3333  1.3333\n"
        "bb          0.3333     0.0000  0.3333\n"
    )


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


@pytest.mark.parametrize("command", ["classify", "score", "select", "oracle"])
@pytest.mark.parametrize("name", ["missing.csv", "folder"])
def test_unreadable_input_is_one_error_line_naming_the_file_and_exit_2(
    workspace, capsys, command, name
):
    (workspace / "folder").mkdir()
    path = workspace / name
    extra = ["--rules", str(workspace / "rules.json")] if command != "oracle" else []
    if command == "select":
        extra += ["--assessment", str(workspace / "high.json")]
    code, out, err = run(capsys, command, "--input", str(path), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read input file {path}: [Errno ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("delimiter", ['"', "\r", "\n"])
def test_quote_or_line_break_delimiter_is_one_error_line_and_exit_2(workspace, capsys, delimiter):
    path = workspace / "cr.csv"
    path.write_bytes(b"a\rb\r\n1\r2\r\n")
    code, out, err = run(capsys, "score", "--input", str(path), "--delimiter", delimiter)
    assert code == 2
    assert out == ""
    assert err == f"error: delimiter cannot be a quote or a line break, got {delimiter!r}\n"


@pytest.mark.parametrize("command", ["score", "select"])
@pytest.mark.parametrize("tail", ['45,"64,F,47853\n45,21,F,47853\n', '45,"64"x,F,47853\n'])
def test_malformed_quote_is_one_error_line_and_exit_2(workspace, capsys, command, tail):
    path = workspace / "quote.csv"
    path.write_text(DEMO_CSV + tail)
    extra = ["--assessment", str(workspace / "high.json")] if command == "select" else []
    code, out, err = run(
        capsys, command, "--input", str(path), "--rules", str(workspace / "rules.json"), *extra
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed record: ")
    assert err.endswith(" (record 7)\n")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["assess", "select"])
def test_integer_tenure_past_float_range_grades_as_ten_years(workspace, capsys, command):
    # 10**400 cannot become a float; it is graded in the [10, inf) bracket, as 10 is
    outputs = []
    for tenure in (10**400, 10):
        path = workspace / f"tenure_{len(str(tenure))}.json"
        path.write_text(json.dumps(dict(MIDDLE_FORM, tenure_years=tenure)))
        argv = ["--assessment", str(path), "--format", "json"]
        if command == "select":
            argv += ["--input", str(workspace / "demo.csv"), "--rules", str(workspace / "rules.json"),
                     "--no-timestamp"]
        outputs.append(run(capsys, command, *argv))
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert (code, err) == (0, "")
    assert json.loads(out)["grade"] == "High"


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


def test_select_threshold_reached_exactly_selects(workspace, capsys):
    # Weight scores exactly 1/5; the binary value of 0.2 lies just above
    # 1/5, but the threshold is taken as the decimal it was given as
    code, out, _ = run(
        capsys, *select_args(workspace, "high.json", "--threshold", "0.2", "--format", "json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["final_qis"] == ["Age", "Weight"]
    assert doc["threshold"] == 0.2


def test_select_negative_zero_threshold_reports_zero(workspace, capsys):
    # -0.0 passes the [0, 2] check; the report must not print its sign
    args = select_args(workspace, "high.json", "--threshold=-0.0", "--no-timestamp")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "threshold: 0.0000 (manual override" in out
    assert "-0.0" not in out
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    assert '"threshold": 0.0,' in out
    assert "-0.0" not in out
    # and the report is the one that --threshold=0 gives
    zero = select_args(workspace, "high.json", "--threshold=0", "--no-timestamp")
    assert run(capsys, *zero, "--format", "json")[1] == out


@pytest.mark.parametrize("command", [
    pytest.param(["select", "--assessment", "high.json", "--universe", "all"], id="all"),
    pytest.param(["select", "--assessment", "high.json", "--universe", "qi"], id="qi"),
    pytest.param(["score"], id="score"),
    pytest.param(["classify"], id="classify"),
])
def test_select_works_on_codes_without_decoding_cells(workspace, capsys, monkeypatch, command):
    from qi_sentry.table import Table

    def decoded(table):
        raise AssertionError(f"{command[0]} decoded the table")

    # values and cells are the only ways to a table's decoded strings
    monkeypatch.setattr(Table, "values", property(decoded))
    monkeypatch.setattr(Table, "cells", property(decoded))
    name, *extra = command
    if "--assessment" in extra:
        extra[1] = str(workspace / extra[1])
    code, out, _ = run(
        capsys, name, "--input", str(workspace / "demo.csv"),
        "--rules", str(workspace / "rules.json"), *extra,
    )
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


@pytest.mark.parametrize("text", [
    # the floats of these round onto 2.0 and -0.0, inside the range; their decimals lie outside
    "2.0000000000000001", "-1e-400", "-1e-999999999",
    "3.0", "nan", "inf", "1e400", "abc",
])
def test_select_threshold_is_range_checked_as_the_decimal_it_writes(workspace, capsys, text):
    code, out, err = run(capsys, *select_args(workspace, "high.json", f"--threshold={text}"))
    assert (code, out) == (2, "")
    assert err == f"error: threshold must be in [0, 2], got {text}\n"


def test_select_threshold_inside_the_range_runs_at_its_float(workspace, capsys):
    # a decimal just above 0 reads as the float 0.0, and the report is the one 0 gives
    reports = [
        run(capsys, *select_args(workspace, "high.json", f"--threshold={text}", "--no-timestamp",
                                 "--format", "json"))
        for text in ["0", "1e-400", "1e-999999999", "0e5"]
    ]
    assert reports[0][0] == 0
    assert reports[1:] == reports[:1] * 3


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


def test_select_tsv_has_one_row_per_column(workspace, capsys):
    code, out, _ = run(capsys, *select_args(workspace, "high.json", "--format", "tsv"))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("table\tcolumn\tclass")
    assert len(lines) == 1 + 4


def test_select_text_rendering(workspace, capsys):
    code, out, _ = run(capsys, *select_args(workspace, "high.json", "--no-timestamp"))
    assert code == 0
    assert "requestor grade: High" in out
    assert "threshold: 0.2500" in out
    assert "final QIs: Age" in out
    assert "0.4500" in out


def test_select_exact_half_score_is_selected_at_half(workspace, capsys):
    code, out, _ = run(
        capsys, "select",
        "--input", str(workspace / "half.csv"),
        "--rules", str(workspace / "all_qi.json"),
        "--assessment", str(workspace / "middle.json"),
    )
    assert code == 0
    assert "A       QI     0.3333      0.1667     0.5000  yes" in out
    assert "final QIs: A, B" in out


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


@pytest.mark.parametrize("delimiter", ["", "ab", '"', "\r", "\n"])
@pytest.mark.parametrize("command", ["generate", "score"])
def test_bad_delimiter_is_one_error_line_and_exit_2(workspace, capsys, command, delimiter):
    spec = workspace / "gspec.json"
    spec.write_text(json.dumps({"rows": 5, "columns": [{"name": "a", "distinct_values": 3}]}))
    output = workspace / "out.csv"
    if command == "generate":
        argv = ["generate", "--spec", str(spec), "--output", str(output)]
    else:
        argv = ["score", "--input", str(workspace / "demo.csv")]
    code, out, err = run(capsys, *argv, f"--delimiter={delimiter}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: delimiter ")
    assert err.count("\n") == 1
    assert not output.exists()


@pytest.mark.parametrize("command", ["generate", "score"])
def test_na_token_with_edge_whitespace_is_one_error_line_and_exit_2(workspace, capsys, command):
    spec = workspace / "gspec.json"
    spec.write_text(json.dumps({"rows": 5, "columns": [{"name": "a", "distinct_values": 3}]}))
    output = workspace / "out.csv"
    if command == "generate":
        argv = ["generate", "--spec", str(spec), "--output", str(output)]
    else:
        argv = ["score", "--input", str(workspace / "demo.csv")]
    code, out, err = run(capsys, *argv, "--na-token", " NA ")
    assert (code, out) == (2, "")
    assert err == "error: NA token cannot start or end with whitespace, got ' NA '\n"
    assert not output.exists()


def test_generate_na_token_equal_to_a_value_is_one_error_line_and_exit_2(workspace, capsys):
    # symbol 0 is "v0": written as is, its cells would read back as missing
    spec = workspace / "gspec.json"
    spec.write_text(json.dumps({"rows": 5, "columns": [{"name": "a", "distinct_values": 1}]}))
    output = workspace / "out.csv"
    argv = ["generate", "--spec", str(spec), "--output", str(output), "--na-token", "v0"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: NA token 'v0' is a value of column 'a'\n"
    assert not output.exists()


@pytest.mark.parametrize("delimiter", [",", "\t", ";", "|"])
def test_generate_round_trips_through_ingest(workspace, capsys, delimiter):
    spec = {
        "rows": 200,
        "seed": 4,
        "columns": [
            {"name": "a", "distinct_values": 30, "distribution": "zipf(1.1)"},
            {"name": "b", "distinct_values": 3},
        ],
    }
    spec_path = workspace / "rspec.json"
    spec_path.write_text(json.dumps(spec))
    path = workspace / "round.txt"
    code, _, _ = run(
        capsys, "generate", "--spec", str(spec_path), "--output", str(path),
        "--delimiter", delimiter,
    )
    assert code == 0
    table = ingest_delimited(path.read_bytes(), IngestOptions(delimiter=delimiter))
    generated = generate_table(load_spec(spec_path))
    assert table.column_names == generated.column_names == ("a", "b")
    assert table.cells == generated.cells


@pytest.mark.parametrize(
    "distribution, message",
    [
        (5, "distribution must be 'uniform' or 'zipf(s)', got 5"),
        ("zipf(1e400)", "zipf exponent must be positive and finite, got inf"),
    ],
)
def test_generate_bad_distribution_is_one_error_line_and_exit_2(
    workspace, capsys, distribution, message
):
    spec = {"rows": 5, "columns": [{"name": "a", "distinct_values": 3, "distribution": distribution}]}
    path = workspace / "dspec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "generate", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: column 'a': {message}\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"rows": 5, "columns": [{"name": "a", "distinct_values": 10**9,
                                  "distribution": "zipf(1.2)"}]},
         "column 'a': distinct_values must be from 1 to MAX_DISTINCT_VALUES = 10000000, "
         "got 1000000000"),
        ({"rows": 5, "columns": [{"name": "a", "distinct_values": 10**9}]},
         "column 'a': distinct_values must be from 1 to MAX_DISTINCT_VALUES = 10000000, "
         "got 1000000000"),
        ({"rows": 10**9, "columns": [{"name": "a", "distinct_values": 2}]},
         "rows x columns must be at most MAX_CELLS = 100000000, got 1000000000 x 1"),
        ({"rows": 5 * 10**6, "columns": [{"name": f"c{i}", "distinct_values": 2}
                                         for i in range(21)]},
         "rows x columns must be at most MAX_CELLS = 100000000, got 5000000 x 21"),
    ],
)
def test_generate_oversized_spec_is_refused_before_drawing(workspace, capsys, spec, message):
    # the message names the limit, so the bound refused the spec before any
    # allocation could fail
    path = workspace / "huge.json"
    path.write_text(json.dumps(spec))
    output = workspace / "huge.csv"
    code, out, err = run(capsys, "generate", "--spec", str(path), "--output", str(output))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not output.exists()


@pytest.mark.parametrize("spec_seed, flags, seed", [(-5, [], -5), (3, ["--seed", "-1"], -1)])
def test_generate_negative_seed_is_one_error_line_and_exit_2(
    workspace, capsys, spec_seed, flags, seed
):
    path = workspace / "sspec.json"
    path.write_text(json.dumps(
        {"rows": 5, "seed": spec_seed, "columns": [{"name": "a", "distinct_values": 3}]}
    ))
    output = workspace / "out.csv"
    code, out, err = run(capsys, "generate", "--spec", str(path), "--output", str(output), *flags)
    assert (code, out) == (2, "")
    assert err == f"error: seed must be non-negative, got {seed}\n"
    assert not output.exists()


@pytest.mark.parametrize("name", ["", " x ", "x\t"])
def test_generate_column_name_that_reads_back_otherwise_is_one_error_line_and_exit_2(
    workspace, capsys, name
):
    path = workspace / "nspec.json"
    path.write_text(json.dumps({"rows": 5, "columns": [{"name": name, "distinct_values": 3}]}))
    output = workspace / "out.csv"
    code, out, err = run(capsys, "generate", "--spec", str(path), "--output", str(output))
    assert (code, out) == (2, "")
    assert err.startswith("error: column name must be non-empty")
    assert err.count("\n") == 1
    assert not output.exists()


@pytest.mark.parametrize("name", ["a\rb", "a\nb"])
def test_generate_column_name_with_a_line_break_is_one_error_line_and_exit_2(
    workspace, capsys, name
):
    # the writer would quote such a name so it reads back, but a spec keeps each
    # generated column name on one line of the header
    path = workspace / "crspec.json"
    path.write_text(json.dumps({"rows": 5, "columns": [{"name": name, "distinct_values": 3}]}))
    output = workspace / "out.csv"
    code, out, err = run(capsys, "generate", "--spec", str(path), "--output", str(output))
    assert (code, out) == (2, "")
    assert err == f"error: column name cannot hold a line break, got {name!r}\n"
    assert not output.exists()


@pytest.mark.parametrize("to_file", [True, False])
def test_generate_column_name_that_utf8_cannot_encode_is_one_error_line_and_exit_2(
    workspace, capsys, to_file
):
    # a JSON escape gives a lone surrogate, which no UTF-8 header holds
    path = workspace / "uspec.json"
    path.write_text(json.dumps({"rows": 5, "columns": [{"name": "x\udcff", "distinct_values": 3}]}))
    output = workspace / "out.csv"
    code, out, err = run(capsys, "generate", "--spec", str(path),
                         *(["--output", str(output)] if to_file else []))
    assert (code, out) == (2, "")
    assert err == "error: column name cannot be encoded in UTF-8, got 'x\\udcff'\n"
    assert not output.exists()


@pytest.mark.parametrize("flag, noun, other", [
    pytest.param("--output", "table file", None, id="--output-table file"),
    pytest.param("--output", "table file", "--rules-out", id="--output-table file-and rules"),
    pytest.param("--rules-out", "rules file", "--output", id="--rules-out-rules file"),
    pytest.param("--rules-out", "rules file", None, id="--rules-out-rules file-and stdout"),
])
def test_generate_to_a_missing_directory_names_the_file_and_exits_2(
    workspace, capsys, flag, noun, other
):
    spec = workspace / "gspec.json"
    spec.write_text(json.dumps({"rows": 5, "columns": [{"name": "a", "distinct_values": 3}]}))
    missing = workspace / "no_such_dir" / "out"
    extra = [other, str(workspace / "other")] if other else []
    before = set(workspace.iterdir())
    code, out, err = run(capsys, "generate", "--spec", str(spec), flag, str(missing), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {noun} {missing}: [Errno 2] ")
    assert err.count("\n") == 1
    # both files or neither: a rules file written before the table failed is removed
    assert set(workspace.iterdir()) == before


@pytest.mark.parametrize("failure, message", [
    (OSError(28, "No space left on device"), "cannot write table file {}: [Errno 28] No space"),
    (MemoryError(), "out of memory"),
], ids=["OSError", "MemoryError"])
def test_generate_that_fails_writing_the_table_leaves_neither_file(
    workspace, capsys, monkeypatch, failure, message
):
    spec = workspace / "gspec.json"
    spec.write_text(json.dumps({"rows": 5, "columns": [{"name": "a", "distinct_values": 3}]}))
    table, rules = workspace / "out.csv", workspace / "out_rules.json"
    real_open = Path.open

    class FailingWrite:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            raise failure

    def open_then_fail(path, *args, **kwargs):
        # the table file is created and truncated; then its write fails
        handle = real_open(path, *args, **kwargs)
        return FailingWrite(handle) if path == table else handle

    monkeypatch.setattr(Path, "open", open_then_fail)
    before = set(workspace.iterdir())
    code, out, err = run(capsys, "generate", "--spec", str(spec), "--output", str(table),
                         "--rules-out", str(rules))
    monkeypatch.undo()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message.format(table)}")
    assert err.count("\n") == 1
    assert set(workspace.iterdir()) == before


@pytest.mark.parametrize("flag, noun", [("--delimiter", "delimiter"), ("--na-token", "NA token")])
@pytest.mark.parametrize("command", ["select", "score", "classify", "generate"])
def test_a_delimiter_or_na_token_that_utf8_cannot_encode_is_one_error_line_and_exit_2(
    workspace, capsys, command, flag, noun
):
    # an undecodable byte such as $'\xff' reaches Python's argv as a lone surrogate
    spec = workspace / "gspec.json"
    spec.write_text(json.dumps({"rows": 5, "columns": [{"name": "a", "distinct_values": 3}]}))
    if command == "generate":
        argv = ["generate", "--spec", str(spec), "--output", str(workspace / "out.csv"),
                "--rules-out", str(workspace / "out_rules.json")]
    else:
        argv = [command, "--input", str(workspace / "demo.csv"),
                "--rules", str(workspace / "rules.json")]
        if command == "select":
            argv += ["--assessment", str(workspace / "high.json")]
    before = set(workspace.iterdir())
    code, out, err = run(capsys, *argv, flag, "\udcff")
    assert (code, out) == (2, "")
    assert err == f"error: {noun} cannot be encoded in UTF-8, got '\\udcff'\n"
    assert set(workspace.iterdir()) == before


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_an_undecodable_byte_of_the_input_file_name_is_u_fffd_in_the_table_name(
    workspace, capsys, fmt
):
    # the file is named with the byte 0xff, which Python's os layer escapes to "\udcff"
    path = workspace / "\udcff\udcfex.csv"
    path.write_text(DEMO_CSV)
    code, out, err = run(capsys, "classify", "--input", str(path),
                         "--rules", str(workspace / "rules.json"), "--format", fmt)
    assert (code, err) == (0, "")
    out.encode("utf-8")  # no lone surrogate
    if fmt == "json":
        assert json.loads(out)["table"] == "\ufffd\ufffdx"
    else:
        assert out.splitlines()[1].split("\t")[0] == "\ufffd\ufffdx"


def test_generate_rules_out_keeps_every_hint_of_names_with_glob_characters(workspace, capsys):
    hints = {"a*": "SA", "a?": "DID", "ab": "QI", "[x]": "QI", "a,b": "QI", "x": "NSA"}
    spec = {"rows": 20, "columns": [
        {"name": name, "distinct_values": 3, "class_hint": hint} for name, hint in hints.items()
    ]}
    spec_path = workspace / "gspec.json"
    spec_path.write_text(json.dumps(spec))
    table_path, rules_path = workspace / "glob.csv", workspace / "glob_rules.json"
    code, _, _ = run(capsys, "generate", "--spec", str(spec_path), "--output", str(table_path),
                     "--rules-out", str(rules_path))
    assert code == 0
    code, out, _ = run(capsys, "classify", "--input", str(table_path), "--rules", str(rules_path),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["classes"] == hints


@pytest.mark.parametrize("command", ["generate", "score"])
@pytest.mark.parametrize("message, line", [
    ("", "error: out of memory\n"),
    ("Unable to allocate 7.28 TiB", "error: out of memory: Unable to allocate 7.28 TiB\n"),
])
def test_out_of_memory_is_one_error_line_and_exit_2(
    workspace, capsys, monkeypatch, command, message, line
):
    def exhausted(*_):
        raise MemoryError(message) if message else MemoryError

    if command == "generate":
        monkeypatch.setattr(generate_module, "load_spec", exhausted)
        argv = ["generate", "--spec", str(workspace / "any.json")]
    else:
        monkeypatch.setattr(cli_module, "_load_table", exhausted)
        argv = ["score", "--input", str(workspace / "demo.csv")]
    assert run(capsys, *argv) == (2, "", line)


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


def test_oracle_detects_corrupted_pair_ids(workspace, capsys, monkeypatch):
    import qi_sentry.metrics as metrics

    real = metrics._pair_ids

    def last_group_merged_into_first(*args):
        ids, count = real(*args)
        if count == 1:
            return ids, count
        return np.where(ids == count - 1, 0, ids), count - 1

    monkeypatch.setattr(metrics, "_pair_ids", last_group_merged_into_first)
    code, out, err = run(capsys, "oracle", "--input", str(workspace / "demo.csv"))
    assert code == 1
    assert out == ""
    assert "divergence" in err


def test_oracle_missing_input_exits_2(workspace, capsys):
    code, _, _ = run(capsys, "oracle", "--input", str(workspace / "absent.csv"))
    assert code == 2


# -- harness ------------------------------------------------------------------------

def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize("command", ["score", "select"])
def test_universe_has_the_same_help_in_score_and_select(capsys, command):
    assert main([command, "--help"]) == 0
    words = " ".join(capsys.readouterr().out.split())
    assert "--universe {all,qi} columns forming the universe for influence (default all)" in words


@pytest.mark.parametrize("noun, argv", [
    ("rules file", ["classify", "--input", "{dir}/demo.csv", "--rules", "{file}"]),
    ("assessment form", ["assess", "--assessment", "{file}"]),
    ("spec file", ["generate", "--spec", "{file}"]),
], ids=["rules", "form", "spec"])
@pytest.mark.parametrize("content, problem", [
    (None, "cannot read"),
    (b"{", "is not valid JSON: Expecting property name enclosed in double quotes: "
           "line 1 column 2 (char 1)"),
    (b'{"a": "\xff"}', "is not valid UTF-8: invalid start byte at byte 7"),
], ids=["missing", "bad-json", "bad-utf8"])
def test_unreadable_json_file_is_one_error_line_naming_it(workspace, capsys, noun, argv,
                                                          content, problem):
    path = workspace / "doc.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, *(arg.format(dir=workspace, file=path) for arg in argv))
    assert (code, out) == (2, "")
    if content is None:
        assert err == (f"error: cannot read {noun} {path}: "
                       f"[Errno 2] No such file or directory: '{path}'\n")
    else:
        assert err == f"error: {noun} {path} {problem}\n"


@pytest.mark.parametrize("command", [
    ["classify"], ["score"], ["select", "--assessment", "{dir}/high.json"],
], ids=["classify", "score", "select"])
def test_tsv_of_a_name_with_a_tab_is_one_error_line_and_exit_2(workspace, capsys, command):
    # TSV has no quoting, so the name would split into two fields under a shorter header
    (workspace / "tab.csv").write_text('"a\tb",c\n1,2\n')
    argv = [arg.format(dir=workspace) for arg in command]
    code, out, err = run(capsys, *argv, "--input", str(workspace / "tab.csv"),
                         "--rules", str(workspace / "all_qi.json"), "--format", "tsv")
    assert (code, out) == (2, "")
    assert err == "error: cannot write 'a\\tb' as TSV: it holds a tab or line break\n"
    code, out, _ = run(capsys, *argv, "--input", str(workspace / "tab.csv"),
                       "--rules", str(workspace / "all_qi.json"), "--format", "json")
    assert code == 0 and "a\\tb" in out


@pytest.mark.parametrize("command", [
    ["classify"], ["score"], ["select", "--assessment", "{dir}/high.json"],
], ids=["classify", "score", "select"])
def test_text_of_a_name_with_a_line_break_is_one_error_line_and_exit_2(workspace, capsys, command):
    # text has no quoting either, so the name would split its row over two lines
    (workspace / "lf.csv").write_text('"a\nb",c\n1,2\n')
    argv = [arg.format(dir=workspace) for arg in command]
    argv += ["--input", str(workspace / "lf.csv"), "--rules", str(workspace / "all_qi.json")]
    code, out, err = run(capsys, *argv, "--format", "text")
    assert (code, out) == (2, "")
    assert err == "error: cannot write 'a\\nb' as text: it holds a line break\n"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and "a\\nb" in out


@pytest.mark.parametrize("argv, content", [
    (["classify", "--input", "{dir}/demo.csv", "--rules", "{file}"], ALL_QI_RULES),
    (["assess", "--assessment", "{file}"], MIDDLE_FORM),
    (["generate", "--spec", "{file}"], {"rows": 5, "seed": 1, "columns": [
        {"name": "a", "distinct_values": 3}]}),
], ids=["rules", "form", "spec"])
def test_json_file_with_a_bom_reads_as_without_one(workspace, capsys, argv, content):
    path = workspace / "doc.json"
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + json.dumps(content).encode())
        outputs.append(run(capsys, *(arg.format(dir=workspace, file=path) for arg in argv)))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]
    # invalid UTF-8 after a BOM is placed by its byte in the file, BOM included
    path.write_bytes(b'\xef\xbb\xbf{"a": "\xff"}')
    code, out, err = run(capsys, *(arg.format(dir=workspace, file=path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.endswith(" is not valid UTF-8: invalid start byte at byte 10\n")


# -- golden outputs -------------------------------------------------------------------
# The full stdout of every rendering, pinned byte for byte in tests/golden/.

GOLDEN = Path(__file__).parent / "golden"

VISITS_CSV = (
    "patient_name,Weight,Age,Gender,Zipcode,diagnosis,visit_note\n"
    "Ann Lee,72,45,M,75145,flu,follow-up\n"
    "Ann Lee,72,45,M,75145,flu,NA\n"
    "Bo Chan,58,21,M,47853,cold,\n"
    "Cy Diaz,45,21,F,47853,flu,first visit\n"
    "Cy Diaz,45,64,F,47853,asthma,first visit\n"
)

VISITS_RULES = {
    "default": "NSA",
    "rules": [
        {"match": "*name*", "class": "DID"},
        {"match": "diagnosis", "class": "SA"},
        {"match": "weight", "class": "QI"},
        {"match": "age", "class": "QI"},
        {"match": "gender", "class": "QI"},
        {"match": "zipcode", "class": "QI"},
    ],
}

TABLE = ["--input", "{dir}/visits.csv", "--rules", "{dir}/rules.json"]
NSA_TABLE = ["--input", "{dir}/visits.csv", "--rules", "{dir}/nsa.json"]
SELECT = ["select", *TABLE, "--assessment", "{dir}/high.json", "--no-timestamp"]

GOLDEN_CASES = {
    "classify": ["classify", *TABLE],
    "classify-nsa": ["classify", *NSA_TABLE],
    "score": ["score", *TABLE],
    "score-qi": ["score", *TABLE, "--universe", "qi"],
    "score-nsa": ["score", *NSA_TABLE],
    "assess": ["assess", "--assessment", "{dir}/middle.json"],
    "select": SELECT,
    "select-threshold": [*SELECT, "--threshold", "0.2"],
    "select-qi": [*SELECT, "--universe", "qi"],
    "select-nsa": ["select", *NSA_TABLE, "--assessment", "{dir}/high.json", "--no-timestamp"],
    "select-low": ["select", *TABLE, "--assessment", "{dir}/low.json", "--no-timestamp"],
}


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(tmp_path, capsys, case, fmt):
    (tmp_path / "visits.csv").write_text(VISITS_CSV)
    (tmp_path / "rules.json").write_text(json.dumps(VISITS_RULES))
    (tmp_path / "nsa.json").write_text(json.dumps({"default": "NSA", "rules": []}))
    for name, form in [("high", HIGH_FORM), ("middle", MIDDLE_FORM), ("low", LOW_FORM)]:
        (tmp_path / f"{name}.json").write_text(json.dumps(form))
    argv = [arg.format(dir=tmp_path) for arg in GOLDEN_CASES[case]]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{case}.{fmt}").read_bytes()


# names that need quoting under one delimiter or the other
QUOTED_NAMES_SPEC = {"rows": 8, "seed": 3, "columns": [
    {"name": "a,b", "distinct_values": 3},
    {"name": 'q"t', "distinct_values": 4, "distribution": "zipf(1.2)"},
    {"name": "x;y", "distinct_values": 2},
]}


@pytest.mark.parametrize("golden, flags", [
    ("generate.csv", []),
    ("generate-semicolon.csv", ["--delimiter", ";"]),
])
def test_generate_golden_output(tmp_path, capsys, golden, flags):
    (tmp_path / "spec.json").write_text(json.dumps(QUOTED_NAMES_SPEC))
    code, out, err = run(capsys, "generate", "--spec", str(tmp_path / "spec.json"), *flags)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


# -- fuzz gate: arbitrary and mutated JSON documents fail cleanly or not at all --


def json_scalars(integers):
    return st.none() | st.booleans() | integers | st.floats() | st.text(max_size=10)


def json_values(scalars):
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=10), inner, max_size=5),
        max_leaves=12,
    )


# Integers stay within +-1000, so no generated spec allocates more than a few MB.
JSON_SCALARS = json_scalars(st.integers(-1000, 1000))
# A form allocates nothing by its numbers, so its integers also reach +-10**400, past
# float range.
FORM_SCALARS = json_scalars(
    st.integers(-1000, 1000)
    | st.builds(lambda sign, digits: sign * 10**digits, st.sampled_from([1, -1]), st.integers(300, 400))
)

VALID_SPEC = {
    "rows": 40,
    "seed": 2,
    "name": "s",
    "columns": [
        {"name": "a", "distinct_values": 7, "distribution": "zipf(1.2)", "class_hint": "QI"},
        {"name": "b", "distinct_values": 3, "class_hint": "DID"},
    ],
}


def _slots(node):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        children = []
    for key, child in children:
        yield node, key
        yield from _slots(child)


@st.composite
def mutations_of(draw, valid, values):
    """``valid`` with one to three values, drawn from ``values``, replaced, deleted or added."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = draw(values)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.text(max_size=10))] = draw(values)
        else:
            node.insert(key, draw(values))
    return doc


@st.composite
def one_scalar_in(draw, valid, scalars):
    """``valid`` with exactly one top-level value replaced by a drawn scalar."""
    doc = copy.deepcopy(valid)
    doc[draw(st.sampled_from(sorted(doc)))] = draw(scalars)
    return doc


def json_documents(valid, scalars=JSON_SCALARS):
    """Arbitrary JSON values, ``valid`` mutated, or ``valid`` with one scalar swapped in.

    A mutation draws its values from scalars as a branch of their own, or
    a value drawn whole would be a container most of the time, and a
    scalar of the wrong kind or size would seldom land in a valid slot.
    A mutation also changes up to three slots, and another change
    usually breaks the document first; the last branch changes only one.
    """
    values = json_values(scalars)
    return values | mutations_of(valid, scalars | values) | one_scalar_in(valid, scalars)


def run_on_document(tmp_path_factory, doc, argv):
    """Run the CLI with ``{doc}`` in ``argv`` naming a file that holds ``doc``."""
    work = tmp_path_factory.mktemp("doc")
    path = work / "doc.json"
    path.write_text(json.dumps(doc))
    (work / "demo.csv").write_text(VISITS_CSV)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(doc=path, dir=work) for arg in argv])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


@settings(max_examples=200, deadline=None)
@given(json_documents(VISITS_RULES))
def test_classify_on_arbitrary_rules_exits_0_or_2(tmp_path_factory, doc):
    run_on_document(
        tmp_path_factory, doc, ["classify", "--input", "{dir}/demo.csv", "--rules", "{doc}"]
    )


@settings(max_examples=200, deadline=None)
@given(json_documents(MIDDLE_FORM, FORM_SCALARS))
@example(dict(MIDDLE_FORM, tenure_years=10**400))
def test_assess_on_arbitrary_forms_exits_0_or_2(tmp_path_factory, doc):
    run_on_document(tmp_path_factory, doc, ["assess", "--assessment", "{doc}"])


@settings(max_examples=200, deadline=None)
@given(json_documents(VALID_SPEC))
def test_generate_on_arbitrary_specs_exits_0_or_2(tmp_path_factory, doc):
    run_on_document(
        tmp_path_factory, doc,
        ["generate", "--spec", "{doc}", "--output", "{dir}/out.csv", "--rules-out", "{dir}/r.json"],
    )
