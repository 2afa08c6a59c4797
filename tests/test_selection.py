from __future__ import annotations

import json

import pytest

from qi_sentry import ClassificationRules, ColumnClass, Table

from qi_sentry import (
    RiskScore,
    UserGrade,
    build_report,
    classify,
    grade_requestor,
    manual_threshold,
    score_columns,
    select_final_qis,
    threshold_for,
)
from qi_sentry.assessment import AssessmentForm, LinkageGrade
from qi_sentry.selection import (
    SelectionThreshold,
    report_to_dict,
    report_to_json,
)
from selection_grid import GRID_ROWS


def requestor_with_grade(grade: UserGrade):
    forms = {
        UserGrade.HIGH: AssessmentForm(
            linkage=LinkageGrade.HIGH,
            intent_answers=(True, True, True),
            external_linkage=True,
            protection_answers=(False,) * 6,
            knowledge_answers=(True, True, True),
            tenure_years=10,
        ),
        UserGrade.MIDDLE: AssessmentForm(
            linkage=LinkageGrade.HIGH,
            intent_answers=(True, True, False),
            external_linkage=False,
            protection_answers=(True,) * 6,
            knowledge_answers=(True, True, True),
            tenure_years=8,
        ),
        UserGrade.LOW: AssessmentForm(
            linkage=LinkageGrade.LOW,
            intent_answers=(False, False, False),
            external_linkage=False,
            protection_answers=(True,) * 6,
            knowledge_answers=(False, False, False),
            tenure_years=0,
        ),
    }
    requestor = grade_requestor(forms[grade])
    assert requestor.grade is grade
    return requestor


# -- thresholds --------------------------------------------------------------

def test_threshold_mapping():
    assert threshold_for(UserGrade.HIGH).value == 0.25
    assert threshold_for(UserGrade.MIDDLE).value == 0.5
    assert threshold_for(UserGrade.LOW).value == 0.75


def test_manual_threshold_records_grade_value():
    t = manual_threshold(0.1, grade=UserGrade.HIGH)
    assert t.value == 0.1
    assert t.grade_value == 0.25
    assert t.overridden


def test_threshold_range_validated():
    with pytest.raises(ValueError):
        SelectionThreshold(value=2.5, grade_value=0.25)
    with pytest.raises(ValueError):
        manual_threshold(-0.1, UserGrade.HIGH)


# -- selection ----------------------------------------------------------------

def test_selection_is_inclusive_at_the_boundary():
    scores = [RiskScore.of("a", 0.25, 0.0)]
    assert select_final_qis(scores, 0.25) == {"a"}


def test_hand_built_scores_reach_the_decimal_they_equal():
    # 0.3 and 0.7 + 0.1 are binary values below 3/10 and 8/10; a score
    # built from floats orders against the threshold as the floats do
    scores = [RiskScore.of("a", 0.3, 0.0), RiskScore.of("b", 0.7, 0.1)]
    assert select_final_qis(scores, 0.3) == {"a", "b"}
    assert select_final_qis(scores, 0.8) == set()
    assert select_final_qis(scores, 0.7999999999999999) == {"b"}


def test_exact_half_score_is_selected_at_half():
    # A scores 2/6 + (1 - 5/6) = 1/2 exactly, but the float sum is
    # 0.49999999999999994; the counts decide, so 0.5 selects it
    table = Table.from_rows(
        "t", ["A", "B"], list(zip("xxyypq", ["1", "2", "3", "4", "5", "5"]))
    )
    classified = classify(table, ClassificationRules(default_class=ColumnClass.QI))
    scores = score_columns(classified)
    a = scores[0]
    assert a.sum < 0.5
    assert a.counts is not None and a.counts.exact_sum() == 0.5
    assert scores[1].counts.exact_sum() == 1  # B: 4/6 + (1 - 4/6)
    assert select_final_qis(scores, 0.5) == {"A", "B"}
    assert select_final_qis(scores, threshold_for(UserGrade.MIDDLE)) == {"A", "B"}
    report = build_report(classified, scores, requestor_with_grade(UserGrade.MIDDLE))
    assert report.final_qis == {"A", "B"}


def test_selection_reference_examples():
    dob_radiation = RiskScore.of("date_of_birth", 0.0, 0.6494)
    dob_surgical = RiskScore.of("date_of_birth", 0.0197, 0.7075)
    dob_transfusion = RiskScore.of("date_of_birth", 0.0095, 0.8194)
    for score, in_025, in_05, in_075 in [
        (dob_radiation, True, True, False),
        (dob_surgical, True, True, False),
        (dob_transfusion, True, True, True),
    ]:
        assert (score.column in select_final_qis([score], 0.25)) is in_025
        assert (score.column in select_final_qis([score], 0.5)) is in_05
        assert (score.column in select_final_qis([score], 0.75)) is in_075


def test_selection_reproduces_reference_checkmarks():
    """Every expected flag across the reference grid rows."""
    for table_desc, column, uniq, infl, at025, at05, at075 in GRID_ROWS:
        score = RiskScore.of(column, uniq, infl)
        assert (column in select_final_qis([score], threshold_for(UserGrade.HIGH))) is at025, (table_desc, column)
        assert (column in select_final_qis([score], threshold_for(UserGrade.MIDDLE))) is at05, (table_desc, column)
        assert (column in select_final_qis([score], threshold_for(UserGrade.LOW))) is at075, (table_desc, column)


def test_selection_anti_monotone_in_threshold():
    scores = [RiskScore.of(f"{t}/{c}", u, i) for t, c, u, i, *_ in GRID_ROWS]
    low = select_final_qis(scores, threshold_for(UserGrade.LOW))
    mid = select_final_qis(scores, threshold_for(UserGrade.MIDDLE))
    high = select_final_qis(scores, threshold_for(UserGrade.HIGH))
    assert low <= mid <= high


# -- report ---------------------------------------------------------------------

def demo_report(demo_table, all_qi_rules, grade=UserGrade.HIGH, **kwargs):
    classified = classify(demo_table, all_qi_rules)
    scores = score_columns(classified)
    return classified, scores, build_report(
        classified, scores, requestor_with_grade(grade), **kwargs
    )


def test_report_demo_high_grade_selects_age(demo_table, all_qi_rules):
    # sums 0.2 and 0.45 against threshold 0.25: only Age clears it
    _, _, report = demo_report(demo_table, all_qi_rules)
    assert report.final_qis == {"Age"}
    assert report.grade is UserGrade.HIGH
    assert report.threshold.value == 0.25


def test_report_demo_middle_grade_selects_nothing(demo_table, all_qi_rules):
    # 0.45 < 0.5, so even Age stays out at the Middle threshold
    _, _, report = demo_report(demo_table, all_qi_rules, grade=UserGrade.MIDDLE)
    assert report.final_qis == frozenset()
    assert report.threshold.value == 0.5


def test_report_demo_low_grade_selects_nothing(demo_table, all_qi_rules):
    _, _, report = demo_report(demo_table, all_qi_rules, grade=UserGrade.LOW)
    assert report.final_qis == frozenset()


def test_report_override_records_both_thresholds(demo_table, all_qi_rules):
    _, _, report = demo_report(demo_table, all_qi_rules, threshold_override=0.1)
    assert report.final_qis == {"Weight", "Age"}
    assert report.threshold.value == 0.1
    assert report.threshold.grade_value == 0.25
    assert report.threshold.overridden


def test_report_zero_override_cannot_select_non_secondary(demo_table, all_qi_rules):
    _, scores, report = demo_report(demo_table, all_qi_rules, threshold_override=0.0)
    # Gender and Zipcode score zero: not secondary, never selected
    assert report.final_qis == {"Weight", "Age"}


def test_report_entries_cover_all_columns_in_position_order(demo_table, all_qi_rules):
    _, _, report = demo_report(demo_table, all_qi_rules)
    assert [e.column for e in report.entries] == ["Weight", "Age", "Gender", "Zipcode"]


def test_report_flags_did_and_sa_columns(demo_table):
    from qi_sentry import ClassificationRules, ColumnClass, Rule

    rules = ClassificationRules(
        rules=(
            Rule("weight", ColumnClass.DID),
            Rule("age", ColumnClass.QI),
            Rule("gender", ColumnClass.SA),
        )
    )
    classified = classify(demo_table, rules)
    scores = score_columns(classified)
    report = build_report(classified, scores, requestor_with_grade(UserGrade.HIGH))
    entries = {e.column: e for e in report.entries}
    assert entries["Weight"].mandatory_removal
    assert entries["Weight"].uniqueness is None
    assert not entries["Weight"].selected
    assert "research-relevant" in entries["Gender"].note
    assert not entries["Gender"].mandatory_removal
    assert entries["Zipcode"].column_class is ColumnClass.NSA
    # Age is the only scored column here and its influence against the
    # full-table universe is 0.25
    assert entries["Age"].sum == 0.45
    assert report.final_qis == {"Age"}


def test_report_determinism_modulo_timestamp(demo_table, all_qi_rules):
    _, _, a = demo_report(demo_table, all_qi_rules, timestamp=False)
    _, _, b = demo_report(demo_table, all_qi_rules, timestamp=False)
    assert a == b
    assert a.generated_at is None


def test_report_timestamp_present_by_default(demo_table, all_qi_rules):
    _, _, report = demo_report(demo_table, all_qi_rules)
    assert report.generated_at is not None


# -- rendering --------------------------------------------------------------------

def test_report_json_round_trips(demo_table, all_qi_rules):
    _, _, report = demo_report(demo_table, all_qi_rules, timestamp=False)
    doc = json.loads(report_to_json(report))
    assert doc["table"] == "demo"
    assert doc["grade"] == "High"
    assert doc["threshold"] == 0.25
    assert doc["final_qis"] == ["Age"]
    assert "generated_at" not in doc
    age = next(e for e in doc["entries"] if e["column"] == "Age")
    assert age == {
        "column": "Age",
        "class": "QI",
        "uniqueness": 0.2,
        "influence": 0.25,
        "sum": 0.45,
        "secondary": True,
        "selected": True,
        "mandatory_removal": False,
        "note": "",
    }


def test_report_dict_contains_override_fields(demo_table, all_qi_rules):
    _, _, report = demo_report(demo_table, all_qi_rules, threshold_override=0.1)
    doc = report_to_dict(report)
    assert doc["threshold"] == 0.1
    assert doc["grade_threshold"] == 0.25
    assert doc["threshold_overridden"] is True
