from __future__ import annotations

import json

import pytest

from qi_sentry import (
    ClassificationRules,
    ColumnClass,
    ColumnSpec,
    Rule,
    RulesError,
    SyntheticSpec,
    Table,
    classification_census,
    classify,
    default_rules,
    load_rules,
    rules_for_spec,
)
from qi_sentry.classifier import parse_rules, rules_to_doc

# 28-column patient-master-shaped schema; the shipped default rules
# classify it 4 DID / 9 QI / 5 SA / 10 NSA (hand-counted).
PATIENT_MASTER_COLUMNS = [
    "patient_name", "patient_id", "home_address", "phone_number",
    "date_of_birth", "age_at_registration", "gender", "zipcode",
    "admission_date", "discharge_date", "ethnicity", "occupation", "death_date",
    "diagnosis_code", "disease_code", "surgery_history", "medication_list", "mortality_cause",
    "visit_count", "height_cm", "weight_kg", "bmi", "blood_pressure",
    "heart_rate", "registration_channel", "insurance_plan", "room_number", "note_count",
]


def schema_table(names):
    return Table.from_rows("schema", names, [])


def test_first_match_wins():
    rules = ClassificationRules(
        rules=(
            Rule("*name*", ColumnClass.DID),
            Rule("date_of_birth", ColumnClass.QI),
            Rule("diagnosis*", ColumnClass.SA),
        )
    )
    table = schema_table(["patient_name", "date_of_birth", "diagnosis_code", "visit_count"])
    classified = classify(table, rules)
    assert classified.classes == {
        "patient_name": ColumnClass.DID,
        "date_of_birth": ColumnClass.QI,
        "diagnosis_code": ColumnClass.SA,
        "visit_count": ColumnClass.NSA,
    }
    assert classified.primary_qis == {"date_of_birth"}


def test_rule_order_is_significant():
    table = schema_table(["birth_name"])
    forward = ClassificationRules(rules=(Rule("*name*", ColumnClass.DID), Rule("*birth*", ColumnClass.QI)))
    reversed_ = ClassificationRules(rules=(Rule("*birth*", ColumnClass.QI), Rule("*name*", ColumnClass.DID)))
    assert classify(table, forward).classes["birth_name"] is ColumnClass.DID
    assert classify(table, reversed_).classes["birth_name"] is ColumnClass.QI


def test_matching_is_case_insensitive():
    rules = ClassificationRules(rules=(Rule("*ZIP*", ColumnClass.QI),))
    classified = classify(schema_table(["ZipCode"]), rules)
    assert classified.classes["ZipCode"] is ColumnClass.QI


def test_an_exact_name_rule_before_a_catch_all_decides_its_column():
    # rules_for_spec escapes the glob characters, so "b[1]*?" matches only itself
    spec = SyntheticSpec(rows=1, columns=(ColumnSpec("b[1]*?", 1, class_hint=ColumnClass.SA),))
    exact = rules_for_spec(spec).rules
    assert [rule.pattern for rule in exact] == ["b[[]1][*][?]"]
    rules = ClassificationRules(rules=(*exact, Rule("*", ColumnClass.DID)))
    classified = classify(schema_table(["a", "b[1]*?", "b1x?", "B[1]*?x"]), rules)
    assert classified.classes == {
        "a": ColumnClass.DID,
        "b[1]*?": ColumnClass.SA,
        "b1x?": ColumnClass.DID,
        "B[1]*?x": ColumnClass.DID,
    }


def test_empty_rules_default_everything_to_nsa():
    classified = classify(schema_table(["x", "y"]), ClassificationRules())
    assert set(classified.classes.values()) == {ColumnClass.NSA}
    assert classified.primary_qis == frozenset()


def test_default_class_is_configurable():
    rules = ClassificationRules(default_class=ColumnClass.QI)
    classified = classify(schema_table(["x"]), rules)
    assert classified.primary_qis == {"x"}


def test_census_partitions_columns():
    rules = ClassificationRules(
        rules=(
            Rule("*name*", ColumnClass.DID),
            Rule("date_of_birth", ColumnClass.QI),
            Rule("diagnosis*", ColumnClass.SA),
        )
    )
    table = schema_table(["patient_name", "date_of_birth", "diagnosis_code", "visit_count"])
    census = classification_census(classify(table, rules))
    assert census == {"did": 1, "qi": 1, "sa": 1, "nsa": 1}


def test_census_all_nsa():
    census = classification_census(classify(schema_table(["a", "b", "c"]), ClassificationRules()))
    assert census == {"did": 0, "qi": 0, "sa": 0, "nsa": 3}


def test_patient_master_census_with_default_rules():
    census = classification_census(
        classify(schema_table(PATIENT_MASTER_COLUMNS), default_rules())
    )
    assert census == {"did": 4, "qi": 9, "sa": 5, "nsa": 10}
    assert sum(census.values()) == len(PATIENT_MASTER_COLUMNS)


def test_classification_is_deterministic():
    rules = default_rules()
    table = schema_table(PATIENT_MASTER_COLUMNS)
    assert classify(table, rules).classes == classify(table, rules).classes


def test_demo_all_qi(demo_table, all_qi_rules):
    classified = classify(demo_table, all_qi_rules)
    assert classified.primary_qis == {"Weight", "Age", "Gender", "Zipcode"}


# -- rules files ---------------------------------------------------------

def test_parse_rules_round_trip():
    rules = ClassificationRules(
        rules=(Rule("*zip*", ColumnClass.QI, note="postal"),),
        default_class=ColumnClass.NSA,
    )
    assert parse_rules(rules_to_doc(rules)) == rules


def test_load_rules_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"default": "NSA", "rules": [{"match": "age", "class": "QI"}]}))
    rules = load_rules(path)
    assert rules.class_for("Age") is ColumnClass.QI
    assert rules.class_for("other") is ColumnClass.NSA


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"rules": [{"match": "a"}]},
        {"rules": [{"class": "QI"}]},
        {"rules": [{"match": "a", "class": "QQ"}]},
        {"rules": [{"match": "", "class": "QI"}]},
        {"default": "nope"},
        {"rules": {"match": "a", "class": "QI"}},
    ],
)
def test_parse_rules_rejects_malformed(doc):
    with pytest.raises(RulesError):
        parse_rules(doc)


def test_load_rules_missing_file(tmp_path):
    with pytest.raises(RulesError):
        load_rules(tmp_path / "absent.json")


def test_empty_rule_pattern_rejected():
    with pytest.raises(RulesError):
        Rule("", ColumnClass.QI)
