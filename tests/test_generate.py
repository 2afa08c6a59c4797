from __future__ import annotations

import json

import pytest

from qi_sentry import (
    ColumnClass,
    ColumnSpec,
    InvalidSpec,
    SyntheticSpec,
    generate_table,
    rules_for_spec,
    uniqueness,
)
from qi_sentry.generate import load_spec, parse_spec


def spec_of(*columns: ColumnSpec, rows=100, seed=7, name="syn") -> SyntheticSpec:
    return SyntheticSpec(rows=rows, columns=columns, seed=seed, name=name)


def test_generation_is_deterministic():
    spec = spec_of(ColumnSpec("a", 5), ColumnSpec("b", 3, "zipf(1.2)"), rows=50)
    first = generate_table(spec)
    second = generate_table(spec)
    assert first == second
    assert first.to_delimited() == second.to_delimited()


def test_seed_changes_output():
    base = spec_of(ColumnSpec("a", 50), rows=50)
    other = spec_of(ColumnSpec("a", 50), rows=50, seed=8)
    assert generate_table(base) != generate_table(other)


def test_constant_column_has_zero_uniqueness():
    table = generate_table(spec_of(ColumnSpec("a", 1), rows=100))
    assert uniqueness(table, "a") == 0.0


def test_values_come_from_the_declared_alphabet():
    table = generate_table(spec_of(ColumnSpec("a", 3), rows=200))
    assert set(table.column_values("a")) <= {"v0", "v1", "v2"}


def test_only_drawn_symbols_are_stored():
    # cardinality is read as the number of stored values, so none may be unused
    table = generate_table(spec_of(ColumnSpec("a", 10_000), rows=50))
    values = table.values[table.position_of("a")]
    assert len(values) == len(set(table.column_values("a"))) <= 50


def test_zipf_skews_toward_low_ranks():
    table = generate_table(spec_of(ColumnSpec("a", 100, "zipf(2.0)"), rows=2000))
    values = table.column_values("a")
    head = sum(1 for v in values if v == "v0")
    tail = sum(1 for v in values if v == "v99")
    assert head > tail


def test_zipf_column_uniqueness_strictly_between_zero_and_one():
    # heavy head guarantees repeats, heavy tail guarantees singletons
    table = generate_table(spec_of(ColumnSpec("a", 5000, "zipf(1.2)"), rows=10000))
    u = uniqueness(table, "a")
    assert 0.0 < u < 1.0


def test_rows_match_spec():
    table = generate_table(spec_of(ColumnSpec("a", 5), rows=17))
    assert table.row_count == 17
    assert table.name == "syn"


def test_rules_for_spec_uses_class_hints():
    spec = spec_of(
        ColumnSpec("age", 10, class_hint=ColumnClass.QI),
        ColumnSpec("note", 10),
        ColumnSpec("mrn", 10, class_hint=ColumnClass.DID),
    )
    rules = rules_for_spec(spec)
    assert rules.class_for("age") is ColumnClass.QI
    assert rules.class_for("mrn") is ColumnClass.DID
    assert rules.class_for("note") is ColumnClass.NSA


# -- validation ---------------------------------------------------------------

def test_rows_must_be_positive():
    with pytest.raises(InvalidSpec):
        spec_of(ColumnSpec("a", 5), rows=0)


def test_at_least_one_column():
    with pytest.raises(InvalidSpec):
        SyntheticSpec(rows=5, columns=())


def test_distinct_values_must_be_positive():
    with pytest.raises(InvalidSpec):
        ColumnSpec("a", 0)


def test_distribution_string_validated():
    with pytest.raises(InvalidSpec):
        ColumnSpec("a", 5, "zipfy")
    with pytest.raises(InvalidSpec):
        ColumnSpec("a", 5, "zipf(0)")
    with pytest.raises(InvalidSpec):
        ColumnSpec("a", 5, "zipf(abc)")


def test_duplicate_column_names_rejected():
    with pytest.raises(InvalidSpec):
        spec_of(ColumnSpec("a", 5), ColumnSpec("A", 5))


# -- spec files -----------------------------------------------------------------

VALID_DOC = {
    "rows": 10,
    "seed": 3,
    "name": "t",
    "columns": [
        {"name": "a", "distinct_values": 4},
        {"name": "b", "distinct_values": 9, "distribution": "zipf(1.5)", "class_hint": "QI"},
    ],
}


def test_parse_spec_valid():
    spec = parse_spec(VALID_DOC)
    assert spec.rows == 10
    assert spec.columns[1].zipf_s == 1.5
    assert spec.columns[1].class_hint is ColumnClass.QI
    assert spec.columns[0].class_hint is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("rows"),
        lambda d: d.pop("columns"),
        lambda d: d.update(rows="many"),
        lambda d: d.update(seed=1.5),
        lambda d: d.update(columns=[{"name": "a"}]),
        lambda d: d.update(columns=[{"distinct_values": 3}]),
        lambda d: d.update(columns=[{"name": "a", "distinct_values": "lots"}]),
        lambda d: d.update(columns=[{"name": "a", "distinct_values": 3, "class_hint": "XX"}]),
    ],
)
def test_parse_spec_rejects_malformed(mutate):
    doc = json.loads(json.dumps(VALID_DOC))
    mutate(doc)
    with pytest.raises(InvalidSpec):
        parse_spec(doc)


def test_load_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(VALID_DOC))
    assert load_spec(path) == parse_spec(VALID_DOC)


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(InvalidSpec):
        load_spec(tmp_path / "absent.json")
