from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
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
from qi_sentry.generate import MAX_CELLS, MAX_DISTINCT_VALUES, _symbols, load_spec, parse_spec

from conftest import twin_of

ROOT = Path(__file__).resolve().parents[1]


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


def test_symbols_are_v_and_the_number_at_every_digit_boundary():
    numbers = sorted({0, 1, MAX_DISTINCT_VALUES - 1} | {
        edge for d in range(1, 7) for edge in (10**d - 1, 10**d, 10**d + 1)
    })
    keys = _symbols(np.array(numbers))
    assert keys.dtype == np.dtype("S8")
    assert keys.tolist() == [f"v{i}".encode() for i in numbers]
    assert keys[-1] == b"v9999999"  # the widest symbol fills all 8 bytes


def test_generated_values_pass_the_checks_of_from_codes():
    # generate_table skips from_codes; its twin runs every check on the same values
    spec = spec_of(ColumnSpec("a", 1), ColumnSpec("b", 12, "zipf(1.5)"), ColumnSpec("c", 50_000),
                   ColumnSpec("d", 300, "zipf(1.1)"), rows=3_000)
    table = generate_table(spec)
    twin = twin_of(table)
    assert table == twin
    assert [twin.cardinality(p) for p in range(4)] == [table.cardinality(p) for p in range(4)]
    assert [c.dtype for c in twin.codes] == [c.dtype for c in table.codes]


@functools.cache
def _workloads():
    """perfbench/workloads.py, loaded from its path (its dataclasses need it in sys.modules)."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, sha256", [
    ("tall", "c855d8fd72c6eb04415cf7b9c9324de2e40cecf551039c0e6efbc0176ef28365"),
    ("lowcard", "e59b1d3567e5a49c561857b01d28ea369c1626e6acca4e4716792b1f809cf696"),
])
def test_benchmark_tables_keep_their_bytes(name, sha256):
    # at scale: 7-digit symbols, uint16 and int32 codes and many _WRITE_BYTES steps,
    # which the small goldens do not reach
    text = generate_table(_workloads().workload(name, 9901).spec).to_delimited()
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


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


def test_spec_size_is_bounded():
    # criterion 9's 1M x 30 fits; the bounds are inclusive
    SyntheticSpec(rows=1_000_000, columns=tuple(ColumnSpec(f"c{i}", 10_000) for i in range(30)))
    spec_of(ColumnSpec("a", MAX_DISTINCT_VALUES), rows=MAX_CELLS)
    with pytest.raises(InvalidSpec, match="MAX_CELLS"):
        spec_of(ColumnSpec("a", 5), ColumnSpec("b", 5), rows=MAX_CELLS // 2 + 1)
    with pytest.raises(InvalidSpec, match="MAX_DISTINCT_VALUES"):
        ColumnSpec("a", MAX_DISTINCT_VALUES + 1)


def test_distribution_string_validated():
    with pytest.raises(InvalidSpec):
        ColumnSpec("a", 5, "zipfy")
    with pytest.raises(InvalidSpec):
        ColumnSpec("a", 5, "zipf(0)")
    with pytest.raises(InvalidSpec):
        ColumnSpec("a", 5, "zipf(abc)")


@pytest.mark.parametrize("distribution", [5, None, ["zipf(1.2)"], "zipf(1e400)", "zipf(-1e400)"])
def test_distribution_must_be_a_string_with_a_finite_exponent(distribution):
    with pytest.raises(InvalidSpec):
        ColumnSpec("a", 5, distribution)
    with pytest.raises(InvalidSpec):
        parse_spec({"rows": 5, "columns": [{"name": "a", "distinct_values": 5,
                                            "distribution": distribution}]})


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
