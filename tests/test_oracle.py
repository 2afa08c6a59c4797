from __future__ import annotations

import random

import pytest

from qi_sentry import MetricUndefined, Table
from qi_sentry.oracle import (
    Divergence,
    first_divergence,
    oracle_equivalence_class_count,
    oracle_influence,
    oracle_uniqueness,
)

from conftest import random_table


def test_oracle_reproduces_demo_values(demo_table):
    assert oracle_uniqueness(demo_table, "Weight") == 0.2
    assert oracle_uniqueness(demo_table, "Age") == 0.2
    assert oracle_uniqueness(demo_table, "Gender") == 0.0
    assert oracle_equivalence_class_count(demo_table, demo_table.column_names) == 4
    assert oracle_influence(demo_table, "Age") == 0.25
    assert oracle_influence(demo_table, "Weight") == 0.0


def test_oracle_empty_subset_is_one_class(demo_table):
    assert oracle_equivalence_class_count(demo_table, set()) == 1


def test_oracle_empty_table_undefined():
    with pytest.raises(MetricUndefined):
        oracle_equivalence_class_count(Table.from_rows("t", ["a"], []), {"a"})
    with pytest.raises(MetricUndefined):
        oracle_uniqueness(Table.from_rows("t", ["a"], []), "a")


def test_oracle_influence_requires_column_in_universe(demo_table):
    with pytest.raises(ValueError):
        oracle_influence(demo_table, "Weight", {"Age"})


def test_engine_matches_oracle_on_demo(demo_table):
    assert first_divergence(demo_table) is None


def test_engine_matches_oracle_on_random_tables():
    rng = random.Random(424242)
    for _ in range(60):
        assert first_divergence(random_table(rng)) is None


def test_corrupted_engine_is_caught(demo_table, monkeypatch):
    import qi_sentry.metrics as metrics

    real = metrics.uniqueness
    monkeypatch.setattr(
        metrics, "uniqueness", lambda table, column: real(table, column) + 0.5
    )
    divergence = first_divergence(demo_table)
    assert divergence is not None
    assert divergence.metric == "uniqueness"
    assert "divergence" in str(divergence)


def test_corrupted_class_count_is_caught(demo_table, monkeypatch):
    import qi_sentry.metrics as metrics

    monkeypatch.setattr(metrics, "equivalence_class_count", lambda table, subset: 99)
    divergence = first_divergence(demo_table)
    assert divergence == Divergence("class_count", None, 99, 4)


def test_corrupted_leave_one_out_is_caught_by_score_columns_check(demo_table, monkeypatch):
    # the single-column helpers take the recursion with one position,
    # where reversing the counts changes nothing, so only the check of
    # score_columns can see this
    import qi_sentry.metrics as metrics

    real = metrics._leave_one_out
    monkeypatch.setattr(
        metrics, "_leave_one_out",
        lambda *args: (lambda counts, full: (counts[::-1], full))(*real(*args)),
    )
    divergence = first_divergence(demo_table)
    assert divergence is not None
    assert divergence.metric == "score_columns[universe=all].influence"


def test_qi_universe_is_under_the_gate(demo_table, monkeypatch):
    import dataclasses

    import qi_sentry.metrics as metrics

    real = metrics.score_columns

    def off_under_qi(classified, policy=metrics.UniversePolicy.ALL_COLUMNS, max_workers=None):
        scores = real(classified, policy)
        if policy is metrics.UniversePolicy.PRIMARY_QIS_ONLY:
            scores = [dataclasses.replace(s, influence=s.influence + 0.125) for s in scores]
        return scores

    monkeypatch.setattr(metrics, "score_columns", off_under_qi)
    divergence = first_divergence(demo_table)
    assert divergence is not None
    assert divergence.metric == "score_columns[universe=qi].influence"
