"""Brute-force reference implementations of the risk metrics.

Everything here is pure-Python, row-major, O(n^2) pairwise comparison:
no hashing, no sorting, no shared code with the production grouping
engine. Slow on purpose; this is the independent path the engine is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import MetricUndefined
from .table import CellValue, Table


def _projections(table: Table, subset: Iterable[str]) -> list[tuple[CellValue, ...]]:
    positions = sorted(table.position_of(c) for c in set(subset))
    return [tuple(table.cells[p][i] for p in positions) for i in range(table.row_count)]


def oracle_equivalence_class_count(table: Table, subset: Iterable[str]) -> int:
    """Count distinct row projections by comparing every pair of rows."""
    if table.row_count == 0:
        raise MetricUndefined(f"table {table.name!r} has no rows")
    rows = _projections(table, subset)
    count = 0
    for i, row in enumerate(rows):
        if not any(rows[j] == row for j in range(i)):
            count += 1
    return count


def oracle_uniqueness(table: Table, column: str) -> float:
    """Fraction of cells whose value occurs exactly once, by full column scans."""
    if table.row_count == 0:
        raise MetricUndefined(f"table {table.name!r} has no rows")
    cells = table.column_values(column)
    singles = 0
    for value in cells:
        occurrences = sum(1 for other in cells if other == value)
        if occurrences == 1:
            singles += 1
    return singles / table.row_count


def oracle_influence(table: Table, column: str, universe: Iterable[str] | None = None) -> float:
    """Relative drop in class count when ``column`` leaves the universe."""
    position = table.position_of(column)
    names = table.column_names if universe is None else list(universe)
    if position not in {table.position_of(c) for c in names}:
        raise ValueError(f"column {column!r} is not in the universe")
    full = oracle_equivalence_class_count(table, names)
    rest = [c for c in names if table.position_of(c) != position]
    without = oracle_equivalence_class_count(table, rest)
    return 1 - without / full


@dataclass(frozen=True)
class Divergence:
    """First point where engine and oracle disagree."""

    metric: str
    column: str | None
    engine_value: float
    oracle_value: float

    def __str__(self) -> str:
        where = f" column={self.column!r}" if self.column else ""
        return (
            f"divergence in {self.metric}{where}: "
            f"engine={self.engine_value!r} oracle={self.oracle_value!r}"
        )


def first_divergence(table: Table) -> Divergence | None:
    """Cross-check the production engine against the oracle on one table.

    Compares the full-table equivalence-class count, then per-column
    uniqueness and influence (universe = all columns), then the scores
    of the shipped scoring path, ``score_columns``, per column: with
    every column scored, and with the columns at even positions scored
    under both universe policies. Exact equality; returns the first
    mismatch, or None when the paths agree.
    """
    from . import metrics  # late import: the oracle must not depend on engine internals at module level
    from .classifier import ClassifiedTable, ColumnClass

    all_columns = set(table.column_names)
    engine_full = metrics.equivalence_class_count(table, all_columns)
    oracle_full = oracle_equivalence_class_count(table, all_columns)
    if engine_full != oracle_full:
        return Divergence("class_count", None, engine_full, oracle_full)
    unique = {}
    for name in table.column_names:
        eng_u = metrics.uniqueness(table, name)
        unique[name] = oracle_uniqueness(table, name)
        if eng_u != unique[name]:
            return Divergence("uniqueness", name, eng_u, unique[name])
        eng_i = metrics.influence(table, name)
        ora_i = oracle_influence(table, name)
        if eng_i != ora_i:
            return Divergence("influence", name, eng_i, ora_i)

    evens = set(table.column_names[::2])
    runs = [(all_columns, metrics.UniversePolicy.ALL_COLUMNS)]
    runs += [(evens, policy) for policy in metrics.UniversePolicy]
    for scored, policy in runs:
        classified = ClassifiedTable(
            table=table,
            classes={n: ColumnClass.QI if n in scored else ColumnClass.NSA for n in all_columns},
            primary_qis=frozenset(scored),
        )
        universe = scored if policy is metrics.UniversePolicy.PRIMARY_QIS_ONLY else all_columns
        full = oracle_equivalence_class_count(table, universe)
        for score in metrics.score_columns(classified, policy):
            metric = f"score_columns[universe={policy}]"
            if score.uniqueness != unique[score.column]:
                return Divergence(f"{metric}.uniqueness", score.column,
                                  score.uniqueness, unique[score.column])
            ora_i = 1 - oracle_equivalence_class_count(table, universe - {score.column}) / full
            if score.influence != ora_i:
                return Divergence(f"{metric}.influence", score.column, score.influence, ora_i)
    return None
