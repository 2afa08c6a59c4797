"""Per-column re-identifiability metrics.

Two metrics per column, both over exact cell symbols:

* uniqueness: fraction of a column's cells whose value occurs exactly
  once in that column. The denominator is the row count, not the
  distinct-value count: a 5-row column holding three distinct values,
  one of which appears once, scores 1/5.
* influence: relative drop in the number of equivalence classes when
  the column is removed from the universe, 1 - N(U - {c}) / N(U),
  where N(S) counts distinct row projections onto the column set S and
  N of the empty set is 1 (no columns leaves all rows indistinguishable).

A column's re-identifiability score is the unrounded sum of the two.
Columns whose score is strictly positive survive as secondary QIs.

The grouping engine reads the integer codes the table stores for each
column (see :mod:`qi_sentry.table`) and counts distinct rows per subset
by combining them in mixed radix, recompressing whenever the radix
product would overflow. Uniqueness counts the codes with
``np.bincount``. Scoring a table costs one full-universe grouping plus
one grouping per scored column.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .classifier import ClassifiedTable
from .errors import MetricUndefined
from .table import Table

# Keep combined group keys comfortably inside int64.
_RADIX_LIMIT = 2**62


class UniversePolicy(str, Enum):
    """Which columns form the universe T for influence."""

    ALL_COLUMNS = "all"      # matches the source method: T is the whole table
    PRIMARY_QIS_ONLY = "qi"  # analysts excluding DIDs already slated for deletion

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RiskScore:
    """Uniqueness, influence, and their sum for one column."""

    column: str
    uniqueness: float
    influence: float
    sum: float

    @classmethod
    def of(cls, column: str, uniqueness: float, influence: float) -> "RiskScore":
        return cls(column, uniqueness, influence, uniqueness + influence)


@dataclass(frozen=True)
class EquivalenceCount:
    """N(subset): number of equivalence classes under a column subset."""

    subset: frozenset[str]
    count: int


class GroupingEngine:
    """Counts equivalence classes over column subsets of one table.

    Works on the table's stored codes and keeps no state of its own, so
    one engine may serve several threads at once.
    """

    def __init__(self, table: Table):
        self._table = table

    def prime(self, columns: Iterable[str]) -> None:
        """Check that ``columns`` exist; there is nothing left to prepare.

        Kept for callers that prime an engine before counting, such as
        the benchmark's traced run, which times this call as the
        factorize step.
        """
        for name in columns:
            self._table.position_of(name)

    def class_count(self, subset: Iterable[str]) -> int:
        if self._table.row_count == 0:
            raise MetricUndefined(f"table {self._table.name!r} has no rows")
        positions = sorted({self._table.position_of(c) for c in subset})
        if not positions:
            return 1
        values, codes = self._table.values, self._table.codes
        if len(positions) == 1:
            return len(values[positions[0]])

        # widen before the first multiply: int32 codes would wrap
        group_ids = codes[positions[0]].astype(np.int64)
        radix = len(values[positions[0]])
        for position in positions[1:]:
            cardinality = len(values[position])
            if radix > _RADIX_LIMIT // max(cardinality, 1):
                uniques, group_ids = np.unique(group_ids, return_inverse=True)
                radix = len(uniques)
            group_ids = group_ids * cardinality + codes[position]
            radix *= cardinality
        return int(np.unique(group_ids).size)

    def equivalence_count(self, subset: Iterable[str]) -> EquivalenceCount:
        names = frozenset(self._table.columns[self._table.position_of(c)].name for c in subset)
        return EquivalenceCount(subset=names, count=self.class_count(names))


def uniqueness(table: Table, column: str) -> float:
    """Fraction of cells occurring exactly once; missing is one shared symbol."""
    codes = table.codes[table.position_of(column)]
    if table.row_count == 0:
        raise MetricUndefined(f"table {table.name!r} has no rows")
    singles = int(np.count_nonzero(np.bincount(codes) == 1))
    return singles / table.row_count


def equivalence_class_count(table: Table, subset: Iterable[str]) -> int:
    """Number of distinct row projections onto ``subset``; N(empty) is 1."""
    return GroupingEngine(table).class_count(subset)


def influence(table: Table, column: str, universe: Iterable[str] | None = None) -> float:
    """1 - N(universe - {column}) / N(universe); universe defaults to all columns."""
    names = set(universe) if universe is not None else set(table.column_names)
    if column not in names:
        raise ValueError(f"column {column!r} is not in the universe")
    engine = GroupingEngine(table)
    full = engine.class_count(names)
    without = engine.class_count(names - {column})
    return 1 - without / full


def score_columns(
    classified: ClassifiedTable,
    universe_policy: UniversePolicy = UniversePolicy.ALL_COLUMNS,
    max_workers: int | None = None,
) -> list[RiskScore]:
    """Score every primary QI column, in column-position order.

    ``max_workers`` > 1 computes per-column influence on a thread pool;
    results are identical to the serial path.
    """
    table = classified.table
    if table.row_count == 0:
        raise MetricUndefined(f"table {table.name!r} has no rows")

    scored = [m.name for m in table.columns if m.name in classified.primary_qis]
    if universe_policy is UniversePolicy.PRIMARY_QIS_ONLY:
        universe = set(scored)
    else:
        universe = set(table.column_names)

    engine = GroupingEngine(table)
    full = engine.class_count(universe)

    def score_one(name: str) -> RiskScore:
        without = engine.class_count(universe - {name})
        return RiskScore.of(name, uniqueness(table, name), 1 - without / full)

    if max_workers and max_workers > 1 and len(scored) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(score_one, scored))
    return [score_one(name) for name in scored]


def secondary_qis(scores: Sequence[RiskScore]) -> set[str]:
    """Columns whose re-identifiability score is strictly positive.

    A column with zero uniqueness and zero influence cannot tell anyone
    apart and is dropped here.
    """
    return {s.column for s in scores if s.sum > 0}


# -- rendering ----------------------------------------------------------

def fmt4(value: float) -> str:
    return f"{value:.4f}"


def scores_to_tsv(table_name: str, scores: Sequence[RiskScore]) -> str:
    lines = ["table\tcolumn\tuniqueness\tinfluence\tsum"]
    for s in scores:
        lines.append(
            f"{table_name}\t{s.column}\t{fmt4(s.uniqueness)}\t{fmt4(s.influence)}\t{fmt4(s.sum)}"
        )
    return "\n".join(lines) + "\n"


def scores_to_json(table_name: str, scores: Sequence[RiskScore]) -> str:
    rows = [
        {
            "table": table_name,
            "column": s.column,
            "uniqueness": round(s.uniqueness, 4),
            "influence": round(s.influence, 4),
            "sum": round(s.sum, 4),
        }
        for s in scores
    ]
    return json.dumps(rows, indent=2) + "\n"
