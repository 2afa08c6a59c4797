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
This module computes and does not format: a :class:`RiskScore` holds
full floats and its exact counts, and :mod:`qi_sentry.cli` rounds and
renders them.

Grouping reads the integer codes the table stores for each column (see
:mod:`qi_sentry.table`). Its one folding step is :func:`_pair_ids`: it
gives every distinct pair of (group id, code) a dense id. Folding
columns in one at a time counts N(S) for any subset; once every row is
a group of its own the fold stops, since more columns cannot split
anything. Scoring m columns folds the universe columns that are not
scored into one block, then finds all m counts N(U - {c}) with a
halving recursion of about m log2 m folds. A node of that recursion
whose key space (its group count times each of its columns'
cardinalities) is at most ``_SORT_FREE_FACTOR * n``, and below 2**31,
folds nothing: it marks each row's mixed-radix ``int32`` key in one
occupancy array and reads every count off that array, one reduction
over a column's axis per column.
Uniqueness counts the codes with ``np.bincount``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .classifier import ClassifiedTable
from .errors import MetricUndefined
from .table import _SORT_FREE_FACTOR, Table, densify

# Group ids of a subset, and how many groups there are; no columns put
# every row in one group, which needs no ids.
_Grouping = tuple[np.ndarray | None, int]
_ONE_GROUP: _Grouping = (None, 1)


class UniversePolicy(str, Enum):
    """Which columns form the universe T for influence."""

    ALL_COLUMNS = "all"      # matches the source method: T is the whole table
    PRIMARY_QIS_ONLY = "qi"  # analysts excluding DIDs already slated for deletion

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ScoreCounts:
    """The integers one score is computed from.

    Uniqueness is ``singles / rows`` and influence is
    ``1 - without / full``, with ``full`` = N(T) and ``without`` =
    N(T - c).
    """

    singles: int
    rows: int
    full: int
    without: int

    def exact_sum(self) -> Fraction:
        return Fraction(self.singles, self.rows) + 1 - Fraction(self.without, self.full)


@dataclass(frozen=True)
class RiskScore:
    """Uniqueness, influence, and their sum for one column.

    ``counts`` holds the exact integers behind a computed score; it
    takes no part in equality, so a score compares by its values alone.
    """

    column: str
    uniqueness: float
    influence: float
    sum: float
    counts: ScoreCounts | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, column: str, uniqueness: float, influence: float) -> "RiskScore":
        return cls(column, uniqueness, influence, uniqueness + influence)

    @classmethod
    def from_counts(cls, column: str, counts: ScoreCounts) -> "RiskScore":
        uniqueness = counts.singles / counts.rows
        influence = 1 - counts.without / counts.full
        return cls(column, uniqueness, influence, uniqueness + influence, counts)


def _pair_ids(
    a: np.ndarray, card_a: int, b: np.ndarray, card_b: int, n: int
) -> tuple[np.ndarray, int]:
    """Dense ids of the (a, b) pairs of ``n`` rows, and how many there are.

    ``a`` and ``b`` hold dense ids in [0, card_a) and [0, card_b), and
    neither count exceeds ``n``, so every pair key a * card_b + b stays
    below n**2, within int64 for any n below 2**31. A key space of at
    most ``_SORT_FREE_FACTOR * n`` is densified without a sort
    (:func:`qi_sentry.table.densify`); a larger one goes through np.unique.
    """
    keys = np.multiply(a, card_b, dtype=np.int64)
    keys += b
    space = card_a * card_b
    if space <= _SORT_FREE_FACTOR * n:
        seen, ids = densify(keys, space)
        return ids, int(np.count_nonzero(seen))
    uniques, ids = np.unique(keys, return_inverse=True)
    return ids, len(uniques)


def _fold(table: Table, grouping: _Grouping, positions: Iterable[int]) -> _Grouping:
    """The grouping refined by the columns at ``positions``, one at a time.

    Stops once every row is a group of its own: no further column can
    split one.
    """
    ids, count = grouping
    n = table.row_count
    for position in positions:
        if count == n:
            break
        codes, card = table.codes[position], table.cardinality(position)
        if ids is None:
            ids, count = codes, card
        else:
            ids, count = _pair_ids(ids, count, codes, card, n)
    return ids, count


def _occupancy_counts(
    table: Table, grouping: _Grouping, positions: Sequence[int], space: int
) -> tuple[list[int], int]:
    """Leave-one-out class counts, and the full one, from one occupancy array.

    Gives every row one mixed-radix key over ``space`` values: its group
    id, then each position's code. The occupied keys are the classes of
    the full grouping; viewed as (before, card, after), the classes
    without a position are the (before, after) cells with any key set.
    ``space`` is below 2**31, so the keys are ``int32``.
    """
    ids, count = grouping
    keys = np.zeros(table.row_count, dtype=np.int32) if ids is None else ids.astype(np.int32)
    cards = [table.cardinality(p) for p in positions]
    for position, card in zip(positions, cards):
        keys *= card
        keys += table.codes[position]
    seen = np.zeros(space, dtype=bool)
    seen[keys] = True
    counts, before, after = [], count, space // count
    for card in cards:
        after //= card
        counts.append(int(np.count_nonzero(seen.reshape(before, card, after).any(axis=1))))
        before *= card
    return counts, int(np.count_nonzero(seen))


def _leave_one_out(
    table: Table, grouping: _Grouping, positions: Sequence[int], with_full: bool
) -> tuple[list[int], int | None]:
    """Class counts of ``grouping`` plus ``positions`` minus each position.

    Also returns the count with every position folded in when
    ``with_full`` is set, else None. A node whose key space, the group
    count times each position's cardinality, is at most
    ``_SORT_FREE_FACTOR * n`` and below 2**31 takes all its counts from
    one occupancy array (:func:`_occupancy_counts`). A larger one splits
    ``positions`` into halves, folds the right half into ``grouping`` and
    recurses on the left, then the other way round: about m log2 m folds
    for m positions, with O(log m) id arrays alive at a time.
    """
    n = table.row_count
    if grouping[1] == n:
        return [n] * len(positions), n
    if len(positions) == 1:
        full = _fold(table, grouping, positions)[1] if with_full else None
        return [grouping[1]], full
    space = grouping[1] * math.prod(table.cardinality(p) for p in positions)
    if space <= _SORT_FREE_FACTOR * n and space < 1 << 31:
        counts, full = _occupancy_counts(table, grouping, positions, space)
        return counts, full if with_full else None
    half = len(positions) // 2
    left, right = positions[:half], positions[half:]
    left_counts, full = _leave_one_out(table, _fold(table, grouping, right), left, with_full)
    right_counts, _ = _leave_one_out(table, _fold(table, grouping, left), right, False)
    return left_counts + right_counts, full


def _singles(table: Table, position: int) -> int:
    """Number of the column's values that occur exactly once."""
    return int(np.count_nonzero(np.bincount(table.codes[position]) == 1))


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
        return _fold(self._table, _ONE_GROUP, positions)[1]


def uniqueness(table: Table, column: str) -> float:
    """Fraction of cells occurring exactly once; missing is one shared symbol."""
    position = table.position_of(column)
    if table.row_count == 0:
        raise MetricUndefined(f"table {table.name!r} has no rows")
    return _singles(table, position) / table.row_count


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

    Each score carries its exact counts (:class:`ScoreCounts`).
    ``max_workers`` is accepted for older callers and changes nothing:
    scoring runs on one thread.
    """
    table = classified.table
    if table.row_count == 0:
        raise MetricUndefined(f"table {table.name!r} has no rows")

    scored = [p for p, m in enumerate(table.columns) if m.name in classified.primary_qis]
    if not scored:
        return []
    if universe_policy is UniversePolicy.PRIMARY_QIS_ONLY:
        rest = []
    else:
        rest = [p for p, m in enumerate(table.columns) if m.name not in classified.primary_qis]
    withouts, full = _leave_one_out(table, _fold(table, _ONE_GROUP, rest), scored, True)
    return [
        RiskScore.from_counts(
            table.columns[p].name,
            ScoreCounts(_singles(table, p), table.row_count, full, without),
        )
        for p, without in zip(scored, withouts)
    ]


def secondary_qis(scores: Sequence[RiskScore]) -> set[str]:
    """Columns whose re-identifiability score is strictly positive.

    A column with zero uniqueness and zero influence cannot tell anyone
    apart and is dropped here.
    """
    return {s.column for s in scores if s.sum > 0}
