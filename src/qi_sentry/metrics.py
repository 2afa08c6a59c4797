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
gives every distinct pair of (group id, code) a dense id, by the one
factorization ingest merges keys with (:func:`qi_sentry.table._factorize`).
A row alone in its group stays alone under any further column, so after
each fold the groups of one row are dropped and only counted ("settled"):
later folds read the rows left in shared groups, and once none is left
the fold stops. Every count comes through :func:`_counts`: it folds the
columns not scored into one block, then finds N(S) and each N(S - {c})
of m scored columns with a halving recursion of about m log2 m folds,
whose last fold is only counted and drops nothing. ``score_columns``
scores every primary QI, ``influence`` its one column, and
``equivalence_class_count`` a subset's last column. A node of that
recursion whose key space (its shared group count times each of its
columns' cardinalities) is at most ``table._SORT_FREE_FACTOR`` times its
rows left, and below 2**31, folds nothing: it marks each row's
mixed-radix ``int32`` key in one occupancy array and reads every count
off that array, one reduction over a column's axis per column, plus the
settled groups.
Uniqueness counts the codes with ``np.bincount``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import table as table_module
from .classifier import ClassifiedTable
from .errors import MetricUndefined
from .table import Table, _factorize

# The groups of a subset, less those of one row: the rows still in a
# shared group (None for every row), their group ids in [0, count), the
# count of shared groups, and the number of single-row groups dropped,
# "settled". No columns put every row in one group, which needs no ids.
_Grouping = tuple[np.ndarray | None, np.ndarray | None, int, int]
_ONE_GROUP: _Grouping = (None, None, 1, 0)


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


def _pair_ids(a: np.ndarray, b: np.ndarray, card_b: int) -> tuple[np.ndarray, int]:
    """Dense ids of the (a, b) pairs of rows, and how many there are.

    ``b`` holds ids in [0, card_b), and neither ``a``'s ids nor ``card_b``
    exceeds the table's rows, so every pair key a * card_b + b stays
    within int64 for any table below 2**31 rows. The keys go through
    the one factorization of ingest and grouping
    (:func:`qi_sentry.table._factorize`): with no sort while their span
    holds at most ``_SORT_FREE_FACTOR`` values per row, and the ids are
    their ``int32`` ranks either way.
    """
    keys = np.multiply(a, card_b, dtype=np.int64)
    keys += b
    distinct, ids = _factorize(keys)
    return ids, len(distinct)


def _codes(table: Table, position: int, rows: np.ndarray | None) -> np.ndarray:
    """The column's codes at ``rows``, or at every row for None."""
    codes = table.codes[position]
    return codes if rows is None else codes[rows]


def _class_count(grouping: _Grouping) -> int:
    """The groups of ``grouping``: its shared ones and its settled ones."""
    return grouping[2] + grouping[3]


def _settle(grouping: _Grouping) -> _Grouping:
    """``grouping`` with its groups of one row dropped and counted as settled.

    The shared groups left are numbered densely again, in their order.
    A function of its own, so its temporaries are freed before the next fold.
    """
    rows, ids, count, settled = grouping
    shared = np.bincount(ids, minlength=count) > 1
    dropped = count - int(np.count_nonzero(shared))
    if dropped:
        keep = shared[ids]
        rows = np.flatnonzero(keep) if rows is None else rows[keep]
        ids = np.cumsum(shared, dtype=np.int32)[ids[keep]]
        ids -= 1
    return rows, ids, count - dropped, settled + dropped


def _pair(table: Table, grouping: _Grouping, position: int) -> _Grouping:
    """The grouping refined by the column at ``position``, its groups of one row kept."""
    rows, ids, count, settled = grouping
    codes, card = _codes(table, position, rows), table.cardinality(position)
    if ids is None:
        return rows, codes, card, settled
    return rows, *_pair_ids(ids, codes, card), settled


def _fold(table: Table, grouping: _Grouping, positions: Iterable[int]) -> _Grouping:
    """The grouping refined by the columns at ``positions``, one at a time.

    After each column, the groups of one row leave the grouping and are
    counted as settled (:func:`_settle`), since no further column can
    split one. The fold stops once no row is left.
    """
    for position in positions:
        if grouping[2] == 0:
            break
        grouping = _settle(_pair(table, grouping, position))
    return grouping


def _occupancy_counts(
    table: Table, grouping: _Grouping, positions: Sequence[int], space: int
) -> tuple[list[int], int]:
    """Leave-one-out class counts, and the full one, from one occupancy array.

    Gives every row left in ``grouping`` one mixed-radix key over
    ``space`` values: its group id, then each position's code. The
    occupied keys are the shared groups of the full grouping; viewed as
    (before, card, after), the groups without a position are the
    (before, after) cells with any key set. Every count adds the
    grouping's settled groups, which no position splits. ``space`` is
    below 2**31, so the keys are ``int32``.
    """
    rows, ids, count, settled = grouping
    keys = np.zeros(table.row_count, dtype=np.int32) if ids is None else ids.astype(np.int32)
    cards = [table.cardinality(p) for p in positions]
    for position, card in zip(positions, cards):
        keys *= card
        keys += _codes(table, position, rows)
    seen = np.zeros(space, dtype=bool)
    seen[keys] = True
    counts, before, after = [], count, space // count
    for card in cards:
        after //= card
        classes = seen.reshape(before, card, after).any(axis=1)
        counts.append(settled + int(np.count_nonzero(classes)))
        before *= card
    return counts, settled + int(np.count_nonzero(seen))


def _leave_one_out(
    table: Table, grouping: _Grouping, positions: Sequence[int], with_full: bool
) -> tuple[list[int], int | None]:
    """Class counts of ``grouping`` plus ``positions`` minus each position.

    Also returns the count with every position folded in when
    ``with_full`` is set, else None. A grouping with no row left in a
    shared group, or no position to add, has every count at its own
    class count. One position's full count pairs it in and counts the
    pairs, settling nothing. A node whose key space, the shared group count times each
    position's cardinality, is at most ``table._SORT_FREE_FACTOR`` times
    its rows left and below 2**31 takes all its counts from one
    occupancy array (:func:`_occupancy_counts`). A larger one splits
    ``positions`` into halves, folds the right half into ``grouping``
    and recurses on the left, then the other way round: about m log2 m
    folds for m positions, with O(log m) groupings alive at a time, each
    over the rows its folds left.
    """
    rows, _, count, settled = grouping
    if count == 0 or not positions:
        return [settled] * len(positions), _class_count(grouping)
    if len(positions) == 1:
        full = _class_count(_pair(table, grouping, positions[0])) if with_full else None
        return [_class_count(grouping)], full
    n = table.row_count if rows is None else len(rows)
    space = count * math.prod(table.cardinality(p) for p in positions)
    if space <= table_module._SORT_FREE_FACTOR * n and space < 1 << 31:
        counts, full = _occupancy_counts(table, grouping, positions, space)
        return counts, full if with_full else None
    half = len(positions) // 2
    left, right = positions[:half], positions[half:]
    left_counts, full = _leave_one_out(table, _fold(table, grouping, right), left, with_full)
    right_counts, _ = _leave_one_out(table, _fold(table, grouping, left), right, False)
    return left_counts + right_counts, full


def _counts(table: Table, rest: Iterable[int], scored: Sequence[int]) -> tuple[list[int], int]:
    """N(S - {c}) for each position c in ``scored``, and N(S), for S = ``rest`` + ``scored``.

    The one entry to counting: ``rest`` is folded first, into one grouping.
    """
    if table.row_count == 0:
        raise MetricUndefined(f"table {table.name!r} has no rows")
    return _leave_one_out(table, _fold(table, _ONE_GROUP, rest), scored, True)


def _singles(table: Table, position: int) -> int:
    """Number of the column's values that occur exactly once."""
    return int(np.count_nonzero(np.bincount(table.codes[position]) == 1))


class GroupingEngine:
    """Counts equivalence classes over column subsets of one table.

    Kept, with :meth:`prime` and ``score_columns(max_workers=)``, only
    for the benchmark's traced replay of an older pipeline; everything
    else calls :func:`equivalence_class_count`.
    """

    def __init__(self, table: Table):
        self._table = table

    def prime(self, columns: Iterable[str]) -> None:
        """Check that ``columns`` exist; there is nothing left to prepare."""
        for name in columns:
            self._table.position_of(name)

    def class_count(self, subset: Iterable[str]) -> int:
        return equivalence_class_count(self._table, subset)


def uniqueness(table: Table, column: str) -> float:
    """Fraction of cells occurring exactly once; missing is one shared symbol."""
    position = table.position_of(column)
    if table.row_count == 0:
        raise MetricUndefined(f"table {table.name!r} has no rows")
    return _singles(table, position) / table.row_count


def equivalence_class_count(table: Table, subset: Iterable[str]) -> int:
    """Number of distinct row projections onto ``subset``; N(empty) is 1."""
    positions = sorted({table.position_of(c) for c in subset})
    return _counts(table, positions[:-1], positions[-1:])[1]


def influence(table: Table, column: str, universe: Iterable[str] | None = None) -> float:
    """1 - N(universe - {column}) / N(universe); universe defaults to all columns."""
    position = table.position_of(column)
    within = {table.position_of(c) for c in (table.column_names if universe is None else universe)}
    if position not in within:
        raise ValueError(f"column {column!r} is not in the universe")
    (without,), full = _counts(table, sorted(within - {position}), [position])
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
    withouts, full = _counts(table, rest, scored)
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
