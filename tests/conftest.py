from __future__ import annotations

import random

import numpy as np
import pytest

from qi_sentry import ClassificationRules, ColumnClass, Rule, Table
from qi_sentry.table import canonicalize, code_dtype

# The 5-row worked example: two columns with equal uniqueness but
# different influence, two columns with neither.
DEMO_ROWS = [
    ["72", "45", "M", "75145"],
    ["72", "45", "M", "75145"],
    ["58", "21", "M", "47853"],
    ["45", "21", "F", "47853"],
    ["45", "64", "F", "47853"],
]
DEMO_COLUMNS = ["Weight", "Age", "Gender", "Zipcode"]


@pytest.fixture
def demo_table() -> Table:
    return Table.from_rows("demo", DEMO_COLUMNS, DEMO_ROWS)


@pytest.fixture
def all_qi_rules() -> ClassificationRules:
    return ClassificationRules(
        rules=tuple(Rule(pattern=name.lower(), assign=ColumnClass.QI) for name in DEMO_COLUMNS)
    )


def column_of(cardinality: int, missing: bool, rng: random.Random, repeats: int) -> list:
    """Shuffled cells of exactly ``cardinality`` values, one of them missing if asked."""
    cells: list[str | None] = [f"w{i}" for i in range(cardinality - missing)] + [None] * missing
    cells += rng.choices(cells, k=repeats)
    rng.shuffle(cells)
    return cells


def random_table(
    rng: random.Random,
    max_rows: int = 20,
    max_cols: int = 6,
    alphabet_size: int = 4,
    name: str = "random",
) -> Table:
    """Small random table over a tiny alphabet (plus missing)."""
    n_rows = rng.randint(1, max_rows)
    n_cols = rng.randint(1, max_cols)
    symbols: list[str | None] = [f"s{i}" for i in range(alphabet_size - 1)]
    symbols.append(None)
    rows = [[rng.choice(symbols) for _ in range(n_cols)] for _ in range(n_rows)]
    return Table.from_rows(name, [f"c{i}" for i in range(n_cols)], rows)


def twin_of(table: Table) -> Table:
    """The table rebuilt by ``Table.from_rows`` from its decoded cells.

    Asserts first that each column's values are distinct, canonical (none
    empty or with ASCII whitespace at an edge) and each used by a row,
    and that its codes have the narrowest dtype.
    """
    for values, codes in zip(table.values, table.codes):
        assert len(set(values)) == len(values)
        assert all(canonicalize(v) == v for v in values)
        assert np.bincount(codes, minlength=len(values)).all()
        assert codes.dtype == code_dtype(len(values))
    return Table.from_rows(table.name, table.column_names, zip(*table.cells))
