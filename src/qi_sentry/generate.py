"""Seeded synthetic tables for desk-scale experiments and benchmarks.

Columns draw from a fixed alphabet of ``distinct_values`` symbols,
either uniformly or with zipf(s) rank skew (probability of rank r
proportional to r**-s). Zipf columns are the interesting ones: a heavy
head guarantees repeated values while the tail contributes singletons,
which is exactly the regime where uniqueness and influence diverge.

Generation is deterministic for a given spec: same spec + seed, same
bytes out.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import ClassificationRules, ColumnClass, Rule
from .errors import InvalidSpec, read_json
from .table import Table, _Keys, canonicalize, densify

_ZIPF_RE = re.compile(r"^zipf\(\s*([0-9.eE+-]+)\s*\)$")
_GLOB_CHARS = re.compile(r"[*?[]")

# Specs are bounded before anything is drawn, so an oversized one is an
# InvalidSpec and not a MemoryError or a killed process. A table holds a
# code of 1 to 4 bytes per cell: at most 400 MB at MAX_CELLS, which admits
# 1M rows x 30 columns three times over. Drawing a column allocates int64
# and float64 arrays over its whole alphabet: 80 MB each at MAX_DISTINCT_VALUES,
# which also keeps every symbol within 8 bytes (v9999999).
MAX_CELLS = 100_000_000
MAX_DISTINCT_VALUES = 10_000_000


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    distinct_values: int
    distribution: str = "uniform"  # "uniform" or "zipf(s)", e.g. "zipf(1.2)"
    class_hint: ColumnClass | None = None

    def __post_init__(self):
        if self.name != canonicalize(self.name):
            # a header cell is read back trimmed, and an empty one is rejected
            raise InvalidSpec(
                f"column name must be non-empty, without leading or trailing whitespace, "
                f"got {self.name!r}"
            )
        if "\r" in self.name or "\n" in self.name:
            raise InvalidSpec(f"column name cannot hold a line break, got {self.name!r}")
        try:
            self.name.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, such as from a JSON "\udcff" escape
            raise InvalidSpec(
                f"column name cannot be encoded in UTF-8, got {self.name!r}"
            ) from None
        if not 1 <= self.distinct_values <= MAX_DISTINCT_VALUES:
            raise InvalidSpec(
                f"column {self.name!r}: distinct_values must be from 1 to "
                f"MAX_DISTINCT_VALUES = {MAX_DISTINCT_VALUES}, got {self.distinct_values}"
            )
        self.zipf_s  # validate the distribution string eagerly

    @property
    def zipf_s(self) -> float | None:
        """Zipf exponent, or None for uniform."""
        if self.distribution == "uniform":
            return None
        m = _ZIPF_RE.match(self.distribution) if isinstance(self.distribution, str) else None
        if not m:
            raise InvalidSpec(
                f"column {self.name!r}: distribution must be 'uniform' or 'zipf(s)', "
                f"got {self.distribution!r}"
            )
        try:
            s = float(m.group(1))
        except ValueError:
            raise InvalidSpec(f"column {self.name!r}: bad zipf exponent") from None
        if not 0 < s < math.inf:
            raise InvalidSpec(
                f"column {self.name!r}: zipf exponent must be positive and finite, got {s}"
            )
        return s


@dataclass(frozen=True)
class SyntheticSpec:
    rows: int
    columns: tuple[ColumnSpec, ...]
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        if self.rows < 1:
            raise InvalidSpec(f"rows must be positive, got {self.rows}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")
        if not self.columns:
            raise InvalidSpec("spec must declare at least one column")
        if self.rows * len(self.columns) > MAX_CELLS:
            raise InvalidSpec(
                f"rows x columns must be at most MAX_CELLS = {MAX_CELLS}, "
                f"got {self.rows} x {len(self.columns)}"
            )
        seen = set()
        for col in self.columns:
            if col.name.lower() in seen:
                raise InvalidSpec(f"duplicate column name {col.name!r}")
            seen.add(col.name.lower())


def _sample_codes(rng: np.random.Generator, spec: ColumnSpec, rows: int) -> np.ndarray:
    if spec.zipf_s is None:
        return rng.integers(0, spec.distinct_values, size=rows)
    ranks = np.arange(1, spec.distinct_values + 1, dtype=np.float64)
    weights = ranks ** -spec.zipf_s
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = 1.0  # guard against rounding just below 1
    return np.searchsorted(cumulative, rng.random(rows), side="right")


def _symbols(numbers: np.ndarray) -> np.ndarray:
    """``f"v{i}".encode()`` for each of the ascending ``numbers``, as ``S8`` keys.

    Each digit count is one slice of ``numbers``; below MAX_DISTINCT_VALUES
    a symbol has at most 8 bytes.
    """
    keys = np.zeros((len(numbers), 8), dtype=np.uint8)
    keys[:, 0] = ord("v")
    starts = [0, *np.searchsorted(numbers, 10 ** np.arange(1, 7)), len(numbers)]
    for digits, lo, hi in zip(range(1, 8), starts, starts[1:]):
        rest = numbers[lo:hi].astype(np.uint32)
        for at in range(digits, 0, -1):
            keys[lo:hi, at] = rest % 10 + ord("0")
            rest //= 10
    return keys.view("S8").ravel()


def generate_table(spec: SyntheticSpec) -> Table:
    """Materialize a spec; one shared PCG64 stream, columns drawn in order.

    Symbol i is ``f"v{i}"``; symbols no row drew are left out. Each column
    keeps its symbols as byte keys, the one form every table keeps, and no
    string is made per symbol. Distinct numbers give distinct, canonical
    symbols of at most 8 bytes, one width class, and every kept symbol was
    drawn, so the table holds what :meth:`Table.from_codes` checks without
    running its checks.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    columns = []
    for col in spec.columns:
        drawn, codes = densify(_sample_codes(rng, col, spec.rows), col.distinct_values)
        columns.append((col.name, _Keys((_symbols(np.flatnonzero(drawn)),), False), codes))
    return Table._from_keys(spec.name, columns)


def rules_for_spec(spec: SyntheticSpec) -> ClassificationRules:
    """Exact-name rules reproducing the spec's class hints.

    Rule patterns are globs, so ``*``, ``?`` and ``[`` in a name are
    escaped as ``[*]``, ``[?]`` and ``[[]``.
    """
    rules = tuple(
        Rule(pattern=_GLOB_CHARS.sub(r"[\g<0>]", col.name), assign=col.class_hint,
             note="from synthetic spec")
        for col in spec.columns
        if col.class_hint is not None
    )
    return ClassificationRules(rules=rules)


# -- spec files ----------------------------------------------------------

def parse_spec(doc: dict) -> SyntheticSpec:
    if not isinstance(doc, dict):
        raise InvalidSpec("synthetic spec must be a JSON object")
    if "rows" not in doc or "columns" not in doc:
        raise InvalidSpec('synthetic spec needs "rows" and "columns"')
    if not isinstance(doc["columns"], list):
        raise InvalidSpec('"columns" must be a list')
    columns = []
    for i, entry in enumerate(doc["columns"]):
        if not isinstance(entry, dict) or "name" not in entry or "distinct_values" not in entry:
            raise InvalidSpec(f'column #{i} must be an object with "name" and "distinct_values"')
        hint = entry.get("class_hint")
        try:
            class_hint = ColumnClass(hint) if hint is not None else None
        except ValueError:
            raise InvalidSpec(f"column #{i}: unknown class_hint {hint!r}") from None
        if not isinstance(entry["distinct_values"], int) or isinstance(entry["distinct_values"], bool):
            raise InvalidSpec(f"column #{i}: distinct_values must be an integer")
        columns.append(
            ColumnSpec(
                name=str(entry["name"]),
                distinct_values=entry["distinct_values"],
                distribution=entry.get("distribution", "uniform"),
                class_hint=class_hint,
            )
        )
    if not isinstance(doc["rows"], int) or isinstance(doc["rows"], bool):
        raise InvalidSpec('"rows" must be an integer')
    if not isinstance(doc.get("seed", 0), int) or isinstance(doc.get("seed", 0), bool):
        raise InvalidSpec('"seed" must be an integer')
    return SyntheticSpec(
        rows=doc["rows"],
        columns=tuple(columns),
        seed=doc.get("seed", 0),
        name=str(doc.get("name", "synthetic")),
    )


def load_spec(path: str | Path) -> SyntheticSpec:
    return parse_spec(read_json(path, InvalidSpec, "spec file"))
