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

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import ClassificationRules, ColumnClass, Rule
from .errors import InvalidSpec
from .table import Table

_ZIPF_RE = re.compile(r"^zipf\(\s*([0-9.eE+-]+)\s*\)$")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    distinct_values: int
    distribution: str = "uniform"  # "uniform" or "zipf(s)", e.g. "zipf(1.2)"
    class_hint: ColumnClass | None = None

    def __post_init__(self):
        if self.distinct_values < 1:
            raise InvalidSpec(
                f"column {self.name!r}: distinct_values must be positive, "
                f"got {self.distinct_values}"
            )
        self.zipf_s  # validate the distribution string eagerly

    @property
    def zipf_s(self) -> float | None:
        """Zipf exponent, or None for uniform."""
        if self.distribution == "uniform":
            return None
        m = _ZIPF_RE.match(self.distribution)
        if not m:
            raise InvalidSpec(
                f"column {self.name!r}: distribution must be 'uniform' or 'zipf(s)', "
                f"got {self.distribution!r}"
            )
        try:
            s = float(m.group(1))
        except ValueError:
            raise InvalidSpec(f"column {self.name!r}: bad zipf exponent") from None
        if s <= 0:
            raise InvalidSpec(f"column {self.name!r}: zipf exponent must be > 0, got {s}")
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
        if not self.columns:
            raise InvalidSpec("spec must declare at least one column")
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


def generate_table(spec: SyntheticSpec) -> Table:
    """Materialize a spec; one shared PCG64 stream, columns drawn in order.

    Symbol i is the string ``f"v{i}"``; symbols no row drew are left out.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    columns = []
    for col in spec.columns:
        codes = _sample_codes(rng, col, spec.rows)
        drawn = np.bincount(codes, minlength=col.distinct_values) > 0
        compact = (np.cumsum(drawn) - 1).astype(np.int32)
        values = [f"v{i}" for i in np.flatnonzero(drawn).tolist()]
        columns.append((col.name, values, compact[codes]))
    return Table.from_codes(spec.name, columns)


def rules_for_spec(spec: SyntheticSpec) -> ClassificationRules:
    """Exact-name rules reproducing the spec's class hints."""
    rules = tuple(
        Rule(pattern=col.name, assign=col.class_hint, note="from synthetic spec")
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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidSpec(f"cannot read spec file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"spec file {path} is not valid JSON: {exc}") from None
    return parse_spec(doc)
