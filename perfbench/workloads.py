"""Seeded benchmark workloads: table specs, requestor forms and set-up.

Each workload is a ``SyntheticSpec`` built from the seed, the requestor
form that fixes its grade (and so its threshold) and the ``--universe``
it runs under. ``setup`` turns one into the three files ``qi-sentry
select`` reads, through the library's own generator, so the set-up time
is the generator's cost.

Why these two (the "why" lines in BENCHMARK.json say the same):

* ``tall`` (300k rows x 12) is dominated by ingest and factorization:
  only 4 scored columns, one a timestamp with about 5n distinct values,
  so leave-one-out grouping is small. Its DID, SA and NSA columns cover
  classification and the mandatory-removal notes.
* ``lowcard`` (700k rows x 11) has 7.7M two-character cells of
  cardinality 2-6: the most cells, so the longest ingest and the highest
  peak RSS, unsaturated grouping, zero uniqueness everywhere, and the only
  ``--universe qi`` run (its SA column is outside that universe, so
  ignoring the flag changes the answer).

Every layer is timed on both. There is no 30-column workload whose
leave-one-out groupings dominate: on a shared 2-core machine the median
``select_s`` of one (120k rows) moved by up to 26 % between sets of runs
of the same code, more than the benchmark's bound.

The row counts are what keeps a run, reference answers included, well
inside the benchmark's time budget on a 2-core machine; the column mixes
are what makes each workload stress its layer.

Every workload selects at least one scored column and not all of them,
with each score at least 0.05 from the threshold, so the answer check
can fail and float and exact arithmetic agree on the selection.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from qi_sentry import ColumnClass, ColumnSpec, SyntheticSpec, generate_table, rules_for_spec
from qi_sentry.classifier import rules_to_doc

DID, QI, SA, NSA = ColumnClass.DID, ColumnClass.QI, ColumnClass.SA, ColumnClass.NSA

# Forms whose grades are Middle (average 5) and Low (1/3).
FORMS = {
    "Middle": {
        "linkage": "Mid", "intent": [True, True, False], "external_linkage": False,
        "protection": [True, True, True, True, False, False], "knowledge": [True, True, False],
        "tenure_years": 3,
    },
    "Low": {
        "linkage": "Low", "intent": [False, False, False], "external_linkage": False,
        "protection": [True] * 6, "knowledge": [False, False, False], "tenure_years": 1,
    },
}
THRESHOLDS = {"Middle": 0.5, "Low": 0.75}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SyntheticSpec
    grade: str
    universe: str  # "all" or "qi", passed to --universe

    @property
    def threshold(self) -> float:
        return THRESHOLDS[self.grade]


def _tall(seed: int) -> Workload:
    rows = 300_000
    columns = (
        ColumnSpec("mrn", 2 * rows, "uniform", DID),
        ColumnSpec("patient_name", 50_000, "zipf(1.1)", DID),
        ColumnSpec("birth_year", 90, "zipf(1.1)", QI),
        ColumnSpec("sex", 2, "uniform", QI),
        ColumnSpec("postal", 1_000, "zipf(1.3)", QI),
        ColumnSpec("visit_ts", 5 * rows, "uniform", QI),
        ColumnSpec("diagnosis", 2_000, "zipf(1.2)", SA),
        ColumnSpec("medication", 500, "zipf(1.4)", SA),
        ColumnSpec("lab_value", 10_000, "uniform", NSA),
        ColumnSpec("ward", 40, "uniform", NSA),
        ColumnSpec("clinician", 300, "zipf(1.2)", NSA),
        ColumnSpec("note", 9_000, "uniform", NSA),
    )
    spec = SyntheticSpec(rows=rows, columns=columns, seed=seed, name="tall")
    return Workload("tall", spec, "Low", "all")


def _lowcard(seed: int) -> Workload:
    shapes = [
        (2, "uniform"), (4, "uniform"), (5, "uniform"), (6, "uniform"), (2, "zipf(2.0)"),
        (4, "uniform"), (5, "zipf(1.0)"), (6, "zipf(2.0)"), (2, "uniform"), (6, "uniform"),
    ]
    columns = [ColumnSpec(f"k{i}", card, dist, QI) for i, (card, dist) in enumerate(shapes)]
    columns.append(ColumnSpec("outcome", 3, "uniform", SA))
    spec = SyntheticSpec(rows=700_000, columns=tuple(columns), seed=seed, name="lowcard")
    return Workload("lowcard", spec, "Middle", "qi")


WORKLOADS = {"tall": _tall, "lowcard": _lowcard}


def workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


@dataclass(frozen=True)
class Files:
    csv: Path
    rules: Path
    form: Path


def setup(work: Workload, directory: Path) -> tuple[Files, dict[str, float]]:
    """Write the workload's CSV, rules and form; return the paths and stage times.

    The stages are ``generate.table_s`` (generate_table), ``generate.write_s``
    (Table.to_delimited plus the write) and ``generate.rules_s``
    (rules_for_spec plus its file); ``setup_s`` is their total.
    """
    directory.mkdir(parents=True, exist_ok=True)
    files = Files(directory / "table.csv", directory / "rules.json", directory / "form.json")
    t0 = time.perf_counter()
    table = generate_table(work.spec)
    t1 = time.perf_counter()
    files.csv.write_text(table.to_delimited(), encoding="utf-8")
    t2 = time.perf_counter()
    doc = rules_to_doc(rules_for_spec(work.spec))
    files.rules.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    files.form.write_text(json.dumps(FORMS[work.grade], indent=2) + "\n", encoding="utf-8")
    t3 = time.perf_counter()
    return files, {
        "generate.table_s": t1 - t0,
        "generate.write_s": t2 - t1,
        "generate.rules_s": t3 - t2,
        "setup_s": t3 - t0,
    }
