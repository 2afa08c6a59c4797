"""Final QI selection: grade-derived thresholds over re-identifiability scores.

A requestor grade maps to a threshold (High 0.25, Middle 0.5, Low
0.75); every secondary QI whose score reaches the threshold
(inclusive) lands in the final QI set. Lower grades mean higher
thresholds and therefore fewer selected columns. DID columns never
participate: they are always slated for removal. SA columns are
flagged for deletion unless research-relevant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Sequence

from .assessment import RequestorScore, UserGrade
from .classifier import ClassifiedTable, ColumnClass
from .metrics import RiskScore, secondary_qis

_GRADE_THRESHOLDS = {
    UserGrade.HIGH: 0.25,
    UserGrade.MIDDLE: 0.5,
    UserGrade.LOW: 0.75,
}

_SA_NOTE = "delete unless research-relevant"
_DID_NOTE = "mandatory removal"


@dataclass(frozen=True)
class SelectionThreshold:
    """Effective threshold, and the grade-derived value it equals or overrides.

    ``value`` is stored as a float without the sign of zero, so -0.0
    reports as 0.0.
    """

    value: float
    grade_value: float
    overridden: bool = False

    def __post_init__(self):
        if not 0 <= self.value <= 2:
            raise ValueError(f"threshold must be in [0, 2], got {self.value}")
        object.__setattr__(self, "value", float(self.value) + 0.0)


def threshold_for(grade: UserGrade) -> SelectionThreshold:
    """High -> 0.25, Middle -> 0.5, Low -> 0.75."""
    value = _GRADE_THRESHOLDS[UserGrade(grade)]
    return SelectionThreshold(value=value, grade_value=value)


def manual_threshold(value: float, grade: UserGrade) -> SelectionThreshold:
    """An explicit override; keeps the grade-derived value on record."""
    return SelectionThreshold(value=value, grade_value=_GRADE_THRESHOLDS[UserGrade(grade)],
                              overridden=True)


def select_final_qis(
    scores: Sequence[RiskScore], threshold: SelectionThreshold | float
) -> set[str]:
    """Columns whose unrounded score reaches the threshold (inclusive).

    The test is exact, against the decimal the threshold prints as, so
    a score of exactly 1/5 reaches 0.2 (whose binary value lies just
    above 1/5) and a score of exactly 1/2 reaches 0.5 even where its
    float sum rounds below it. A computed score is taken from its
    counts; a score built from floats alone, as the decimal its sum
    prints as, which orders it against the threshold as the floats do.
    """
    cut = _decimal(threshold.value if isinstance(threshold, SelectionThreshold) else threshold)
    return {
        s.column for s in scores
        if (s.counts.exact_sum() if s.counts is not None else _decimal(s.sum)) >= cut
    }


def _decimal(value: float) -> Fraction:
    """The exact value of the shortest decimal that reads back as ``value``."""
    return Fraction(repr(float(value)))


@dataclass(frozen=True)
class ReportEntry:
    """One column's evidence row."""

    column: str
    column_class: ColumnClass
    uniqueness: float | None = None
    influence: float | None = None
    sum: float | None = None
    secondary: bool = False
    selected: bool = False
    mandatory_removal: bool = False
    note: str = ""


@dataclass(frozen=True)
class SelectionReport:
    table_name: str
    grade: UserGrade
    threshold: SelectionThreshold
    entries: tuple[ReportEntry, ...]
    final_qis: frozenset[str]
    generated_at: str | None


def build_report(
    classified: ClassifiedTable,
    scores: Sequence[RiskScore],
    requestor: RequestorScore,
    threshold_override: float | None = None,
    timestamp: bool = True,
) -> SelectionReport:
    """Assemble the per-column evidence trail and the final QI set.

    ``scores`` must come from scoring ``classified`` (one entry per
    primary QI). Selection applies only to secondary QIs, so a zero
    override threshold still cannot select a zero-scored column.
    """
    if threshold_override is not None:
        threshold = manual_threshold(threshold_override, grade=requestor.grade)
    else:
        threshold = threshold_for(requestor.grade)

    by_column = {s.column: s for s in scores}
    secondary = secondary_qis(scores)
    reaching = select_final_qis(scores, threshold)
    entries = []
    for meta in classified.table.columns:
        cls = classified.classes[meta.name]
        score = by_column.get(meta.name)
        if cls is ColumnClass.QI and score is not None:
            is_secondary = meta.name in secondary
            entries.append(
                ReportEntry(
                    column=meta.name,
                    column_class=cls,
                    uniqueness=score.uniqueness,
                    influence=score.influence,
                    sum=score.sum,
                    secondary=is_secondary,
                    selected=is_secondary and meta.name in reaching,
                )
            )
        else:
            entries.append(
                ReportEntry(
                    column=meta.name,
                    column_class=cls,
                    mandatory_removal=cls is ColumnClass.DID,
                    note=_DID_NOTE if cls is ColumnClass.DID
                    else _SA_NOTE if cls is ColumnClass.SA
                    else "",
                )
            )

    generated_at = (
        datetime.now(timezone.utc).isoformat(timespec="seconds") if timestamp else None
    )
    return SelectionReport(
        table_name=classified.table.name,
        grade=requestor.grade,
        threshold=threshold,
        entries=tuple(entries),
        final_qis=frozenset(e.column for e in entries if e.selected),
        generated_at=generated_at,
    )


# -- the report as JSON -------------------------------------------------

def report_to_dict(report: SelectionReport) -> dict:
    """The report as a JSON document, scores rounded to 4 places."""
    doc = {
        "table": report.table_name,
        "grade": report.grade.value,
        "threshold": report.threshold.value,
        "grade_threshold": report.threshold.grade_value,
        "threshold_overridden": report.threshold.overridden,
        "final_qis": sorted(report.final_qis),
        "entries": [
            {
                "column": e.column,
                "class": e.column_class.value,
                "uniqueness": None if e.uniqueness is None else round(e.uniqueness, 4),
                "influence": None if e.influence is None else round(e.influence, 4),
                "sum": None if e.sum is None else round(e.sum, 4),
                "secondary": e.secondary,
                "selected": e.selected,
                "mandatory_removal": e.mandatory_removal,
                "note": e.note,
            }
            for e in report.entries
        ],
    }
    if report.generated_at is not None:
        doc["generated_at"] = report.generated_at
    return doc


def report_to_json(report: SelectionReport) -> str:
    """:func:`report_to_dict` as indented JSON text, as ``select --format json`` prints it."""
    return json.dumps(report_to_dict(report), indent=2) + "\n"
