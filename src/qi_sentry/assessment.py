"""Requestor assessment: linkage probability, re-identification ability, data understanding.

Three component scores, each on a 0..10-ish scale, are averaged and the
average mapped to a requestor grade:

* linkage points come straight from the institution's linkage grade
  (High 10, Mid 5, Low 1);
* re-identification ability sums Yes answers over the three intent
  indicators plus the external-linkage indicator, and No answers over
  the six protection indicators (risky answers score, safe ones don't);
* data understanding sums Yes answers over the three knowledge
  indicators plus tenure points (0 / 3 / 5 / 7 for tenure in the
  brackets [0,3), [3,7), [7,10), [10,inf)).

Grades: High for an average of seven or more, Middle above four, Low at
four or below. An average of exactly four is deliberately graded Low:
the lower grade raises the selection threshold, which flags fewer
columns for release.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .errors import InvalidForm, read_json

_LINKAGE_POINTS = {"High": 10, "Mid": 5, "Low": 1}
_TENURE_BRACKETS = ((10.0, 7), (7.0, 5), (3.0, 3), (0.0, 0))


class LinkageGrade(str, Enum):
    HIGH = "High"
    MID = "Mid"
    LOW = "Low"

    def __str__(self) -> str:
        return self.value


class UserGrade(str, Enum):
    HIGH = "High"
    MIDDLE = "Middle"
    LOW = "Low"

    def __str__(self) -> str:
        return self.value


def _check_bools(name: str, values: Sequence[object], expected: int) -> tuple[bool, ...]:
    values = tuple(values)
    if len(values) != expected:
        raise InvalidForm(f"{name} must have exactly {expected} answers, got {len(values)}")
    if not all(isinstance(v, bool) for v in values):
        raise InvalidForm(f"{name} answers must all be true/false")
    return values


def _check_tenure(tenure_years: float) -> None:
    # an int is finite, even one too large for a float, and compares exactly
    if isinstance(tenure_years, float) and not math.isfinite(tenure_years):
        raise InvalidForm(f"tenure_years must be finite, got {tenure_years}")
    if tenure_years < 0:
        raise InvalidForm(f"tenure_years must be non-negative, got {tenure_years}")


@dataclass(frozen=True)
class AssessmentForm:
    """Questionnaire answers for one data requestor.

    Indicator cardinalities are fixed: 3 intent answers, 1 external
    linkage answer, 6 protection answers, 3 knowledge answers. ``True``
    always means Yes.
    """

    linkage: LinkageGrade
    intent_answers: tuple[bool, bool, bool]
    external_linkage: bool
    protection_answers: tuple[bool, bool, bool, bool, bool, bool]
    knowledge_answers: tuple[bool, bool, bool]
    tenure_years: float

    def __post_init__(self):
        object.__setattr__(self, "linkage", LinkageGrade(self.linkage))
        object.__setattr__(
            self, "intent_answers", _check_bools("intent", self.intent_answers, 3)
        )
        object.__setattr__(
            self, "protection_answers", _check_bools("protection", self.protection_answers, 6)
        )
        object.__setattr__(
            self, "knowledge_answers", _check_bools("knowledge", self.knowledge_answers, 3)
        )
        if not isinstance(self.external_linkage, bool):
            raise InvalidForm("external_linkage must be true/false")
        if not isinstance(self.tenure_years, (int, float)) or isinstance(self.tenure_years, bool):
            raise InvalidForm("tenure_years must be a number")
        _check_tenure(self.tenure_years)


@dataclass(frozen=True)
class RequestorScore:
    """Component scores, their unrounded average, and the derived grade."""

    linkage_points: int
    reid_ability_points: int
    understanding_points: int
    average: float
    grade: UserGrade


def score_linkage(grade: LinkageGrade) -> int:
    return _LINKAGE_POINTS[LinkageGrade(grade).value]


def score_reid_ability(
    intent: Sequence[bool], external: bool, protection: Sequence[bool]
) -> int:
    """Yes answers among intent + external linkage, plus No answers among protection."""
    intent = _check_bools("intent", intent, 3)
    protection = _check_bools("protection", protection, 6)
    if not isinstance(external, bool):
        raise InvalidForm("external_linkage must be true/false")
    risky_intent = sum(intent) + (1 if external else 0)
    weak_protection = sum(1 for answer in protection if not answer)
    return risky_intent + weak_protection


def score_understanding(knowledge: Sequence[bool], tenure_years: float) -> int:
    """Yes answers among knowledge indicators, plus tenure bracket points."""
    knowledge = _check_bools("knowledge", knowledge, 3)
    _check_tenure(tenure_years)
    tenure_points = next(pts for floor, pts in _TENURE_BRACKETS if tenure_years >= floor)
    return sum(knowledge) + tenure_points


def grade_for_average(average: float) -> UserGrade:
    if average >= 7:
        return UserGrade.HIGH
    if average > 4:
        return UserGrade.MIDDLE
    return UserGrade.LOW


def grade_requestor(form: AssessmentForm) -> RequestorScore:
    """Score the three components, average them, and grade the requestor."""
    linkage = score_linkage(form.linkage)
    reid = score_reid_ability(form.intent_answers, form.external_linkage, form.protection_answers)
    understanding = score_understanding(form.knowledge_answers, form.tenure_years)
    average = (linkage + reid + understanding) / 3
    return RequestorScore(
        linkage_points=linkage,
        reid_ability_points=reid,
        understanding_points=understanding,
        average=average,
        grade=grade_for_average(average),
    )


# -- form files ----------------------------------------------------------

def parse_form(doc: dict) -> AssessmentForm:
    """Build a form from a parsed JSON document (see README for the shape)."""
    if not isinstance(doc, dict):
        raise InvalidForm("assessment form must be a JSON object")
    missing = {"linkage", "intent", "external_linkage", "protection", "knowledge", "tenure_years"} - set(doc)
    if missing:
        raise InvalidForm(f"assessment form is missing: {', '.join(sorted(missing))}")
    try:
        linkage = LinkageGrade(doc["linkage"])
    except ValueError:
        raise InvalidForm(f"linkage must be one of High/Mid/Low, got {doc['linkage']!r}") from None
    for key in ("intent", "protection", "knowledge"):
        if not isinstance(doc[key], list):
            raise InvalidForm(f"{key} must be a list of booleans")
    return AssessmentForm(
        linkage=linkage,
        intent_answers=tuple(doc["intent"]),
        external_linkage=doc["external_linkage"],
        protection_answers=tuple(doc["protection"]),
        knowledge_answers=tuple(doc["knowledge"]),
        tenure_years=doc["tenure_years"],
    )


def load_form(path: str | Path) -> AssessmentForm:
    return parse_form(read_json(path, InvalidForm, "assessment form"))

