from __future__ import annotations

import json

import pytest

from qi_sentry import (
    AssessmentForm,
    InvalidForm,
    LinkageGrade,
    UserGrade,
    grade_requestor,
    score_linkage,
    score_reid_ability,
    score_understanding,
)
from qi_sentry.assessment import (
    grade_for_average,
    load_form,
    parse_form,
)

SAFE = dict(
    linkage=LinkageGrade.LOW,
    intent_answers=(False, False, False),
    external_linkage=False,
    protection_answers=(True,) * 6,
    knowledge_answers=(False, False, False),
    tenure_years=0.0,
)


def form(**overrides) -> AssessmentForm:
    return AssessmentForm(**{**SAFE, **overrides})


# -- component scores ------------------------------------------------------

def test_score_linkage_points():
    assert score_linkage(LinkageGrade.HIGH) == 10
    assert score_linkage(LinkageGrade.MID) == 5
    assert score_linkage(LinkageGrade.LOW) == 1


def test_reid_ability_fully_safe_is_zero():
    assert score_reid_ability((False, False, False), False, (True,) * 6) == 0


def test_reid_ability_fully_risky_is_ten():
    assert score_reid_ability((True, True, True), True, (False,) * 6) == 10


def test_reid_ability_counts_yes_intent_and_no_protection():
    # two risky answers among intent+external, all protections in place
    assert score_reid_ability((True, False, False), True, (True,) * 6) == 2
    # protections missing count one each
    assert score_reid_ability((False, False, False), False, (True, True, False, True, False, True)) == 2


def test_reid_ability_cardinality_checked():
    with pytest.raises(InvalidForm):
        score_reid_ability((True, False), False, (True,) * 6)
    with pytest.raises(InvalidForm):
        score_reid_ability((True, False, False), False, (True,) * 5)


def test_understanding_maximal():
    assert score_understanding((True, True, True), 12) == 10


def test_understanding_minimal():
    assert score_understanding((False, False, False), 2.9) == 0


def test_understanding_knowledge_plus_bracket():
    assert score_understanding((True, True, True), 8) == 8


@pytest.mark.parametrize(
    "tenure,points",
    [(0, 0), (2.999, 0), (3, 3), (6.999, 3), (7, 5), (9.999, 5), (10, 7), (40, 7)],
)
def test_understanding_tenure_brackets_are_half_open(tenure, points):
    assert score_understanding((False, False, False), tenure) == points


def test_understanding_rejects_negative_tenure():
    with pytest.raises(InvalidForm):
        score_understanding((False, False, False), -1)


# -- grading ----------------------------------------------------------------

def test_grade_requestor_reference_example():
    # components (10, 2, 8): average 6.67, grade Middle
    requestor = grade_requestor(
        form(
            linkage=LinkageGrade.HIGH,
            intent_answers=(True, True, False),
            external_linkage=False,
            protection_answers=(True,) * 6,
            knowledge_answers=(True, True, True),
            tenure_years=8,
        )
    )
    assert requestor.linkage_points == 10
    assert requestor.reid_ability_points == 2
    assert requestor.understanding_points == 8
    assert requestor.average == 20 / 3
    assert f"{requestor.average:.2f}" == "6.67"
    assert requestor.grade is UserGrade.MIDDLE


def test_grade_requestor_maximal():
    requestor = grade_requestor(
        form(
            linkage=LinkageGrade.HIGH,
            intent_answers=(True, True, True),
            external_linkage=True,
            protection_answers=(False,) * 6,
            knowledge_answers=(True, True, True),
            tenure_years=10,
        )
    )
    assert (requestor.linkage_points, requestor.reid_ability_points, requestor.understanding_points) == (10, 10, 10)
    assert requestor.average == 10
    assert requestor.grade is UserGrade.HIGH


def test_grade_requestor_minimal():
    requestor = grade_requestor(form())
    assert (requestor.linkage_points, requestor.reid_ability_points, requestor.understanding_points) == (1, 0, 0)
    assert requestor.average == pytest.approx(1 / 3)
    assert requestor.grade is UserGrade.LOW


def test_grade_thresholds_exact():
    assert grade_for_average(7.0) is UserGrade.HIGH
    assert grade_for_average(6.999) is UserGrade.MIDDLE
    assert grade_for_average(4.001) is UserGrade.MIDDLE
    assert grade_for_average(4.0) is UserGrade.LOW  # the unassigned boundary goes down
    assert grade_for_average(10.0) is UserGrade.HIGH
    assert grade_for_average(1 / 3) is UserGrade.LOW


def test_average_is_unrounded():
    requestor = grade_requestor(form(linkage=LinkageGrade.HIGH, tenure_years=10))
    # components (10, 0, 7)
    assert requestor.average == 17 / 3


# -- form validation ----------------------------------------------------------

def test_form_rejects_wrong_cardinalities():
    with pytest.raises(InvalidForm):
        form(intent_answers=(True, False))
    with pytest.raises(InvalidForm):
        form(protection_answers=(True,) * 5)
    with pytest.raises(InvalidForm):
        form(knowledge_answers=(True,) * 4)


def test_form_rejects_non_boolean_answers():
    with pytest.raises(InvalidForm):
        form(intent_answers=(1, 0, 0))
    with pytest.raises(InvalidForm):
        form(external_linkage="yes")


def test_form_rejects_negative_tenure():
    with pytest.raises(InvalidForm):
        form(tenure_years=-0.5)


@pytest.mark.parametrize("tenure", [float("nan"), float("inf")])
def test_form_rejects_non_finite_tenure(tenure):
    with pytest.raises(InvalidForm):
        form(tenure_years=tenure)
    with pytest.raises(InvalidForm):
        score_understanding((True, True, True), tenure)


def test_integer_tenure_past_float_range_is_graded_exactly():
    # 10**400 has no float, so a finiteness check on it would overflow
    assert score_understanding((True, False, False), 10**400) == 8
    assert form(tenure_years=10**400).tenure_years == 10**400
    with pytest.raises(InvalidForm):
        form(tenure_years=-(10**400))


def test_form_rejects_non_numeric_tenure():
    with pytest.raises(InvalidForm):
        form(tenure_years="long")


# -- form files ------------------------------------------------------------------

VALID_DOC = {
    "linkage": "High",
    "intent": [True, True, False],
    "external_linkage": False,
    "protection": [True] * 6,
    "knowledge": [True, True, True],
    "tenure_years": 8,
}


def test_parse_form_valid():
    parsed = parse_form(VALID_DOC)
    assert parsed.linkage is LinkageGrade.HIGH
    assert grade_requestor(parsed).grade is UserGrade.MIDDLE


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("linkage"),
        lambda d: d.pop("tenure_years"),
        lambda d: d.update(linkage="VeryHigh"),
        lambda d: d.update(intent=[True, True]),
        lambda d: d.update(protection=[True] * 5),
        lambda d: d.update(knowledge="yes"),
        lambda d: d.update(tenure_years=-2),
        lambda d: d.update(tenure_years=float("nan")),
        lambda d: d.update(intent=[1, 0, 0]),
    ],
)
def test_parse_form_rejects_malformed(mutate):
    doc = json.loads(json.dumps(VALID_DOC))
    mutate(doc)
    with pytest.raises(InvalidForm):
        parse_form(doc)


def test_load_form_file(tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(VALID_DOC))
    assert load_form(path).tenure_years == 8


def test_load_form_missing_file(tmp_path):
    with pytest.raises(InvalidForm):
        load_form(tmp_path / "absent.json")

