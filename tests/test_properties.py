"""Property-based invariants for the metric, selection, and assessment layers."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qi_sentry import (
    AssessmentForm,
    ClassificationRules,
    ColumnClass,
    IngestOptions,
    LinkageGrade,
    RiskScore,
    Rule,
    Table,
    UniversePolicy,
    UserGrade,
    classify,
    grade_requestor,
    influence,
    ingest_delimited,
    score_columns,
    select_final_qis,
    threshold_for,
    uniqueness,
)
from qi_sentry.metrics import GroupingEngine
from qi_sentry.oracle import (
    oracle_equivalence_class_count,
    oracle_influence,
    oracle_uniqueness,
)
from qi_sentry.table import canonicalize

CELLS = st.sampled_from(["a", "b", "c", None])
GRADE_RANK = {UserGrade.LOW: 0, UserGrade.MIDDLE: 1, UserGrade.HIGH: 2}


@st.composite
def tables(draw, max_rows=12, max_cols=5):
    n_cols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(
            st.lists(CELLS, min_size=n_cols, max_size=n_cols),
            min_size=1,
            max_size=max_rows,
        )
    )
    return Table.from_rows("t", [f"c{i}" for i in range(n_cols)], rows)


@st.composite
def forms(draw):
    return AssessmentForm(
        linkage=draw(st.sampled_from(list(LinkageGrade))),
        intent_answers=tuple(draw(st.lists(st.booleans(), min_size=3, max_size=3))),
        external_linkage=draw(st.booleans()),
        protection_answers=tuple(draw(st.lists(st.booleans(), min_size=6, max_size=6))),
        knowledge_answers=tuple(draw(st.lists(st.booleans(), min_size=3, max_size=3))),
        tenure_years=draw(st.floats(min_value=0, max_value=40, allow_nan=False)),
    )


# -- metric ranges -----------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(tables())
def test_metric_ranges(table):
    for name in table.column_names:
        u = uniqueness(table, name)
        f = influence(table, name)
        assert 0.0 <= u <= 1.0
        assert 0.0 <= f < 1.0


# -- the shipped scoring path against the oracle -------------------------------

@settings(max_examples=300, deadline=None)
@given(tables(max_rows=15, max_cols=5), st.data())
def test_score_columns_matches_oracle(table, data):
    names = list(table.column_names)
    qis = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    classified = classify(
        table, ClassificationRules(rules=tuple(Rule(n, ColumnClass.QI) for n in qis))
    )
    for policy in UniversePolicy:
        universe = set(qis) if policy is UniversePolicy.PRIMARY_QIS_ONLY else set(names)
        expected = [
            RiskScore.of(n, oracle_uniqueness(table, n), oracle_influence(table, n, universe))
            for n in names
            if n in qis
        ]
        assert score_columns(classified, policy) == expected
        assert score_columns(classified, policy, max_workers=4) == expected


# -- equivalence class counting ------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(tables(), st.data())
def test_subset_monotonicity(table, data):
    names = list(table.column_names)
    b = set(data.draw(st.lists(st.sampled_from(names), unique=True)))
    a = set(data.draw(st.lists(st.sampled_from(sorted(b)), unique=True))) if b else set()
    engine = GroupingEngine(table)
    assert engine.class_count(a) <= engine.class_count(b)
    assert 1 <= engine.class_count(b) <= max(table.row_count, 1)


@settings(max_examples=500, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_row_permutation_invariance(table, rnd):
    order = list(range(table.row_count))
    rnd.shuffle(order)
    shuffled = Table.from_rows(
        "t", table.column_names, [table.row(i) for i in order]
    )
    for name in table.column_names:
        assert uniqueness(shuffled, name) == uniqueness(table, name)
        assert influence(shuffled, name) == influence(table, name)
    assert (
        GroupingEngine(shuffled).class_count(table.column_names)
        == GroupingEngine(table).class_count(table.column_names)
    )


@settings(max_examples=500, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_column_permutation_invariance(table, rnd):
    order = list(range(len(table.columns)))
    rnd.shuffle(order)
    permuted = Table.from_columns(
        "t", [(table.columns[p].name, table.cells[p]) for p in order], canonical=True
    )
    for name in table.column_names:
        assert uniqueness(permuted, name) == uniqueness(table, name)
        assert influence(permuted, name) == influence(table, name)


@settings(max_examples=500, deadline=None)
@given(tables())
def test_row_duplication_kills_uniqueness_preserves_influence(table):
    doubled = Table.from_rows(
        "t", table.column_names, list(table.iter_rows()) + list(table.iter_rows())
    )
    for name in table.column_names:
        assert uniqueness(doubled, name) == 0.0
        assert influence(doubled, name) == influence(table, name)


@settings(max_examples=500, deadline=None)
@given(tables())
def test_engine_matches_pairwise_oracle(table):
    engine = GroupingEngine(table)
    assert engine.class_count(table.column_names) == oracle_equivalence_class_count(
        table, table.column_names
    )
    for name in table.column_names:
        assert uniqueness(table, name) == oracle_uniqueness(table, name)
        assert influence(table, name) == oracle_influence(table, name)


# -- selection ---------------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
        max_size=12,
    ),
    st.floats(0, 2, allow_nan=False),
    st.floats(0, 2, allow_nan=False),
)
def test_threshold_anti_monotonicity(pairs, t1, t2):
    scores = [RiskScore.of(f"c{i}", u, f) for i, (u, f) in enumerate(pairs)]
    lo, hi = min(t1, t2), max(t1, t2)
    assert select_final_qis(scores, hi) <= select_final_qis(scores, lo)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
        max_size=12,
    )
)
def test_grade_selections_nest(pairs):
    scores = [RiskScore.of(f"c{i}", u, f) for i, (u, f) in enumerate(pairs)]
    low = select_final_qis(scores, threshold_for(UserGrade.LOW))
    mid = select_final_qis(scores, threshold_for(UserGrade.MIDDLE))
    high = select_final_qis(scores, threshold_for(UserGrade.HIGH))
    assert low <= mid <= high


# -- assessment ----------------------------------------------------------------

def riskier_variants(form: AssessmentForm):
    """All single-indicator moves toward more risk."""
    upgrades = {LinkageGrade.LOW: LinkageGrade.MID, LinkageGrade.MID: LinkageGrade.HIGH}
    if form.linkage in upgrades:
        yield AssessmentForm(
            upgrades[form.linkage], form.intent_answers, form.external_linkage,
            form.protection_answers, form.knowledge_answers, form.tenure_years,
        )
    for i in range(3):
        if not form.intent_answers[i]:
            flipped = list(form.intent_answers)
            flipped[i] = True
            yield AssessmentForm(
                form.linkage, tuple(flipped), form.external_linkage,
                form.protection_answers, form.knowledge_answers, form.tenure_years,
            )
    if not form.external_linkage:
        yield AssessmentForm(
            form.linkage, form.intent_answers, True,
            form.protection_answers, form.knowledge_answers, form.tenure_years,
        )
    for i in range(6):
        if form.protection_answers[i]:
            flipped = list(form.protection_answers)
            flipped[i] = False
            yield AssessmentForm(
                form.linkage, form.intent_answers, form.external_linkage,
                tuple(flipped), form.knowledge_answers, form.tenure_years,
            )
    for i in range(3):
        if not form.knowledge_answers[i]:
            flipped = list(form.knowledge_answers)
            flipped[i] = True
            yield AssessmentForm(
                form.linkage, form.intent_answers, form.external_linkage,
                form.protection_answers, tuple(flipped), form.tenure_years,
            )
    yield AssessmentForm(
        form.linkage, form.intent_answers, form.external_linkage,
        form.protection_answers, form.knowledge_answers, form.tenure_years + 3,
    )


@settings(max_examples=500, deadline=None)
@given(forms())
def test_assessment_monotonicity(form):
    base = grade_requestor(form)
    for riskier in riskier_variants(form):
        worse = grade_requestor(riskier)
        assert worse.linkage_points >= base.linkage_points
        assert worse.reid_ability_points >= base.reid_ability_points
        assert worse.understanding_points >= base.understanding_points
        assert worse.average >= base.average
        assert GRADE_RANK[worse.grade] >= GRADE_RANK[base.grade]


@settings(max_examples=500, deadline=None)
@given(forms())
def test_assessment_bounds(form):
    requestor = grade_requestor(form)
    assert requestor.linkage_points in (1, 5, 10)
    assert 0 <= requestor.reid_ability_points <= 10
    assert 0 <= requestor.understanding_points <= 10
    assert 1 / 3 <= requestor.average <= 10


# -- table layer ------------------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(st.text(max_size=20))
def test_canonicalization_idempotent(raw):
    once = canonicalize(raw)
    assert once is None or canonicalize(once) == once


@settings(max_examples=500, deadline=None)
@given(tables())
def test_round_trip(table):
    options = IngestOptions(table_name="t")
    again = ingest_delimited(table.to_delimited(options).encode(), options)
    assert again == table


@settings(max_examples=200, deadline=None)
@given(tables())
def test_ingest_deterministic(table):
    options = IngestOptions(table_name="t")
    payload = table.to_delimited(options).encode()
    assert ingest_delimited(payload, options) == ingest_delimited(payload, options)
