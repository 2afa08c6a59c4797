"""Property-based invariants for the metric, selection, and assessment layers."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
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
    equivalence_class_count,
    grade_requestor,
    influence,
    ingest_delimited,
    score_columns,
    select_final_qis,
    threshold_for,
    uniqueness,
)
from qi_sentry import metrics
from qi_sentry import table as table_module
from qi_sentry.metrics import ScoreCounts
from qi_sentry.oracle import (
    oracle_equivalence_class_count,
    oracle_influence,
    oracle_uniqueness,
)
from qi_sentry.table import canonicalize, code_dtype

from conftest import column_of

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
@given(tables(max_rows=15, max_cols=5), st.data(), st.sampled_from([0, 4, 10**9]))
def test_score_columns_matches_oracle(table, data, sort_free_factor):
    # a sort-free factor of 0 leaves every count to the recursion's folds;
    # 4, as shipped, scores most of these small tables from one occupancy
    # array at the root and the rest by folds; 10**9 scores every root so
    # (test_metrics covers an occupancy array inside the recursion)
    names = list(table.column_names)
    qis = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    classified = classify(
        table, ClassificationRules(rules=tuple(Rule(n, ColumnClass.QI) for n in qis))
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(table_module, "_SORT_FREE_FACTOR", sort_free_factor)
        for policy in UniversePolicy:
            universe = set(qis) if policy is UniversePolicy.PRIMARY_QIS_ONLY else set(names)
            expected = [
                RiskScore.of(n, oracle_uniqueness(table, n), oracle_influence(table, n, universe))
                for n in names
                if n in qis
            ]
            assert score_columns(classified, policy) == expected
            assert score_columns(classified, policy, max_workers=4) == expected


@st.composite
def settling_tables(draw):
    """Tables whose groups turn into single rows partway through a fold.

    An ID-like first column holds n/4 to n values, some repeated; columns
    of one to three values (missing among them) and an all-missing one
    follow.
    """
    n = draw(st.integers(4, 40))
    card = draw(st.integers(max(1, n // 4), n))
    repeats = draw(st.lists(st.integers(0, card - 1), min_size=n - card, max_size=n - card))
    ids = draw(st.permutations([f"id{v}" for v in [*range(card), *repeats]]))
    low = draw(st.lists(
        st.lists(st.sampled_from(["a", "b", None]), min_size=n, max_size=n), min_size=1, max_size=3
    ))
    names = ["id", *(f"k{i}" for i in range(len(low))), "gone"]
    return Table.from_rows("t", names, zip(ids, *low, [None] * n))


@settings(max_examples=200, deadline=None)
@given(settling_tables(), st.data())
def test_scores_counts_and_class_counts_hold_as_rows_settle(table, data):
    names, n = list(table.column_names), table.row_count
    qis = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    subsets = data.draw(st.lists(st.sets(st.sampled_from(names)), min_size=1, max_size=3))
    classified = classify(
        table, ClassificationRules(rules=tuple(Rule(c, ColumnClass.QI) for c in qis))
    )
    scored = [c for c in names if c in qis]
    singles = {c: sum(k == 1 for k in Counter(table.column_values(c)).values()) for c in scored}
    for sort_free_factor in (0, 4):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(table_module, "_SORT_FREE_FACTOR", sort_free_factor)
            for policy in UniversePolicy:
                universe = set(qis) if policy is UniversePolicy.PRIMARY_QIS_ONLY else set(names)
                full = oracle_equivalence_class_count(table, universe)
                expected = [
                    (
                        RiskScore.of(
                            c, oracle_uniqueness(table, c), oracle_influence(table, c, universe)
                        ),
                        ScoreCounts(
                            singles[c], n, full,
                            oracle_equivalence_class_count(table, universe - {c}),
                        ),
                    )
                    for c in scored
                ]
                assert [(s, s.counts) for s in score_columns(classified, policy)] == expected
            for subset in subsets:
                assert equivalence_class_count(table, subset) == oracle_equivalence_class_count(
                    table, subset
                )


@settings(max_examples=200, deadline=None)
@given(settling_tables(), st.data())
def test_a_fold_pairs_only_the_rows_left_in_shared_groups(table, data):
    # the ID column is folded first; the rows whose ID occurs once are
    # settled, so the fold of the next column pairs only the others
    other = data.draw(st.sampled_from(table.column_names[1:]))
    shared = [k for k in Counter(table.column_values("id")).values() if k > 1]
    seen = []
    real = metrics._pair_ids

    def pair_ids(a, b, card_b):
        assert len(a) == len(b)
        seen.append(len(a))
        return real(a, b, card_b)

    with mock.patch.object(metrics, "_pair_ids", pair_ids):
        count = equivalence_class_count(table, {"id", other})
    assert count == oracle_equivalence_class_count(table, {"id", other})
    assert seen == ([sum(shared)] if shared else [])


@settings(max_examples=300, deadline=None)
@given(tables(max_rows=12, max_cols=4), st.sampled_from(list(UniversePolicy)), st.data())
def test_selection_matches_fraction_selection(table, policy, data):
    # the expected set comes from oracle counts in Fraction arithmetic;
    # a threshold equal to an exact score (1/3 + 1/6 = 0.5) is where a
    # float sum (0.49999999999999994) falls short; a threshold is taken as
    # the decimal it prints as, so a score of 1/5 reaches 0.2
    names = list(table.column_names)
    classified = classify(table, ClassificationRules(default_class=ColumnClass.QI))
    n = table.row_count
    full = oracle_equivalence_class_count(table, names)
    exact = {}
    for name in names:
        singles = sum(1 for c in Counter(table.column_values(name)).values() if c == 1)
        without = oracle_equivalence_class_count(table, set(names) - {name})
        exact[name] = Fraction(singles, n) + 1 - Fraction(without, full)
    threshold = data.draw(
        st.one_of(st.sampled_from(sorted({float(v) for v in exact.values()})),
                  st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]),
                  st.floats(0, 2, allow_nan=False))
    )
    expected = {name for name, value in exact.items() if value >= Fraction(repr(threshold))}
    assert select_final_qis(score_columns(classified, policy), threshold) == expected


# -- equivalence class counting ------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(tables(), st.data())
def test_subset_monotonicity(table, data):
    names = list(table.column_names)
    b = set(data.draw(st.lists(st.sampled_from(names), unique=True)))
    a = set(data.draw(st.lists(st.sampled_from(sorted(b)), unique=True))) if b else set()
    assert equivalence_class_count(table, a) <= equivalence_class_count(table, b)
    assert 1 <= equivalence_class_count(table, b) <= max(table.row_count, 1)


@settings(max_examples=500, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_row_permutation_invariance(table, rnd):
    order = list(range(table.row_count))
    rnd.shuffle(order)
    rows = list(zip(*table.cells))
    shuffled = Table.from_rows("t", table.column_names, [rows[i] for i in order])
    for name in table.column_names:
        assert uniqueness(shuffled, name) == uniqueness(table, name)
        assert influence(shuffled, name) == influence(table, name)
    assert (
        equivalence_class_count(shuffled, table.column_names)
        == equivalence_class_count(table, table.column_names)
    )


@settings(max_examples=500, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_column_permutation_invariance(table, rnd):
    order = list(range(len(table.columns)))
    rnd.shuffle(order)
    permuted = Table.from_rows(
        "t", [table.column_names[p] for p in order], zip(*[table.cells[p] for p in order])
    )
    for name in table.column_names:
        assert uniqueness(permuted, name) == uniqueness(table, name)
        assert influence(permuted, name) == influence(table, name)


@settings(max_examples=500, deadline=None)
@given(tables())
def test_row_duplication_kills_uniqueness_preserves_influence(table):
    doubled = Table.from_rows("t", table.column_names, 2 * list(zip(*table.cells)))
    for name in table.column_names:
        assert uniqueness(doubled, name) == 0.0
        assert influence(doubled, name) == influence(table, name)


def assert_engine_matches_oracle(table: Table) -> None:
    assert equivalence_class_count(table, table.column_names) == oracle_equivalence_class_count(
        table, table.column_names
    )
    for name in table.column_names:
        assert uniqueness(table, name) == oracle_uniqueness(table, name)
        assert influence(table, name) == oracle_influence(table, name)


@settings(max_examples=500, deadline=None)
@given(tables())
def test_engine_matches_pairwise_oracle(table):
    assert_engine_matches_oracle(table)


@st.composite
def tables_with_a_column_near_256_values(draw):
    rnd = draw(st.randoms(use_true_random=False))
    wide = column_of(
        draw(st.sampled_from([255, 256, 257])), draw(st.booleans()), rnd, draw(st.integers(0, 60))
    )
    small = [[rnd.choice(["a", "b", None]) for _ in wide] for _ in range(draw(st.integers(1, 3)))]
    small.insert(draw(st.integers(0, len(small))), wide)
    return Table.from_rows("t", [f"c{i}" for i in range(len(small))], list(zip(*small)))


@settings(max_examples=25, deadline=None)
@given(tables_with_a_column_near_256_values())
def test_engine_matches_pairwise_oracle_near_256_values(table):
    assert [codes.dtype for codes in table.codes] == [
        code_dtype(table.cardinality(p)) for p in range(len(table.columns))
    ]
    assert_engine_matches_oracle(table)


def set_counts(table: Table, scored: list[str], universe: list[str]) -> list[ScoreCounts]:
    """Each scored column's counts, from Python sets of row projections."""
    cells = dict(zip(table.column_names, table.cells))

    def classes(names: list[str]) -> int:
        return len(set(zip(*(cells[n] for n in names)))) if names else 1

    return [
        ScoreCounts(
            sum(1 for k in Counter(cells[name]).values() if k == 1),
            table.row_count,
            classes(universe),
            classes([n for n in universe if n != name]),
        )
        for name in scored
    ]


@pytest.mark.parametrize("missing", [False, True])
@pytest.mark.parametrize("cardinality", [65_535, 65_536, 65_537])
def test_score_columns_matches_set_counts_near_65536_values(cardinality, missing):
    # the pairwise oracle is quadratic, too slow at this size
    rnd = random.Random(cardinality + missing)
    wide = column_of(cardinality, missing, rnd, cardinality // 4)
    columns = [wide, [rnd.choice(["a", "b", "c"]) for _ in wide], rnd.choices("xy", k=len(wide))]
    names = ["c0", "c1", "c2"]
    table = Table.from_rows("t", names, list(zip(*columns)))
    assert table.codes[0].dtype == code_dtype(cardinality)
    classified = classify(
        table, ClassificationRules(rules=tuple(Rule(n, ColumnClass.QI) for n in names[:2]))
    )
    for policy, universe in [
        (UniversePolicy.ALL_COLUMNS, names), (UniversePolicy.PRIMARY_QIS_ONLY, names[:2])
    ]:
        scores = score_columns(classified, policy)
        assert [s.counts for s in scores] == set_counts(table, names[:2], universe)


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
