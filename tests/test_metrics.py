from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

import qi_sentry.table as table_module
from qi_sentry import (
    ClassificationRules,
    ColumnClass,
    ColumnSpec,
    MetricUndefined,
    NoSuchColumn,
    Rule,
    RiskScore,
    SyntheticSpec,
    Table,
    UniversePolicy,
    classify,
    equivalence_class_count,
    generate_table,
    influence,
    rules_for_spec,
    score_columns,
    secondary_qis,
    uniqueness,
)
from qi_sentry.oracle import (
    oracle_equivalence_class_count,
    oracle_influence,
    oracle_uniqueness,
)

from conftest import column_of, random_table


def qi_rules(*names):
    return ClassificationRules(rules=tuple(Rule(n, ColumnClass.QI) for n in names))


# Random 8x4 table, seed 14 over {a, b, missing}; expected values were
# computed with the pairwise oracle first and hand-checked, then frozen.
RAND8X4_SEED = 14
RAND8X4_UNIQUENESS = [0.125, 0.125, 0.125, 0.0]
RAND8X4_INFLUENCE = [0.0, 0.0, 0.125, 0.25]


def rand8x4() -> Table:
    rng = random.Random(RAND8X4_SEED)
    symbols = ["a", "b", None]
    rows = [[rng.choice(symbols) for _ in range(4)] for _ in range(8)]
    return Table.from_rows("rand8x4", ["c0", "c1", "c2", "c3"], rows)


# -- uniqueness ----------------------------------------------------------

def test_uniqueness_demo(demo_table):
    assert uniqueness(demo_table, "Weight") == 0.2
    assert uniqueness(demo_table, "Age") == 0.2
    assert uniqueness(demo_table, "Gender") == 0.0
    assert uniqueness(demo_table, "Zipcode") == 0.0


def test_uniqueness_constant_column():
    assert uniqueness(Table.from_rows("t", ["a"], [["x"], ["x"], ["x"]]), "a") == 0.0
    assert uniqueness(Table.from_rows("t", ["a"], [["x"]]), "a") == 1.0


def test_uniqueness_all_distinct():
    table = Table.from_rows("t", ["a"], [["x"], ["y"], ["z"], ["w"]])
    assert uniqueness(table, "a") == 1.0


def test_uniqueness_missing_is_one_shared_symbol():
    table = Table.from_rows("t", ["a"], [["x"], [None], [None]])
    assert uniqueness(table, "a") == pytest.approx(1 / 3)
    solo = Table.from_rows("t", ["a"], [["x"], [None]])
    assert uniqueness(solo, "a") == 1.0  # a lone missing cell is itself unique


def test_uniqueness_empty_table():
    with pytest.raises(MetricUndefined):
        uniqueness(Table.from_rows("t", ["a"], []), "a")


def test_uniqueness_unknown_column(demo_table):
    with pytest.raises(NoSuchColumn):
        uniqueness(demo_table, "Height")


# -- equivalence classes --------------------------------------------------

def test_class_count_demo_full(demo_table):
    assert equivalence_class_count(demo_table, demo_table.column_names) == 4


def test_class_count_demo_without_weight(demo_table):
    assert equivalence_class_count(demo_table, {"Age", "Gender", "Zipcode"}) == 4


def test_class_count_demo_without_age(demo_table):
    assert equivalence_class_count(demo_table, {"Weight", "Gender", "Zipcode"}) == 3


def test_class_count_empty_subset(demo_table):
    assert equivalence_class_count(demo_table, set()) == 1


def test_class_count_missing_cells_group_together():
    table = Table.from_rows("t", ["a", "b"], [[None, "x"], [None, "x"], ["v", "x"]])
    assert equivalence_class_count(table, {"a", "b"}) == 2


def test_class_count_unknown_column(demo_table):
    with pytest.raises(NoSuchColumn):
        equivalence_class_count(demo_table, {"Weight", "nope"})


def test_class_count_empty_table():
    with pytest.raises(MetricUndefined):
        equivalence_class_count(Table.from_rows("t", ["a"], []), {"a"})


def test_class_count_compression_path_matches_oracle():
    # 10 near-distinct columns of a 300-row table: every pair key space
    # is far above 4n, so each fold goes through the sort, and the
    # rows are all told apart before the last column
    rng = random.Random(3001)
    rows = [[f"x{rng.randint(0, 299)}" for _ in range(10)] for _ in range(300)]
    table = Table.from_rows("wide", [f"c{i}" for i in range(10)], rows)
    got = equivalence_class_count(table, table.column_names)
    assert got == oracle_equivalence_class_count(table, table.column_names)


def test_class_count_with_tiny_radix_budget_matches_oracle(monkeypatch):
    # a zero sort-free budget sends every fold through the sort, then
    # sweep random tables against the pairwise oracle; the empty subset
    # must count 1 without reaching the recursion's halving split
    monkeypatch.setattr(table_module, "_SORT_FREE_FACTOR", 0)
    rng = random.Random(66)
    for _ in range(50):
        table = random_table(rng, max_rows=16, max_cols=6)
        for subset in (set(), {table.column_names[0]}, set(table.column_names)):
            assert equivalence_class_count(table, subset) == oracle_equivalence_class_count(
                table, subset
            )


# -- influence -------------------------------------------------------------

def test_influence_demo(demo_table):
    assert influence(demo_table, "Age") == 0.25
    assert influence(demo_table, "Weight") == 0.0
    assert influence(demo_table, "Gender") == 0.0
    assert influence(demo_table, "Zipcode") == 0.0


def test_influence_single_column_table():
    table = Table.from_rows("t", ["a"], [["x"], ["y"], ["z"]])
    assert influence(table, "a") == pytest.approx(1 - 1 / 3)


def test_influence_explicit_universe(demo_table):
    # with the universe narrowed to {Weight, Age}, Weight's removal
    # merges (45, 21) and (45, 64) style rows differently than the
    # whole-table universe does
    assert influence(demo_table, "Weight", {"Weight", "Age"}) == 0.25
    assert influence(demo_table, "Weight") == 0.0


def test_influence_column_must_be_in_universe(demo_table):
    with pytest.raises(ValueError):
        influence(demo_table, "Weight", {"Age", "Gender"})


def test_influence_rand8x4_matches_frozen_oracle_values():
    table = rand8x4()
    got = [influence(table, c) for c in table.column_names]
    assert got == RAND8X4_INFLUENCE
    assert [uniqueness(table, c) for c in table.column_names] == RAND8X4_UNIQUENESS
    # and the oracle agrees with itself on the frozen values
    assert [oracle_influence(table, c) for c in table.column_names] == RAND8X4_INFLUENCE


@pytest.mark.parametrize("influence_of", [influence, oracle_influence])
def test_influence_resolves_names_as_every_metric_does(influence_of):
    # names compare case-insensitively, so "age" is Age, and {Age, age,
    # Weight} is the universe {Age, Weight}: N = 3, and N({Weight}) = 2
    table = Table.from_rows("t", ["Weight", "Age"], [["1", "2"], ["1", "3"], ["2", "3"]])
    assert influence_of(table, "age") == influence_of(table, "Age") == 1 - 2 / 3
    assert influence_of(table, "Age", {"Age", "age", "Weight"}) == 1 - 2 / 3
    assert influence_of(table, "AGE", ["weight", "age"]) == 1 - 2 / 3
    with pytest.raises(NoSuchColumn):
        influence_of(table, "Height")
    with pytest.raises(NoSuchColumn):
        influence_of(table, "Age", {"Age", "Height"})
    with pytest.raises(ValueError):
        influence_of(table, "age", {"Weight"})


def test_influence_folds_its_universe_once(monkeypatch):
    # N(U) and N(U - {c}) come from one fold of U - {c} and one pairing
    # with c: at most |U| pairings, where two folds of U take 2|U| - 1
    import qi_sentry.metrics as metrics

    table = table_of_cardinalities([3] * 5, 200, 47)
    calls = []
    real = metrics._pair
    monkeypatch.setattr(metrics, "_pair", lambda *args: calls.append(1) or real(*args))
    for name in table.column_names:
        calls.clear()
        assert influence(table, name) == oracle_influence(table, name)
        assert 0 < len(calls) <= len(table.column_names)


# -- scoring ----------------------------------------------------------------

def test_score_columns_demo(demo_table, all_qi_rules):
    scores = score_columns(classify(demo_table, all_qi_rules))
    assert [s.column for s in scores] == ["Weight", "Age", "Gender", "Zipcode"]
    assert scores[0] == RiskScore("Weight", 0.2, 0.0, 0.2)
    assert scores[1] == RiskScore("Age", 0.2, 0.25, 0.45)
    assert scores[2] == RiskScore("Gender", 0.0, 0.0, 0.0)
    assert scores[3] == RiskScore("Zipcode", 0.0, 0.0, 0.0)


def test_score_columns_single_distinct_column():
    k = 7
    table = Table.from_rows("t", ["a"], [[f"v{i}"] for i in range(k)])
    classified = classify(table, qi_rules("a"))
    (score,) = score_columns(classified)
    assert score.uniqueness == 1.0
    assert score.influence == 1 - 1 / k
    assert score.sum == 2 - 1 / k


def test_score_columns_only_primary_qis_scored(demo_table):
    classified = classify(demo_table, qi_rules("age", "gender"))
    scores = score_columns(classified)
    assert [s.column for s in scores] == ["Age", "Gender"]


def test_score_columns_universe_policy(demo_table):
    classified = classify(demo_table, qi_rules("weight", "age"))
    all_cols = {s.column: s for s in score_columns(classified, UniversePolicy.ALL_COLUMNS)}
    qis_only = {s.column: s for s in score_columns(classified, UniversePolicy.PRIMARY_QIS_ONLY)}
    assert all_cols["Weight"].influence == 0.0
    assert qis_only["Weight"].influence == 0.25
    assert qis_only["Age"].influence == 0.25


def test_score_columns_empty_table(all_qi_rules):
    table = Table.from_rows("t", ["Weight", "Age", "Gender", "Zipcode"], [])
    with pytest.raises(MetricUndefined):
        score_columns(classify(table, all_qi_rules))


def test_score_columns_matches_oracle_on_synthetic_50x6():
    rng = random.Random(50606)
    table = random_table(rng, max_rows=50, max_cols=6)
    classified = classify(table, ClassificationRules(default_class=ColumnClass.QI))
    for score in score_columns(classified):
        assert score.uniqueness == oracle_uniqueness(table, score.column)
        assert score.influence == oracle_influence(table, score.column)


def test_score_columns_parallel_matches_serial(demo_table, all_qi_rules):
    classified = classify(demo_table, all_qi_rules)
    assert score_columns(classified, max_workers=4) == score_columns(classified)


def test_score_columns_deterministic(demo_table, all_qi_rules):
    classified = classify(demo_table, all_qi_rules)
    assert score_columns(classified) == score_columns(classified)


def classified_with(table, qis):
    return classify(table, qi_rules(*qis))


def oracle_scores(table, qis, policy):
    universe = set(qis) if policy is UniversePolicy.PRIMARY_QIS_ONLY else set(table.column_names)
    return [
        RiskScore.of(n, oracle_uniqueness(table, n), oracle_influence(table, n, universe))
        for n in table.column_names
        if n in qis
    ]


@pytest.mark.parametrize("policy", list(UniversePolicy))
def test_score_columns_no_scored_column(demo_table, policy):
    assert score_columns(classify(demo_table, ClassificationRules()), policy) == []


@pytest.mark.parametrize("policy", list(UniversePolicy))
def test_score_columns_one_scored_column(demo_table, policy):
    (score,) = score_columns(classified_with(demo_table, ["age"]), policy)
    assert score == oracle_scores(demo_table, {"Age"}, policy)[0]


def test_score_columns_qi_universe_of_one_column_leaves_one_class(demo_table):
    # N(empty set) = 1: without its only column the universe is one class
    (score,) = score_columns(classified_with(demo_table, ["zipcode"]), UniversePolicy.PRIMARY_QIS_ONLY)
    assert (score.counts.full, score.counts.without) == (2, 1)
    assert score.influence == 0.5


@pytest.mark.parametrize("policy", list(UniversePolicy))
def test_score_columns_zero_rows(policy):
    table = Table.from_rows("t", ["a", "b"], [])
    with pytest.raises(MetricUndefined):
        score_columns(classified_with(table, ["a"]), policy)
    with pytest.raises(MetricUndefined):
        score_columns(classify(table, ClassificationRules()), policy)


def test_score_columns_counts(demo_table, all_qi_rules):
    counts = [s.counts for s in score_columns(classify(demo_table, all_qi_rules))]
    assert [(c.singles, c.rows, c.full, c.without) for c in counts] == [
        (1, 5, 4, 4), (1, 5, 4, 3), (0, 5, 4, 4), (0, 5, 4, 4)
    ]


def spy_pair_ids(monkeypatch) -> list:
    """Record every _pair_ids call that scoring makes."""
    import qi_sentry.metrics as metrics

    calls = []
    real = metrics._pair_ids
    monkeypatch.setattr(metrics, "_pair_ids", lambda *args: calls.append(1) or real(*args))
    return calls


def test_saturated_context_stops_folding(monkeypatch):
    # "id" alone tells every row apart, so once it is folded in no pair
    # of ids is formed again, and every leave-one-out count is n
    rng = random.Random(7)
    rows = [[str(i)] + [rng.choice("xyz") for _ in range(4)] for i in range(30)]
    table = Table.from_rows("t", ["id", "a", "b", "c", "d"], rows)
    calls = spy_pair_ids(monkeypatch)
    qis = {"a", "b", "c", "d"}
    scores = score_columns(classified_with(table, qis), UniversePolicy.ALL_COLUMNS)
    assert calls == []
    assert scores == oracle_scores(table, qis, UniversePolicy.ALL_COLUMNS)
    assert {s.counts.without for s in scores} == {30}
    assert equivalence_class_count(table, table.column_names) == 30
    assert calls == []


def test_scoring_a_tall_table_folds_only_the_rows_left_in_shared_groups():
    # the benchmark's tall table at 50k rows, its cardinalities above 1000
    # scaled by 1/6: after the unscored mrn, 30k rows are alone in their
    # groups, so the folds that follow read far fewer rows. Traced peak:
    # 3.1 MB while every fold read all 50k rows, 1.3 MB with the settled
    # ones dropped
    did, qi, sa, nsa = ColumnClass.DID, ColumnClass.QI, ColumnClass.SA, ColumnClass.NSA
    rows = 50_000
    columns = (
        ColumnSpec("mrn", 2 * rows, "uniform", did),
        ColumnSpec("patient_name", 8_333, "zipf(1.1)", did),
        ColumnSpec("birth_year", 90, "zipf(1.1)", qi),
        ColumnSpec("sex", 2, "uniform", qi),
        ColumnSpec("postal", 1_000, "zipf(1.3)", qi),
        ColumnSpec("visit_ts", 5 * rows, "uniform", qi),
        ColumnSpec("diagnosis", 2_000, "zipf(1.2)", sa),
        ColumnSpec("medication", 500, "zipf(1.4)", sa),
        ColumnSpec("lab_value", 1_666, "uniform", nsa),
        ColumnSpec("ward", 40, "uniform", nsa),
        ColumnSpec("clinician", 300, "zipf(1.2)", nsa),
        ColumnSpec("note", 1_500, "uniform", nsa),
    )
    spec = SyntheticSpec(rows=rows, columns=columns, seed=28, name="tall")
    classified = classify(generate_table(spec), rules_for_spec(spec))
    tracemalloc.start()
    try:
        scores = score_columns(classified, UniversePolicy.ALL_COLUMNS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.column for s in scores] == ["birth_year", "sex", "postal", "visit_ts"]
    assert {(s.counts.full, s.counts.without) for s in scores} == {(rows, rows)}
    assert peak < 2 << 20


@pytest.mark.parametrize("sort_free_factor", [4, 0])
@pytest.mark.parametrize("policy", list(UniversePolicy))
def test_score_columns_ten_columns_matches_oracle(monkeypatch, sort_free_factor, policy):
    # ten scored columns recurse four levels deep (10 -> 5 -> 2 -> 1);
    # each has a row that differs from row 0 in that column alone, so
    # every influence is positive, and every row appears twice, so no
    # context ever saturates
    monkeypatch.setattr(table_module, "_SORT_FREE_FACTOR", sort_free_factor)
    rng = random.Random(1010)
    names = [f"c{i}" for i in range(12)]
    distinct = [[rng.choice(["a", "b", "c", None]) for _ in names] for _ in range(12)]
    for i in range(1, 11):
        distinct.append(list(distinct[0]))
        distinct[-1][i] = "z"
    table = Table.from_rows("t", names, distinct + distinct[::-1])
    qis = set(names[1:11])
    scores = score_columns(classified_with(table, qis), policy)
    assert scores == oracle_scores(table, qis, policy)
    assert all(s.influence > 0 for s in scores)


def table_of_cardinalities(cardinalities, n, seed, extra=()):
    """n shuffled rows whose column i holds exactly cardinalities[i] values."""
    rng = random.Random(seed)
    columns = [column_of(card, False, rng, n - card) for card in cardinalities]
    columns += [list(cells) for cells in extra]
    names = [f"k{i}" for i in range(len(cardinalities))] + [f"x{i}" for i in range(len(extra))]
    table = Table.from_rows("t", names, [list(row) for row in zip(*columns)])
    assert [table.cardinality(p) for p in range(len(cardinalities))] == list(cardinalities)
    return table


@pytest.mark.parametrize("policy", list(UniversePolicy))
def test_small_key_space_scores_without_pair_ids(monkeypatch, policy):
    # shaped like the lowcard workload: six low-cardinality QIs and one
    # SA outside them; 3 * 2*3*2*3*2*3 = 648 keys fit in 4n = 800, so the
    # root takes every count from one occupancy array under both policies
    rng = random.Random(19)
    outcome = column_of(3, False, rng, 197)
    table = table_of_cardinalities([2, 3, 2, 3, 2, 3], 200, 19, extra=[outcome])
    qis = {f"k{i}" for i in range(6)}
    calls = spy_pair_ids(monkeypatch)
    scores = score_columns(classified_with(table, qis), policy)
    assert calls == []
    assert scores == oracle_scores(table, qis, policy)
    assert all(s.counts.full < 200 for s in scores)  # no count saturates


@pytest.mark.parametrize("policy", list(UniversePolicy))
def test_node_inside_the_recursion_scores_from_occupancy(monkeypatch, policy):
    # k3 repeats k2 (10 values): the root's 2 * 2 * 10 * 10 = 400 keys
    # exceed 4n = 200, but once k2 and k3 are folded into 10 groups, the
    # node that leaves out k0 or k1 has 10 * 2 * 2 = 40 keys and fits
    import qi_sentry.metrics as metrics

    table = table_of_cardinalities([2, 2, 10], 50, 37)
    table = Table.from_rows("t", ["k0", "k1", "k2", "k3"],
                            [row + (row[2],) for row in zip(*table.cells)])
    nodes = []
    real = metrics._occupancy_counts
    monkeypatch.setattr(metrics, "_occupancy_counts", lambda table, grouping, positions, space: (
        nodes.append((grouping[2], list(positions), space)) or real(table, grouping, positions, space)
    ))
    qis = set(table.column_names)
    assert score_columns(classified_with(table, qis), policy) == oracle_scores(table, qis, policy)
    assert nodes == [(10, [0, 1], 40)]


@pytest.mark.parametrize("sort_free_factor", [4, 0])
@pytest.mark.parametrize("policy", list(UniversePolicy))
def test_constant_and_all_missing_columns_score_as_the_oracle(monkeypatch, sort_free_factor, policy):
    # a column of one value, or of missing cells only, has cardinality 1:
    # its axis of the occupancy array has length one and splits nothing
    monkeypatch.setattr(table_module, "_SORT_FREE_FACTOR", sort_free_factor)
    table = table_of_cardinalities([3, 2], 12, 23, extra=[["x"] * 12, [None] * 12, ["y"] * 12])
    assert table.cardinality(3) == 1
    qis = {"k0", "x0", "k1", "x1"}
    calls = spy_pair_ids(monkeypatch)
    scores = score_columns(classified_with(table, qis), policy)
    assert scores == oracle_scores(table, qis, policy)
    assert {s.column: s.influence for s in scores}["x0"] == 0.0
    assert {s.column: s.influence for s in scores}["x1"] == 0.0
    assert (calls == []) == (sort_free_factor == 4)


@pytest.mark.parametrize("policy", list(UniversePolicy))
def test_key_space_bound_is_inclusive(monkeypatch, policy):
    # 2 * 3 * 4 = 24 keys = 4n for n = 6: the root still fits, as the
    # sort-free bound of _pair_ids is inclusive
    table = table_of_cardinalities([2, 3, 4], 6, 29)
    qis = set(table.column_names)
    calls = spy_pair_ids(monkeypatch)
    assert score_columns(classified_with(table, qis), policy) == oracle_scores(table, qis, policy)
    assert calls == []


def test_key_space_one_past_the_bound_recurses(monkeypatch):
    # 5 * 5 = 25 keys > 4n = 24: the root halves, and the full count takes a fold
    table = table_of_cardinalities([5, 5], 6, 31)
    qis = set(table.column_names)
    calls = spy_pair_ids(monkeypatch)
    scores = score_columns(classified_with(table, qis), UniversePolicy.PRIMARY_QIS_ONLY)
    assert scores == oracle_scores(table, qis, UniversePolicy.PRIMARY_QIS_ONLY)
    assert calls == [1]


def test_pair_ids_branches_agree(monkeypatch):
    import qi_sentry.metrics as metrics

    rng = np.random.default_rng(5)
    for card_a, card_b in [(1, 1), (3, 7), (50, 40), (200, 200)]:
        a = rng.integers(0, card_a, 300)
        b = rng.integers(0, card_b, 300).astype(np.int32)
        # densify a: _pair_ids expects every id below card_a to occur
        _, a = np.unique(a, return_inverse=True)
        _, b = np.unique(b, return_inverse=True)
        card_b = int(b.max()) + 1
        # a factor of card_b admits any span of pair keys over 300 rows; 0 admits none
        monkeypatch.setattr(table_module, "_SORT_FREE_FACTOR", card_b)
        free_ids, free_count = metrics._pair_ids(a, b, card_b)
        monkeypatch.setattr(table_module, "_SORT_FREE_FACTOR", 0)
        sort_ids, sort_count = metrics._pair_ids(a, b, card_b)
        assert free_count == sort_count == len(set(zip(a.tolist(), b.tolist())))
        assert np.array_equal(free_ids, sort_ids)


# -- secondary QIs -----------------------------------------------------------

def test_secondary_qis_demo(demo_table, all_qi_rules):
    scores = score_columns(classify(demo_table, all_qi_rules))
    assert secondary_qis(scores) == {"Weight", "Age"}


def test_secondary_qis_all_zero():
    scores = [RiskScore.of("a", 0.0, 0.0), RiskScore.of("b", 0.0, 0.0)]
    assert secondary_qis(scores) == set()


def test_secondary_qis_keeps_tiny_positive_sums():
    assert secondary_qis([RiskScore.of("Gender", 0.0, 0.0008)]) == {"Gender"}


def test_risk_score_sum_is_exact():
    score = RiskScore.of("c", 0.2, 0.25)
    assert score.sum == 0.2 + 0.25



def test_key_space_of_2_to_the_31_recurses_whatever_the_factor(monkeypatch):
    # 128 * 256**3 = 2**31 keys would not fit int32 keys, so the root
    # halves even where the factor admits it. k2 and k3 repeat k1, so
    # folding them leaves 256 groups; those of k1's values that occur
    # more than once stay shared, and the node over k0 and k1 fits
    import qi_sentry.metrics as metrics

    table = table_of_cardinalities([128, 256], 300, 41)
    table = Table.from_rows("t", ["k0", "k1", "k2", "k3"],
                            [row + (row[1], row[1]) for row in zip(*table.cells)])
    # set once the table is built: at this factor ingest would mark its
    # keys' span of about 2**32 in one array
    monkeypatch.setattr(table_module, "_SORT_FREE_FACTOR", 10**9)
    spaces = []
    real = metrics._occupancy_counts

    def occupancy_counts(table, grouping, positions, space):
        spaces.append(space)
        assert space < 2**31  # checked before a 2 GiB array is made
        return real(table, grouping, positions, space)

    monkeypatch.setattr(metrics, "_occupancy_counts", occupancy_counts)
    qis = set(table.column_names)
    policy = UniversePolicy.PRIMARY_QIS_ONLY
    assert score_columns(classified_with(table, qis), policy) == oracle_scores(table, qis, policy)
    shared = int(np.count_nonzero(np.bincount(table.codes[1]) > 1))
    assert shared * 128 * 256 in spaces
