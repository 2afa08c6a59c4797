"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as
they print. Every tolerance is pinned here; metric checks are exact
equality unless a runtime bound is stated.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from qi_sentry import (
    AssessmentForm,
    ClassificationRules,
    ColumnClass,
    ColumnSpec,
    LinkageGrade,
    RiskScore,
    SyntheticSpec,
    Table,
    UserGrade,
    classify,
    equivalence_class_count,
    generate_table,
    grade_requestor,
    influence,
    score_columns,
    select_final_qis,
    threshold_for,
    uniqueness,
)
from qi_sentry.cli import main
from qi_sentry.oracle import first_divergence

from conftest import DEMO_COLUMNS, DEMO_ROWS, random_table
from selection_grid import GRID_ROWS
from test_properties import riskier_variants

GRADE_RANK = {UserGrade.LOW: 0, UserGrade.MIDDLE: 1, UserGrade.HIGH: 2}


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL  {label}")
                raise
            suffix = f"  [{detail}]" if detail else ""
            print(f"ACCEPTANCE {number} PASS  {label}{suffix}")
        return wrapper
    return decorate


def demo() -> Table:
    return Table.from_rows("demo", DEMO_COLUMNS, DEMO_ROWS)


@criterion(1, "worked-example uniqueness values, exact, < 1 s")
def test_criterion_1_uniqueness():
    table = demo()
    started = time.perf_counter()
    values = {name: uniqueness(table, name) for name in table.column_names}
    elapsed = time.perf_counter() - started
    assert values == {"Weight": 0.2, "Age": 0.2, "Gender": 0.0, "Zipcode": 0.0}
    assert elapsed < 1.0
    return f"{elapsed * 1000:.1f} ms"


@criterion(2, "worked-example equivalence classes and influence values, exact")
def test_criterion_2_influence():
    table = demo()
    assert equivalence_class_count(table, table.column_names) == 4
    values = {name: influence(table, name) for name in table.column_names}
    assert values == {"Weight": 0.0, "Age": 0.25, "Gender": 0.0, "Zipcode": 0.0}


@criterion(3, "component scores (10, 2, 8) average to 6.67, grade Middle")
def test_criterion_3_requestor_grading():
    requestor = grade_requestor(
        AssessmentForm(
            linkage=LinkageGrade.HIGH,
            intent_answers=(True, True, False),
            external_linkage=False,
            protection_answers=(True,) * 6,
            knowledge_answers=(True, True, True),
            tenure_years=8,
        )
    )
    assert (requestor.linkage_points, requestor.reid_ability_points,
            requestor.understanding_points) == (10, 2, 8)
    assert f"{requestor.average:.2f}" == "6.67"
    assert requestor.grade is UserGrade.MIDDLE


@criterion(4, "grade-to-threshold mapping, exact")
def test_criterion_4_thresholds():
    assert threshold_for(UserGrade.HIGH).value == 0.25
    assert threshold_for(UserGrade.MIDDLE).value == 0.5
    assert threshold_for(UserGrade.LOW).value == 0.75


@criterion(5, "reference selection grid reproduced at every threshold")
def test_criterion_5_reference_selection():
    spotlighted = [
        (0.0000, 0.6494, True, True, False),
        (0.0095, 0.8194, True, True, True),
        (0.0197, 0.7075, True, True, False),
        (0.0, 0.2927, True, False, False),
    ]
    for uniq, infl, at025, at05, at075 in spotlighted:
        score = RiskScore.of("column", uniq, infl)
        assert ("column" in select_final_qis([score], 0.25)) is at025
        assert ("column" in select_final_qis([score], 0.5)) is at05
        assert ("column" in select_final_qis([score], 0.75)) is at075

    checks = 0
    for table_desc, column, uniq, infl, at025, at05, at075 in GRID_ROWS:
        score = RiskScore.of(column, uniq, infl)
        for threshold, expected in ((0.25, at025), (0.5, at05), (0.75, at075)):
            got = column in select_final_qis([score], threshold)
            assert got is expected, (table_desc, column, threshold)
            checks += 1
    return f"{checks} checkmarks over {len(GRID_ROWS)} rows"


@criterion(6, "engine equals pairwise oracle on 1000 random tables, < 60 s")
def test_criterion_6_oracle_equivalence():
    rng = random.Random(1000_6)
    started = time.perf_counter()
    for i in range(1000):
        table = random_table(rng, max_rows=20, max_cols=6, alphabet_size=4, name=f"r{i}")
        divergence = first_divergence(table)
        assert divergence is None, f"table {i}: {divergence}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    return f"{elapsed:.1f} s"


@criterion(7, "property suite, 500 generated cases per property")
def test_criterion_7_properties():
    cases = 500

    # metric ranges
    rng = random.Random(71)
    for _ in range(cases):
        table = random_table(rng, max_rows=12, max_cols=5)
        for name in table.column_names:
            assert 0.0 <= uniqueness(table, name) <= 1.0
            assert 0.0 <= influence(table, name) < 1.0

    # subset monotonicity of equivalence counts
    rng = random.Random(72)
    for _ in range(cases):
        table = random_table(rng, max_rows=12, max_cols=5)
        names = list(table.column_names)
        b = set(rng.sample(names, rng.randint(0, len(names))))
        a = set(rng.sample(sorted(b), rng.randint(0, len(b)))) if b else set()
        assert equivalence_class_count(table, a) <= equivalence_class_count(table, b)

    # row and column permutation invariance
    rng = random.Random(73)
    for _ in range(cases):
        table = random_table(rng, max_rows=10, max_cols=4)
        row_order = list(range(table.row_count))
        rng.shuffle(row_order)
        rows = list(zip(*table.cells))
        by_rows = Table.from_rows("t", table.column_names, [rows[i] for i in row_order])
        col_order = list(range(len(table.columns)))
        rng.shuffle(col_order)
        by_cols = Table.from_rows(
            "t",
            [table.column_names[p] for p in col_order],
            zip(*[table.cells[p] for p in col_order]),
        )
        for name in table.column_names:
            assert uniqueness(by_rows, name) == uniqueness(table, name)
            assert uniqueness(by_cols, name) == uniqueness(table, name)
            assert influence(by_rows, name) == influence(table, name)
            assert influence(by_cols, name) == influence(table, name)

    # duplication kills uniqueness, preserves influence
    rng = random.Random(74)
    for _ in range(cases):
        table = random_table(rng, max_rows=10, max_cols=4)
        doubled = Table.from_rows("t", table.column_names, 2 * list(zip(*table.cells)))
        for name in table.column_names:
            assert uniqueness(doubled, name) == 0.0
            assert influence(doubled, name) == influence(table, name)

    # threshold anti-monotonicity and grade nesting
    rng = random.Random(75)
    for _ in range(cases):
        scores = [
            RiskScore.of(f"c{i}", rng.random(), rng.random())
            for i in range(rng.randint(0, 12))
        ]
        t1, t2 = sorted((rng.uniform(0, 2), rng.uniform(0, 2)))
        assert select_final_qis(scores, t2) <= select_final_qis(scores, t1)
        low = select_final_qis(scores, threshold_for(UserGrade.LOW))
        mid = select_final_qis(scores, threshold_for(UserGrade.MIDDLE))
        high = select_final_qis(scores, threshold_for(UserGrade.HIGH))
        assert low <= mid <= high

    # assessment monotonicity: a riskier answer never lowers the grade
    rng = random.Random(76)
    for _ in range(cases):
        form = AssessmentForm(
            linkage=rng.choice(list(LinkageGrade)),
            intent_answers=tuple(rng.random() < 0.5 for _ in range(3)),
            external_linkage=rng.random() < 0.5,
            protection_answers=tuple(rng.random() < 0.5 for _ in range(6)),
            knowledge_answers=tuple(rng.random() < 0.5 for _ in range(3)),
            tenure_years=rng.uniform(0, 15),
        )
        base = grade_requestor(form)
        for riskier in riskier_variants(form):
            worse = grade_requestor(riskier)
            assert worse.average >= base.average
            assert GRADE_RANK[worse.grade] >= GRADE_RANK[base.grade]

    return f"6 properties x {cases} cases"


@criterion(8, "byte-identical reports on a 10k-row table; concurrent scoring = serial")
def test_criterion_8_determinism():
    spec = {
        "rows": 10_000,
        "seed": 88,
        "name": "tenk",
        "columns": [
            {"name": "birth_year", "distinct_values": 80, "distribution": "zipf(1.1)", "class_hint": "QI"},
            {"name": "sex", "distinct_values": 2, "class_hint": "QI"},
            {"name": "postal", "distinct_values": 500, "distribution": "zipf(1.3)", "class_hint": "QI"},
            {"name": "visit_code", "distinct_values": 3000, "distribution": "zipf(1.2)", "class_hint": "QI"},
            {"name": "note", "distinct_values": 9000, "class_hint": "NSA"},
        ],
    }
    form = {
        "linkage": "High",
        "intent": [True, True, True],
        "external_linkage": True,
        "protection": [False] * 6,
        "knowledge": [True, True, True],
        "tenure_years": 10,
    }
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "spec.json").write_text(json.dumps(spec))
        (base / "form.json").write_text(json.dumps(form))

        def run(*argv) -> tuple[int, str]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
            return code, out.getvalue()

        code, _ = run(
            "generate", "--spec", str(base / "spec.json"),
            "--output", str(base / "table.csv"),
            "--rules-out", str(base / "rules.json"),
        )
        assert code == 0
        args = (
            "select",
            "--input", str(base / "table.csv"),
            "--rules", str(base / "rules.json"),
            "--assessment", str(base / "form.json"),
            "--no-timestamp", "--format", "json",
        )
        code1, first = run(*args)
        code2, second = run(*args)
        assert code1 == code2 == 0
        assert first == second

        table = generate_table(
            SyntheticSpec(
                rows=10_000,
                columns=tuple(
                    ColumnSpec(c["name"], c["distinct_values"], c.get("distribution", "uniform"))
                    for c in spec["columns"]
                ),
                seed=88,
                name="tenk",
            )
        )
        classified = classify(table, ClassificationRules(default_class=ColumnClass.QI))
        serial = score_columns(classified)
        # tables are safe to share across threads: two, released together, score one at once
        start = threading.Barrier(2)

        def score_at_once(_):
            start.wait(timeout=60)
            return score_columns(classified)

        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(score_at_once, range(2))) == [serial, serial]


@criterion(9, "full scoring of a 1,000,000 x 30 synthetic table in < 60 s")
def test_criterion_9_performance():
    columns = []
    for i in range(30):
        if i % 3 == 0:
            columns.append(ColumnSpec(f"c{i}", 10_000, "zipf(1.2)"))
        elif i % 3 == 1:
            columns.append(ColumnSpec(f"c{i}", 50))
        else:
            columns.append(ColumnSpec(f"c{i}", 200, "zipf(1.5)"))
    spec = SyntheticSpec(rows=1_000_000, columns=tuple(columns), seed=909, name="big")
    table = generate_table(spec)
    classified = classify(table, ClassificationRules(default_class=ColumnClass.QI))

    started = time.perf_counter()
    scores = score_columns(classified)
    elapsed = time.perf_counter() - started

    assert len(scores) == 30
    assert all(0 <= s.uniqueness <= 1 and 0 <= s.influence < 1 for s in scores)
    assert elapsed < 60.0
    return f"{elapsed:.1f} s"
