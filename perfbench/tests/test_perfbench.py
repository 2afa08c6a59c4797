"""Tests of the benchmark's own code.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import io
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import measure  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qi_sentry import IngestOptions, ingest_delimited  # noqa: E402
from qi_sentry.oracle import (  # noqa: E402
    oracle_equivalence_class_count,
    oracle_influence,
    oracle_uniqueness,
)

# Raw cells that trim to the same symbol, and several spellings of missing.
ALPHABET = ["a", " a", "a ", "b", "c", "d", "", " ", "NA", "x,y", 'q"t']


def random_csv(rng: random.Random, path: Path) -> list[str]:
    names = [f"c{i}" for i in range(rng.randint(1, 5))]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for _ in range(rng.randint(1, 25)):
        writer.writerow([rng.choice(ALPHABET[: rng.randint(2, len(ALPHABET))])
                         for _ in names])
    path.write_text(out.getvalue(), encoding="utf-8")
    return names


@pytest.mark.parametrize("seed", range(60))
def test_reference_equals_oracle_on_small_random_tables(tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "t.csv"
    names = random_csv(rng, path)
    table = ingest_delimited(path.read_bytes(), IngestOptions())
    qis = [n for n in names if rng.random() < 0.6] or names[:1]
    rules = {"default": "NSA", "rules": [{"match": n, "class": "QI"} for n in qis]}

    for universe in ("all", "qi"):
        expected = reference.answers(path, rules, universe, 0.5)
        cols = set(qis) if universe == "qi" else set(names)
        assert expected["n_classes"] == oracle_equivalence_class_count(table, cols)
        for name in qis:
            got = expected["scores"][name]
            assert got["uniqueness"] == oracle_uniqueness(table, name)
            assert got["influence"] == oracle_influence(table, name, cols)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_files_depend_only_on_the_seed(tmp_path, name):
    def files_for(seed: int, directory: Path) -> list[bytes]:
        work = workloads.workload(name, seed)
        # the real column mix at a test-sized row count
        work = dataclasses.replace(work, spec=dataclasses.replace(work.spec, rows=3000))
        files, _ = workloads.setup(work, directory)
        return [files.csv.read_bytes(), files.rules.read_bytes(), files.form.read_bytes()]

    first = files_for(5, tmp_path / "a")
    assert files_for(5, tmp_path / "b") == first
    other = files_for(6, tmp_path / "c")
    assert other[0] != first[0]
    assert other[1:] == first[1:]


def test_mismatches_compares_fields_not_bytes():
    expected = {
        "classes": {"a": "QI", "b": "DID"},
        "scores": {"a": {"uniqueness": 0.2, "influence": 0.123456, "sum": 0.323456}},
        "final_qis": ["a"],
    }
    report = {
        "final_qis": ["a"],
        "entries": [
            {"column": "b", "class": "DID", "uniqueness": None},
            {"column": "a", "class": "QI", "uniqueness": 0.2, "influence": 0.1235,
             "sum": 0.3235},
        ],
        "provenance": {"input_sha256": "..."},
    }
    assert reference.mismatches(report, expected) == []
    report["entries"][1]["influence"] = 0.1237
    assert reference.mismatches(report, expected) == ["a: influence 0.1237 != 0.123456"]
    report["final_qis"] = []
    assert len(reference.mismatches(report, expected)) == 2


def _child(megabytes: int, stderr: Path) -> measure.Child:
    code = f"b = bytearray({megabytes} << 20); b[::4096] = b'x' * len(b[::4096])"
    return measure.run_child([sys.executable, "-c", code], {}, stderr)


def test_wait4_reports_each_childs_own_peak(tmp_path):
    ballast = bytearray(400 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touched: the parent's peak is > 400 MB
    big = _child(200, tmp_path / "big.err")
    small = _child(0, tmp_path / "small.err")
    del ballast
    assert big.returncode == small.returncode == 0
    assert 200 <= big.rss_mb < 400
    # neither the parent's peak nor the earlier, bigger child leaks in
    assert small.rss_mb < 100


def test_tracer_charges_gc_to_the_innermost_span():
    with tracing.Tracer() as tr:
        with tr.span("outer"):
            with tr.span("inner", items=3):
                gc.collect()
    table = tracing.by_name(tr.spans)
    assert table["inner"]["gc_collections"] >= 1
    assert table["outer"]["gc_collections"] == 0
    assert tr.spans[1]["parent"] == tr.spans[0]["id"]
    assert tr.spans[1]["counts"] == {"items": 3}
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"]
    )


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".*", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
