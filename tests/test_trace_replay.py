"""The benchmark's traced replay of ``select`` runs on the current library.

``perfbench/trace_child.py`` looks up each library function it replays
by name and reports one it cannot find as absent. These tests run it as
``perfbench/run.py --trace 1`` does, on a small generated table, so a
deletion from the library that breaks the replay fails here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qi_sentry import ColumnClass, ColumnSpec, SyntheticSpec, generate_table, rules_for_spec
from qi_sentry.classifier import rules_to_doc
from qi_sentry.cli import main

ROOT = Path(__file__).resolve().parents[1]

SPEC = SyntheticSpec(
    rows=300,
    seed=5,
    name="replay",
    columns=(
        ColumnSpec("mrn", 300, class_hint=ColumnClass.DID),
        ColumnSpec("age", 40, class_hint=ColumnClass.QI),
        ColumnSpec("zip", 12, distribution="zipf(1.2)", class_hint=ColumnClass.QI),
        ColumnSpec("sex", 2, class_hint=ColumnClass.QI),
        ColumnSpec("diagnosis", 9, class_hint=ColumnClass.SA),
        ColumnSpec("note", 5),
    ),
)

FORM = {
    "linkage": "Mid",
    "intent": [True, True, False],
    "external_linkage": False,
    "protection": [True, True, True, True, False, False],
    "knowledge": [True, True, False],
    "tenure_years": 3,
}


@pytest.mark.parametrize("universe", ["all", "qi"])
def test_traced_replay_finds_every_function_and_agrees_with_select(tmp_path, capsys, universe):
    paths = {name: tmp_path / name for name in ("replay.csv", "rules.json", "form.json")}
    paths["replay.csv"].write_text(generate_table(SPEC).to_delimited(), encoding="utf-8")
    paths["rules.json"].write_text(json.dumps(rules_to_doc(rules_for_spec(SPEC))))
    paths["form.json"].write_text(json.dumps(FORM))
    out = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"),
         *map(str, paths.values()), universe, str(out)],
        env=env, check=True, timeout=120,
    )
    trace = json.loads(out.read_text(encoding="utf-8"))
    assert trace["problems"] == []
    assert trace["absent"] == []

    code = main([
        "select", "--input", str(paths["replay.csv"]), "--rules", str(paths["rules.json"]),
        "--assessment", str(paths["form.json"]), "--universe", universe,
        "--format", "json", "--no-timestamp",
    ])
    assert code == 0
    assert trace["report"] == json.loads(capsys.readouterr().out)
