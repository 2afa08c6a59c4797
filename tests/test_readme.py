"""README's examples, run as written: its JSON blocks parse, and its Python block prints.

The sizes README states for ingest and the writer are the ones the code sets.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np

from qi_sentry import metrics, table
from qi_sentry.assessment import parse_form
from qi_sentry.classifier import parse_rules, rules_to_doc
from qi_sentry.generate import generate_table, parse_spec, rules_for_spec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.M | re.S)


def blocks(language: str) -> list[str]:
    return [body for lang, body in BLOCKS if lang == language]


def test_readme_library_example_prints_the_final_qis(tmp_path, monkeypatch):
    rules_doc, form_doc, spec_doc = map(json.loads, blocks("json"))  # in README's order
    parse_rules(rules_doc)
    parse_form(form_doc)
    spec = parse_spec(spec_doc)
    (tmp_path / "visits.csv").write_text(generate_table(spec).to_delimited(), encoding="utf-8")
    rules = json.dumps(rules_to_doc(rules_for_spec(spec)))
    (tmp_path / "rules.json").write_text(rules, encoding="utf-8")
    (tmp_path / "requestor.json").write_text(json.dumps(form_doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    (example,) = blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    printed = ast.literal_eval(out.getvalue())
    assert isinstance(printed, list) and printed == sorted(printed)
    assert printed and set(printed) <= {col.name for col in spec.columns}


def test_readme_states_the_block_chunk_and_write_sizes_the_code_sets():
    text = " ".join(README.split())  # a phrase may wrap across lines
    stated = {
        "blocks": re.findall(r"read in blocks of about (\d+) MiB", text),
        "chunks": re.findall(r"chunks of (\d+) records", text),
        "writes": re.findall(r"gathers about (\d+) MiB of rows", text),
    }
    assert stated == {
        "blocks": [str(table._BLOCK_BYTES >> 20)],
        "chunks": [str(table._CHUNK_RECORDS)],
        "writes": [str(table._WRITE_BYTES >> 20)],
    }


def test_readme_states_the_step_the_occupancy_array_is_marked_in():
    text = " ".join(README.split())
    stated = re.findall(r"marks the keys of ([\d,]+) rows at a time", text)
    assert stated == [f"{metrics._STEP_ROWS:,}"]


def test_readme_states_the_step_a_pipes_code_arrays_grow_by():
    text = " ".join(README.split())
    stated = re.findall(r"for a pipe, or when the estimate falls short, it grows by (\w+)", text)
    columns = table._Columns(["a"])  # of no known size, as a pipe is
    columns.codes[0] = np.empty(1000, dtype=np.uint8)
    columns._reserve(1001)
    assert stated == ["half"] and len(columns.codes[0]) == 1500
