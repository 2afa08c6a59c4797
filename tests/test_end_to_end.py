"""The whole ``select`` path, from a file's bytes to the final QIs, against an independent one.

``perfbench/reference.py`` reads the same file with ``csv.reader``, dicts,
``Counter`` and exact ``Fraction``, and imports nothing from qi_sentry.
It reads only the delimiter ``,`` and the NA token ``NA``, so those are
the only ones drawn here. It cuts at ``Fraction(threshold)``, the binary
value of the float, where the engine cuts at the decimal the threshold
prints as. The two agree on multiples of 1/8, which binary holds
exactly, so manual thresholds are drawn as k/8; a decimal such as 0.2,
whose binary value lies just above 1/5, would set them apart on a score
of exactly 1/5.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qi_sentry import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_reference():
    """perfbench/reference.py, loaded from its path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", ROOT / "perfbench" / "reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()

CLASSES = ["DID", "QI", "SA", "NSA"]
EDGES = st.sampled_from(["", " ", "\t", " \t "])
CORES = st.sampled_from(["a", "b", "1", "NA", "", "é", "한", "a,b", 'say "hi"', "x\ny"])

# One form per grade, with the grade's threshold: linkage points, plus Yes
# answers of risk and No answers of protection, plus knowledge and tenure,
# averaged to 10 (High), 6 (Middle) and 1/3 (Low).
FORMS = [
    ({"linkage": "High", "intent": [True] * 3, "external_linkage": True,
      "protection": [False] * 6, "knowledge": [True] * 3, "tenure_years": 12}, 0.25),
    ({"linkage": "High", "intent": [False] * 3, "external_linkage": False,
      "protection": [True] * 6, "knowledge": [True] * 3, "tenure_years": 8}, 0.5),
    ({"linkage": "Low", "intent": [False] * 3, "external_linkage": False,
      "protection": [True] * 6, "knowledge": [False] * 3, "tenure_years": 0}, 0.75),
]


@st.composite
def select_runs(draw):
    """A CSV file's bytes, its rules, universe, form, and the threshold it grades to or is given."""
    n_cols = draw(st.integers(1, 4))
    names = [draw(st.sampled_from([f"c{j}", f"C{j}"])) for j in range(n_cols)]
    cell = st.builds(lambda *parts: "".join(parts), EDGES, CORES, EDGES)
    rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), min_size=1, max_size=30))
    text = io.StringIO()
    writer = csv.writer(
        text,
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
    )
    writer.writerows([names, *rows])
    data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.getvalue().encode()

    # exact-name rules, in either case; a column without one takes the default
    assigned = [draw(st.sampled_from([*CLASSES, None])) for _ in names]
    assigned[draw(st.integers(0, n_cols - 1))] = "QI"
    rules = {
        "default": draw(st.sampled_from(CLASSES)),
        "rules": [
            {"match": draw(st.sampled_from([name.lower(), name.upper()])), "class": cls}
            for name, cls in zip(names, assigned) if cls is not None
        ],
    }
    form, threshold = draw(st.sampled_from(FORMS))
    manual = draw(st.none() | st.integers(0, 16))
    if manual is not None:
        threshold = manual / 8
    return data, rules, draw(st.sampled_from(["all", "qi"])), form, threshold, manual is not None


@settings(max_examples=150, deadline=None)
@given(select_runs())
def test_select_matches_the_reference_from_bytes_to_final_qis(run):
    data, rules, universe, form, threshold, manual = run
    with tempfile.TemporaryDirectory() as tmp:
        table, rules_file, form_file = (Path(tmp, n) for n in ("t.csv", "rules.json", "form.json"))
        table.write_bytes(data)
        rules_file.write_text(json.dumps(rules), encoding="utf-8")
        form_file.write_text(json.dumps(form), encoding="utf-8")
        argv = [
            "select", "--format", "json", "--no-timestamp", "--universe", universe,
            "--input", str(table), "--rules", str(rules_file), "--assessment", str(form_file),
            *(["--threshold", repr(threshold)] if manual else []),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        expected = reference.answers(table, rules, universe, threshold)
    report = json.loads(out.getvalue())
    assert report["threshold"] == threshold
    assert reference.mismatches(report, expected) == []
