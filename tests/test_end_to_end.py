"""The whole ``select`` path, from a file's bytes to the final QIs, against an independent one.

``perfbench/reference.py`` reads a file with ``csv.reader``, dicts,
``Counter`` and exact ``Fraction``, and imports nothing from qi_sentry.
It reads only the delimiter ``,`` and the NA token ``NA``. So qi-sentry
reads the drawn table written with a drawn delimiter (``,``, ``;``, tab
or ``§``) under a drawn ``--na-token``, and the reference reads a ``,``
twin that ``csv.writer`` writes from the same cells, relabelled: a cell
whose trimmed form is the drawn token becomes ``NA``, and a trimmed
``NA`` that qi-sentry reads as a value becomes a symbol drawn nowhere
else. Scores depend only on which cells are equal, so the relabelling
keeps the answer. Manual thresholds are drawn as decimals,
k/20 and k/100 in [0, 2]. The engine cuts at the decimal a threshold
prints as, so the reference is given that decimal as a ``Fraction``,
which its own ``Fraction(threshold)`` keeps exact: a score of exactly
1/5 meets 0.2 on both sides, though the float 0.2 lies just above 1/5.
Draws seldom land on a threshold, so one explicit example does.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
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
CORES = st.sampled_from(
    ["a", "b", "1", "NA", "", "é", "한", "a,b", "a;b", "a\tb", "a§b", 'say "hi"', "x\ny"]
)
DELIMITERS = st.sampled_from([",", ";", "\t", "§"])
# "a" is also a core, so its cells become missing
NA_TOKENS = st.sampled_from(["NA", "", "-", "null", "N/A", "없음", "a"])
FRESH = "NA as a value"  # no core, edge or token holds it
# decimals, most of which binary holds only approximately
MANUAL = st.integers(0, 40).map(lambda k: k / 20) | st.integers(0, 200).map(lambda k: k / 100)

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
    """A CSV file's bytes in a drawn delimiter, its NA token and its relabelled ``,`` twin;
    rules, universe, form, the threshold it grades to or is given, and whether it was given."""
    n_cols = draw(st.integers(1, 4))
    names = [draw(st.sampled_from([f"c{j}", f"C{j}"])) for j in range(n_cols)]
    cell = st.builds(lambda *parts: "".join(parts), EDGES, CORES, EDGES)
    rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), min_size=1, max_size=30))
    delimiter = draw(DELIMITERS)
    na_token = draw(NA_TOKENS)
    lineterminator = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))

    def written(delimiter: str, rows: list[list[str]]) -> bytes:
        text = io.StringIO()
        writer = csv.writer(
            text, delimiter=delimiter, lineterminator=lineterminator, quoting=quoting
        )
        writer.writerows([names, *rows])
        return bom + text.getvalue().encode()

    def relabelled(cell: str) -> str:
        trimmed = cell.strip(reference._ASCII_WS)
        return "NA" if trimmed == na_token else FRESH if trimmed == "NA" else cell

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
    manual = draw(st.none() | MANUAL)
    if manual is not None:
        threshold = manual
    universe = draw(st.sampled_from(["all", "qi"]))
    twin = [[relabelled(cell) for cell in row] for row in rows]
    return (
        delimiter, na_token, written(delimiter, rows), written(",", twin), rules, universe, form,
        threshold, manual is not None,
    )


# c0 has one single in 5 rows and c1 tells every row apart, so c0 scores exactly
# 1/5 + 0: below the float 0.2 and equal to the decimal
_ROWS = "".join(f"{a};{i}\n" for i, a in enumerate("aaaab"))
SCORE_ON_THE_THRESHOLD = (
    ";", "NA", f"c0;c1\n{_ROWS}".encode(), f"c0,c1\n{_ROWS.replace(';', ',')}".encode(),
    {"default": "NSA", "rules": [{"match": "c0", "class": "QI"}]}, "all", FORMS[0][0], 0.2, True,
)


@settings(max_examples=150, deadline=None)
@given(select_runs())
@example(SCORE_ON_THE_THRESHOLD)
def test_select_matches_the_reference_from_bytes_to_final_qis(run):
    delimiter, na_token, data, twin, rules, universe, form, threshold, manual = run
    with tempfile.TemporaryDirectory() as tmp:
        table, twin_file, rules_file, form_file = (
            Path(tmp, n) for n in ("t.csv", "twin.csv", "rules.json", "form.json")
        )
        table.write_bytes(data)
        twin_file.write_bytes(twin)
        rules_file.write_text(json.dumps(rules), encoding="utf-8")
        form_file.write_text(json.dumps(form), encoding="utf-8")
        argv = [
            "select", "--format", "json", "--no-timestamp", "--universe", universe,
            "--input", str(table), "--delimiter", delimiter, "--na-token", na_token,
            "--rules", str(rules_file),
            "--assessment", str(form_file), *(["--threshold", repr(threshold)] if manual else []),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        expected = reference.answers(twin_file, rules, universe, Fraction(repr(threshold)))
    report = json.loads(out.getvalue())
    assert report["threshold"] == threshold
    assert reference.mismatches(report, expected) == []
