"""Independent reference answers for a workload's ``select`` report.

Pure Python over the CSV on disk: the ``csv`` module, dicts, ``Counter``
and ``len(set(zip(...)))``. Nothing here imports ``qi_sentry``, so a bug
in the library's ingest, grouping or selection cannot hide in its own
reference. Selection uses exact ``Fraction`` arithmetic.

The leave-one-out counts N(U - c) come from row ids of column prefixes
and suffixes: two rows agree on every column but c exactly when they
agree on the columns before c and on the columns after it. That is O(k)
passes over the rows instead of k passes over k - 1 columns each, which
keeps the reference affordable on 30 columns.
"""

from __future__ import annotations

import csv
import gc
import json
from collections import Counter
from fractions import Fraction
from itertools import count, islice, repeat
from operator import add, mul
from pathlib import Path

_ASCII_WS = " \t\r\n\x0b\x0c"
NA_TOKEN = "NA"
# Reported scores are rounded to 4 decimals; either rounding of a value
# that sits on a rounding boundary is accepted.
TOLERANCE = 0.5e-4 + 1e-9


def _canonical(raw: str) -> str | None:
    value = raw.strip(_ASCII_WS)
    return None if value in ("", NA_TOKEN) else value


def read_columns(path: Path) -> tuple[list[str], list[list[int]]]:
    """Header and columns of a delimited file, each cell as an integer code.

    Two cells share a code exactly when their trimmed values are equal,
    with empty cells and the NA token as one shared missing value. A
    code is the row index of the value's first occurrence, so codes of
    an n-row table are below n.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        records = csv.reader(handle)
        header = [h.strip(_ASCII_WS) for h in next(records)]
        seen: list[dict[str, int]] = [{} for _ in header]
        codes: list[list[int]] = [[] for _ in header]
        rows = 0
        while chunk := list(islice(records, 1 << 16)):
            if set(map(len, chunk)) != {len(header)}:
                raise ValueError(f"{path}: ragged rows")
            for col, first, cells in zip(codes, seen, zip(*chunk)):
                col.extend(map(first.setdefault, cells, count(rows)))
            rows += len(chunk)
    return header, [_canonical_codes(c, s) for c, s in zip(codes, seen)]


def _canonical_codes(codes: list[int], seen: dict[str, int]) -> list[int]:
    """Merge the codes of raw values that trim to the same canonical value."""
    first: dict[str | None, int] = {}
    merged = {}
    for value, code in seen.items():
        kept = first.setdefault(_canonical(value), code)
        if kept != code:
            merged[code] = kept
    return [merged.get(c, c) for c in codes] if merged else codes


def _refine(ids: list[int], codes: list[int]) -> list[int]:
    """Row ids of (id, code) pairs: equal exactly when both parts are equal.

    Ids and codes are both below the row count n, so id * n + code names
    the pair; the new id is again a row index.
    """
    rows = len(ids)
    seen: dict[int, int] = {}
    return list(map(seen.setdefault, map(add, map(mul, ids, repeat(rows)), codes), count()))


def class_counts(
    columns: list[list[int]], universe: list[int], dropped: list[int]
) -> tuple[int, dict[int, int]]:
    """N(U) and N(U - {c}) for each position c in ``dropped``, a subset of U.

    N of the empty set is 1. The universe columns that are never dropped
    are folded into one base id first; the dropped ones then get prefix
    and suffix ids.
    """
    rows = len(columns[0])
    base = [0] * rows
    for position in universe:
        if position not in dropped:
            base = _refine(base, columns[position])
    suffixes = [[0] * rows]  # suffixes[j]: ids over the last j dropped columns
    for position in reversed(dropped):
        suffixes.append(_refine(suffixes[-1], columns[position]))
    suffixes.reverse()  # now suffixes[i]: ids over dropped[i:]
    prefix = base  # ids over the base and dropped[:i]
    without = {}
    for i, position in enumerate(dropped):
        without[position] = len(set(zip(prefix, suffixes[i + 1])))
        prefix = _refine(prefix, columns[position])
    return len(set(prefix)), without


def answers(csv_path: Path, rules: dict, universe: str, threshold: float) -> dict:
    """Expected classes, per-column scores and final QIs of one ``select`` run.

    ``rules`` is the rules document as written: exact-name patterns, the
    only kind the workloads use.
    """
    # millions of acyclic objects: collections would only rescan them
    gc.disable()
    try:
        header, columns = read_columns(csv_path)
        rows = len(columns[0])
        by_name = {r["match"].lower(): r["class"] for r in rules["rules"]}
        classes = {name: by_name.get(name.lower(), rules["default"]) for name in header}
        scored = [i for i, name in enumerate(header) if classes[name] == "QI"]
        universe_pos = scored if universe == "qi" else list(range(len(header)))
        full, without = class_counts(columns, universe_pos, scored)
        singles = {
            i: sum(1 for n in Counter(columns[i]).values() if n == 1) for i in scored
        }
    finally:
        gc.enable()

    cut = Fraction(threshold)
    scores = {}
    final = []
    for i in scored:
        exact = Fraction(singles[i], rows) + 1 - Fraction(without[i], full)
        scores[header[i]] = {
            "uniqueness": singles[i] / rows,
            "influence": 1 - without[i] / full,
            "sum": float(exact),
        }
        if exact > 0 and exact >= cut:
            final.append(header[i])
    return {
        "rows": rows,
        "columns": len(header),
        "n_classes": full,
        "classes": classes,
        "scores": scores,
        "final_qis": sorted(final),
        "min_margin": min(abs(s["sum"] - threshold) for s in scores.values()),
    }


def cached_answers(cache: Path, csv_path: Path, rules: dict, universe: str,
                   threshold: float) -> dict:
    """``answers``, read from ``cache`` when present, else computed and stored."""
    if cache.exists():
        return json.loads(cache.read_text(encoding="utf-8"))
    result = answers(csv_path, rules, universe, threshold)
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(".tmp")  # a run killed mid-write leaves no partial cache
    tmp.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(cache)
    return result


def mismatches(report: dict, expected: dict) -> list[str]:
    """Differences between a parsed JSON report and the reference, by field.

    Fields the reference does not know (a later provenance block, say)
    are ignored.
    """
    problems = []
    if sorted(report.get("final_qis", ())) != expected["final_qis"]:
        problems.append(f"final_qis {report.get('final_qis')} != {expected['final_qis']}")
    entries = {e.get("column"): e for e in report.get("entries", ())}
    if set(entries) != set(expected["classes"]):
        problems.append(f"columns {sorted(entries)} != {sorted(expected['classes'])}")
        return problems
    for name, cls in expected["classes"].items():
        entry = entries[name]
        if entry.get("class") != cls:
            problems.append(f"{name}: class {entry.get('class')} != {cls}")
        want = expected["scores"].get(name)
        if want is None:
            continue
        for field in ("uniqueness", "influence", "sum"):
            got = entry.get(field)
            if not isinstance(got, (int, float)) or abs(got - want[field]) > TOLERANCE:
                problems.append(f"{name}: {field} {got} != {want[field]:.6f}")
    return problems
