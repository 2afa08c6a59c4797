"""Traced in-process ``select``, run in a fresh interpreter.

Usage: python trace_child.py CSV RULES FORM UNIVERSE OUT_JSON

Replays what ``qi-sentry select --format json --no-timestamp`` does, with
a span around each call into a layer (module) of ``qi_sentry``, all under
one ``select`` span. Then, outside that span, it decomposes scoring into
factorization, the full grouping, the leave-one-out groupings and
uniqueness, scores once more on a thread pool, and last times freeing
the table, which a select child does when it exits. Spans are kept in
memory and written to OUT_JSON at the end, with the rendered report for
the answer check.

Only public functions of the layer modules are called, and each is
looked up by name: one that a later version no longer has is reported as
absent, and the phases that need it are skipped.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
from pathlib import Path

from tracing import Tracer


class Absent(Exception):
    pass


def api(layer: str, name: str):
    try:
        module = importlib.import_module(f"qi_sentry.{layer}")
    except ModuleNotFoundError:
        raise Absent(f"{layer}.{name}") from None
    found = getattr(module, name, None)
    if found is None:
        raise Absent(f"{layer}.{name}")
    return found


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_select(tr: Tracer, csv_path: str, rules_path: str, form_path: str,
                  universe: str) -> dict:
    """The CLI's select pipeline, one span per layer call."""
    ingest, options = api("table", "ingest_delimited"), api("table", "IngestOptions")
    load_rules, classify = api("classifier", "load_rules"), api("classifier", "classify")
    load_form = api("assessment", "load_form")
    grade_requestor = api("assessment", "grade_requestor")
    score_columns, policy = api("metrics", "score_columns"), api("metrics", "UniversePolicy")
    build_report, to_json = api("selection", "build_report"), api("selection", "report_to_json")

    with tr.span("select"):
        rss_before = peak_rss_mb()
        with tr.span("table.ingest_delimited") as span, open(csv_path, "rb") as handle:
            table = ingest(handle, options(table_name=Path(csv_path).stem))
        span["counts"].update(rows=table.row_count, columns=len(table.columns),
                              rss_growth_mb=peak_rss_mb() - rss_before)
        with tr.span("classifier.load_rules"):
            rules = load_rules(rules_path)
        with tr.span("assessment.load_form"):
            form = load_form(form_path)
        with tr.span("classifier.classify"):
            classified = classify(table, rules)
        with tr.span("metrics.score_columns") as span:
            scores = score_columns(classified, policy(universe))
        span["counts"]["scored_columns"] = len(scores)
        with tr.span("assessment.grade_requestor"):
            requestor = grade_requestor(form)
        with tr.span("selection.build_report"):
            report = build_report(classified, scores, requestor, timestamp=False)
        with tr.span("selection.report_to_json"):
            text = to_json(report)
    return {"table": table, "rules": rules, "classified": classified, "scores": scores,
            "policy": policy(universe), "report": json.loads(text)}


def traced_parts(tr: Tracer, state: dict, problems: list[str]) -> None:
    """Scoring split into its parts, checked against the whole."""
    engine_cls, uniqueness = api("metrics", "GroupingEngine"), api("metrics", "uniqueness")
    table, classified = state["table"], state["classified"]
    scored = [m.name for m in table.columns if m.name in classified.primary_qis]
    universe = set(scored) if state["policy"].value == "qi" else set(table.column_names)

    with tr.span("metrics.parts"):
        engine = engine_cls(table)
        with tr.span("metrics.factorize", columns=len(universe)):
            engine.prime(universe)
        with tr.span("metrics.group_full", columns=len(universe)) as span:
            full = engine.class_count(universe)
        span["counts"]["classes"] = full
        influence = {}
        for name in scored:
            with tr.span("metrics.group_loo", columns=len(universe) - 1):
                influence[name] = 1 - engine.class_count(universe - {name}) / full
        unique = {}
        for name in scored:
            with tr.span("metrics.uniqueness"):
                unique[name] = uniqueness(table, name)
    state["n_classes"] = full
    for s in state["scores"]:
        if (s.uniqueness, s.influence) != (unique[s.column], influence[s.column]):
            problems.append(f"parts disagree with score_columns on {s.column}")


def traced_threaded(tr: Tracer, state: dict, problems: list[str]) -> None:
    score_columns = api("metrics", "score_columns")
    workers = os.cpu_count() or 1
    with tr.span("metrics.score_columns_threaded", workers=workers):
        threaded = score_columns(state["classified"], state["policy"], max_workers=workers)
    if threaded != state["scores"]:
        problems.append("threaded scores differ from serial scores")


def main(argv: list[str]) -> int:
    csv_path, rules_path, form_path, universe, out_path = argv
    problems: list[str] = []
    absent: list[str] = []
    result: dict = {}
    with Tracer() as tr:
        try:
            state = traced_select(tr, csv_path, rules_path, form_path, universe)
            result["report"] = state["report"]
            # a second call shows classify's own cost without the GC pause
            # that the first one may inherit from ingest's allocations
            classify = api("classifier", "classify")
            with tr.span("classifier.classify_again"):
                classify(state["table"], state["rules"])
            for phase in (traced_parts, traced_threaded):
                try:
                    phase(tr, state, problems)
                except Absent as exc:
                    absent.append(str(exc))
            result["n_classes"] = state.get("n_classes")
            # what a select child spends freeing the table when it exits
            with tr.span("py.teardown"):
                state.clear()
        except Absent as exc:
            absent.append(str(exc))
    result.update(spans=tr.spans, gc_outside=tr.gc_outside, problems=problems, absent=absent)
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
