"""Command-line front end: ingest -> classify -> score -> assess -> select.

Each pipeline stage is its own subcommand so stages can be run (and
tested) independently; ``select`` chains them all. A subcommand builds
its result three ways, as a JSON document, as TSV header and rows and
as text lines, and :func:`_emit` writes the one ``--format`` names. This
module is the only one that renders: the library returns scores and
reports. Exit codes: 0 on success, 1 when the oracle harness finds a
divergence, 2 on any input or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import stat
import sys
from decimal import Decimal
from pathlib import Path
from typing import Sequence

# numpy's bundled OpenBLAS starts a worker thread per extra core as it
# loads, and the thread spins for a while before it sleeps. qi-sentry makes
# no BLAS call, so this process asks for none, unless the user chose a count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import assessment, classifier, metrics, selection  # noqa: E402
from .errors import IngestError, QiSentryError  # noqa: E402
from .table import IngestOptions, Table, ingest_delimited  # noqa: E402

RULES_ENV_VAR = "QI_SENTRY_RULES"


def _load_table(args) -> Table:
    path = Path(args.input)
    options = IngestOptions(
        delimiter=args.delimiter,
        # each undecodable byte of the file name reaches Python as a lone surrogate,
        # which no UTF-8 report holds: the name shows U+FFFD there
        table_name=re.sub("[\ud800-\udfff]", "\ufffd", path.stem),
        na_token=args.na_token,
    )
    try:
        with open(path, "rb") as handle:
            return ingest_delimited(handle, options)
    except OSError as exc:
        raise IngestError(f"cannot read input file {path}: {exc}") from None


def _write(path: str, text: str, noun: str) -> None:
    """Write ``text`` to the file at ``path`` in UTF-8; an OSError names the file as ``noun``.

    If anything fails once the file is open, and so truncated, the file is removed.
    """
    opened = False
    try:
        with Path(path).open("w", encoding="utf-8") as handle:
            opened = True
            handle.write(text)
    except BaseException as exc:
        if opened:
            _discard(path)
        if isinstance(exc, OSError):
            raise QiSentryError(f"cannot write {noun} {path}: {exc}") from None
        raise


def _discard(path: str) -> None:
    """Remove the file at ``path`` if it is a regular one, not a device, pipe or link."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)


def _load_rules(args) -> classifier.ClassificationRules:
    path = args.rules or os.environ.get(RULES_ENV_VAR)
    if path:
        return classifier.load_rules(path)
    return classifier.default_rules()


def _threshold(text: str | None) -> float | None:
    """The ``--threshold`` text as a float, once the decimal it writes is checked to lie in [0, 2].

    The float of a decimal just outside the range can round onto an end
    of it, so the check reads the decimal itself, as a ``Decimal``: a
    ``Fraction`` would expand an exponent such as ``1e-999999999``.
    Text that is no number is outside the range too.
    """
    if text is None:
        return None
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and 0 <= Decimal(text) <= 2):
        raise ValueError(f"threshold must be in [0, 2], got {text}")
    return value


def _num(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _aligned(rows: list[Sequence[str] | None]) -> list[str]:
    """Left-aligned columns two spaces apart; a ``None`` row is the dash rule."""
    widths = [max(map(len, column)) for column in zip(*filter(None, rows))]
    return [
        "  ".join("-" * w for w in widths) if row is None
        else "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _emit(fmt: str, doc: object, header: list[str], rows: list[list[str]], text: list[str]) -> None:
    """Write one rendering: ``doc`` as JSON, header and rows as TSV, or the text lines.

    The header and rows hold every name and value that the text shows.
    Neither TSV nor text quotes, so a field that would split its row there
    (a tab or line break in TSV, a line break in text) is refused.
    """
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return
    tsv = fmt == "tsv"
    breaks = {"\t", "\r", "\n"} if tsv else {"\r", "\n"}
    if bad := [f for row in [header, *rows] for f in row if not breaks.isdisjoint(f)]:
        what = "TSV: it holds a tab or line break" if tsv else "text: it holds a line break"
        raise QiSentryError(f"cannot write {bad[0]!r} as {what}")
    lines = ["\t".join(row) for row in [header, *rows]] if tsv else text
    sys.stdout.write("".join(line + "\n" for line in lines))


def cmd_classify(args) -> int:
    table = _load_table(args)
    classified = classifier.classify(table, _load_rules(args))
    census = classifier.classification_census(classified)
    classes = [(name, cls.value) for name, cls in classified.classes.items()]
    doc = {"table": table.name, "classes": dict(classes), "census": census}
    text = _aligned(classes) + [
        f"census: DID={census['did']} QI={census['qi']} SA={census['sa']} NSA={census['nsa']}"
    ]
    _emit(args.format, doc, ["table", "column", "class"],
          [[table.name, *pair] for pair in classes], text)
    return 0


def cmd_score(args) -> int:
    table = _load_table(args)
    classified = classifier.classify(table, _load_rules(args))
    scores = metrics.score_columns(classified, metrics.UniversePolicy(args.universe))
    doc = [
        {"table": table.name, "column": s.column, "uniqueness": round(s.uniqueness, 4),
         "influence": round(s.influence, 4), "sum": round(s.sum, 4)}
        for s in scores
    ]
    rows = [[table.name, s.column, _num(s.uniqueness), _num(s.influence), _num(s.sum)]
            for s in scores]
    width = max([len("column"), *(len(s.column) for s in scores)])
    text = [f"{'column'.ljust(width)}  uniqueness  influence  sum"] + [
        f"{column.ljust(width)}  {u:>10}  {i:>9}  {total}" for _, column, u, i, total in rows
    ]
    _emit(args.format, doc, ["table", "column", "uniqueness", "influence", "sum"], rows, text)
    return 0


def cmd_assess(args) -> int:
    score = assessment.grade_requestor(assessment.load_form(args.assessment))
    points = {
        "linkage_points": score.linkage_points,
        "reid_ability_points": score.reid_ability_points,
        "understanding_points": score.understanding_points,
    }
    doc = {**points, "average": round(score.average, 2), "grade": score.grade.value}
    row = [*map(str, points.values()), f"{score.average:.2f}", score.grade.value]
    text = [
        f"linkage points:       {score.linkage_points}",
        f"reid ability points:  {score.reid_ability_points}",
        f"understanding points: {score.understanding_points}",
        f"average: {score.average:.2f} ({score.grade.value})",
    ]
    _emit(args.format, doc, ["linkage", "reid_ability", "understanding", "average", "grade"],
          [row], text)
    return 0


def cmd_select(args) -> int:
    table = _load_table(args)
    rules = _load_rules(args)
    form = assessment.load_form(args.assessment)
    classified = classifier.classify(table, rules)
    scores = metrics.score_columns(classified, metrics.UniversePolicy(args.universe))
    requestor = assessment.grade_requestor(form)
    report = selection.build_report(
        classified,
        scores,
        requestor,
        threshold_override=_threshold(args.threshold),
        timestamp=not args.no_timestamp,
    )
    entries = [
        [e.column, e.column_class.value, _num(e.uniqueness), _num(e.influence), _num(e.sum),
         _yes(e.secondary), _yes(e.selected), e.note]
        for e in report.entries
    ]
    threshold = report.threshold
    override = ""
    if threshold.overridden:
        override = f" (manual override; grade-derived {_num(threshold.grade_value)})"
    text = [
        f"table: {report.table_name}",
        f"requestor grade: {report.grade}",
        f"threshold: {_num(threshold.value)}{override}",
        *([] if report.generated_at is None else [f"generated at: {report.generated_at}"]),
        "",
        *_aligned([
            ["column", "class", "uniqueness", "influence", "sum", "selected", "note"],
            None,
            *(row[:5] + row[6:] for row in entries),  # all but secondary
        ]),
        "",
        "final QIs: " + (", ".join(sorted(report.final_qis)) or "(none)"),
    ]
    _emit(
        args.format,
        selection.report_to_dict(report),
        ["table", "column", "class", "uniqueness", "influence", "sum", "secondary", "selected",
         "note"],
        [[report.table_name, *row] for row in entries],
        text,
    )
    return 0


def cmd_generate(args) -> int:
    from . import generate

    options = IngestOptions(delimiter=args.delimiter, na_token=args.na_token)
    spec = generate.load_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    text = generate.generate_table(spec).to_delimited(options)
    if args.rules_out:  # first, so a rules file that cannot be written leaves no table
        doc = classifier.rules_to_doc(generate.rules_for_spec(spec))
        _write(args.rules_out, json.dumps(doc, indent=2) + "\n", "rules file")
    if not args.output:
        sys.stdout.write(text)
        return 0
    try:
        _write(args.output, text, "table file")
    except BaseException:
        if args.rules_out:  # both files or neither, whatever failed
            _discard(args.rules_out)
        raise
    return 0


def cmd_oracle(args) -> int:
    from . import oracle

    table = _load_table(args)
    divergence = oracle.first_divergence(table)
    if divergence is not None:
        print(str(divergence), file=sys.stderr)
        return 1
    print(f"ok: engine and oracle agree on {table.name!r} "
          f"({table.row_count} rows, {len(table.columns)} columns)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qi-sentry",
        description="Quasi-identifier selection for tabular datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, rules=False):
        p.add_argument("--input", required=True, help="delimited input file")
        if rules:
            p.add_argument(
                "--rules",
                help=f"classification rules JSON (default: ${RULES_ENV_VAR} or the shipped rules)",
            )
        p.add_argument("--delimiter", default=",", help="field delimiter (default ,)")
        p.add_argument("--na-token", default="NA", help='missing-value sentinel (default "NA")')

    def add_format(p):
        p.add_argument("--format", choices=["json", "tsv", "text"], default="text")

    def add_universe(p):
        p.add_argument("--universe", choices=["all", "qi"], default="all",
                       help="columns forming the universe for influence (default all)")

    p = sub.add_parser("classify", help="assign DID/QI/SA/NSA per column and print the census")
    add_io(p, rules=True)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("score", help="uniqueness, influence, and sum per primary QI")
    add_io(p, rules=True)
    add_format(p)
    add_universe(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("assess", help="grade a requestor from an assessment form")
    p.add_argument("--assessment", required=True, help="assessment form JSON")
    add_format(p)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("select", help="run the full pipeline and emit the selection report")
    add_io(p, rules=True)
    p.add_argument("--assessment", required=True, help="assessment form JSON")
    add_format(p)
    add_universe(p)
    p.add_argument("--threshold",
                   help="manual threshold override in [0, 2]; the report records both")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit generated_at (for byte-identical reports)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("generate", help="emit a synthetic table from a spec file")
    p.add_argument("--spec", required=True, help="synthetic table spec JSON")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument("--output", help="write table here instead of stdout")
    p.add_argument("--rules-out", help="also write a rules file from the spec's class hints")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--na-token", default="NA")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("oracle", help="cross-check the grouping engine against the O(n^2) oracle")
    add_io(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QiSentryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a spec whose columns cannot be drawn in memory
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


def run() -> None:
    """The process entry: :func:`main`, then stdout and stderr flushed, then ``os._exit``.

    The process ends without interpreter finalization, which frees every
    module's objects for nothing once the output is written. Every file
    the subcommands write is closed before :func:`main` returns. A flush
    that fails is one error line and exit 2.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = 2
        with contextlib.suppress(OSError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
    try:
        sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
