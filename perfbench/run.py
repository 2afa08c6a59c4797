"""Benchmark of ``qi-sentry select``, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload tall|lowcard --seed N \\
        --seconds S --trace 0|1

One run:

1. Sets up the workload from the seed five times (``generate_table`` ->
   ``Table.to_delimited`` -> write, plus ``rules_for_spec``) and checks
   that the files come out byte-identical; ``setup_s`` is the median.
2. Computes the reference answers with ``reference.py`` (pure Python, no
   ``qi_sentry``), cached in ``perfbench/.cache`` under a digest of the
   CSV bytes, the rules, the universe and the threshold.
3. Runs ``python -m qi_sentry.cli select --format json --no-timestamp``
   as a child process, one at a time (a closed loop with one client),
   until ``--seconds`` have passed and at least four have run. Each
   report is parsed and compared field by field with the reference.
   Wall time, CPU and peak RSS come from ``os.wait4`` on that child,
   taken by the small launcher in ``measure.py``.
4. With ``--trace 1``, also times a fresh ``import qi_sentry.cli`` and
   runs ``trace_child.py`` once for the per-layer numbers.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``). The line before it holds the
details: the environment, every sample and, when traced, every span
name's calls, total, self and GC time. Both are also written to
``perfbench/.results``. The program under test is the ``src`` tree next
to this directory; without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import measure
import reference
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CACHE = BENCH / ".cache"
RESULTS = BENCH / ".results"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
MIN_SELECTS = 4
IMPORT_REPEATS = 5


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_selects(work, files, expected: dict, seconds: float) -> list[dict]:
    """Closed loop of ``select`` children; one record per child."""
    argv = [
        sys.executable, "-m", "qi_sentry.cli", "select",
        "--input", str(files.csv), "--rules", str(files.rules),
        "--assessment", str(files.form), "--universe", work.universe,
        "--format", "json", "--no-timestamp",
    ]
    env = child_env()
    runs = []
    started = time.perf_counter()
    while len(runs) < MIN_SELECTS or time.perf_counter() - started < seconds:
        child = measure.run_child(argv, env, files.csv.parent / "select.err")
        if child.returncode != 0:
            problems = [f"exit code {child.returncode}"]
        else:
            try:
                problems = reference.mismatches(json.loads(child.stdout), expected)
            except ValueError as exc:
                problems = [f"report is not JSON: {exc}"]
        runs.append({"wall_s": child.wall_s, "cpu_s": child.cpu_s, "rss_mb": child.rss_mb,
                     "problems": problems})
    return runs


def import_time(directory: Path) -> list[float]:
    argv = [sys.executable, "-c", "import qi_sentry.cli"]
    times = []
    for _ in range(IMPORT_REPEATS):
        child = measure.run_child(argv, child_env(), directory / "import.err")
        if child.returncode != 0:
            raise RuntimeError("import qi_sentry.cli failed")
        times.append(child.wall_s)
    return times


def run_trace(work, files) -> dict:
    out = files.csv.parent / "trace.json"
    argv = [sys.executable, str(BENCH / "trace_child.py"), str(files.csv), str(files.rules),
            str(files.form), work.universe, str(out)]
    child = measure.run_child(argv, child_env(), files.csv.parent / "trace.err")
    if child.returncode != 0:
        raise RuntimeError(f"traced run failed with exit code {child.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def layer_metrics(trace: dict, setup: dict, import_s: float,
                  select_s: float) -> tuple[dict, dict]:
    """Per-layer metric values, and the per-span-name table they come from."""
    table = tracing.by_name(trace["spans"])
    counts = {s["name"]: s["counts"] for s in trace["spans"]}

    def total(*names):
        if not all(n in table for n in names):
            return None
        return sum(table[n]["total_s"] for n in names)

    values = {
        "table.ingest_s": total("table.ingest_delimited"),
        "classifier.classify_s": total("classifier.classify"),
        "metrics.factorize_s": total("metrics.factorize"),
        "metrics.group_full_s": total("metrics.group_full"),
        "metrics.group_loo_s": total("metrics.group_loo"),
        "metrics.uniqueness_s": total("metrics.uniqueness"),
        "metrics.score_s": total("metrics.score_columns"),
        "metrics.score_threaded_s": total("metrics.score_columns_threaded"),
        "assessment.grade_s": total("assessment.load_form", "assessment.grade_requestor"),
        "selection.report_s": total("selection.build_report", "selection.report_to_json"),
        "generate.table_s": setup["generate.table_s"],
        "generate.write_s": setup["generate.write_s"],
        "cli.import_s": import_s,
        "py.teardown_s": total("py.teardown"),
        "py.gc_s": sum(r["gc_s"] for r in table.values()) + trace["gc_outside"]["gc_s"],
        "py.gc_collections": sum(r["gc_collections"] for r in table.values())
        + trace["gc_outside"]["gc_collections"],
    }
    ingest = counts.get("table.ingest_delimited")
    if ingest is not None:
        cells = ingest["rows"] * ingest["columns"]
        values["table.ingest_ns_per_cell"] = values["table.ingest_s"] / cells * 1e9
        values["table.ingest_rss_mb"] = ingest["rss_growth_mb"]
    if "metrics.score_columns" in counts:
        values["metrics.scored_columns"] = counts["metrics.score_columns"]["scored_columns"]
    if "metrics.group_loo" in table and ingest is not None:
        loo = table["metrics.group_loo"]
        col_rows = loo["calls"] * counts["metrics.group_loo"]["columns"] * ingest["rows"]
        values["metrics.loo_ns_per_col_row"] = loo["total_s"] / col_rows * 1e9
        values["metrics.groupings"] = 1 + loo["calls"]
        values["metrics.n_classes"] = trace["n_classes"]
        values["metrics.saturation"] = trace["n_classes"] / ingest["rows"]
    if "select" in table and "py.teardown" in table:
        # Beyond these two spans a select child only starts the
        # interpreter and imports, which cli.import_s measures; what is
        # left is what the tracing itself costs.
        traced = table["select"]["total_s"] + table["py.teardown"]["total_s"]
        values["trace.overhead_s"] = traced + import_s - select_s
    return {k: v for k, v in values.items() if v is not None}, table


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="tall or lowcard")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "qi_sentry" / "__init__.py").is_file():
        print(f"error: no qi_sentry sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import qi_sentry

    if Path(qi_sentry.__file__).resolve().parent != SRC / "qi_sentry":
        print(f"error: qi_sentry imported from {qi_sentry.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = workloads.workload(args.workload, args.seed)
    directory = WORK / args.workload
    problems: list[str] = []

    setups, digests = [], []
    for _ in range(SETUP_REPEATS):
        files, times = workloads.setup(work, directory)
        setups.append(times)
        digests.append(sha256(files.csv))
    if len(set(digests)) != 1:
        problems.append("set-up wrote different bytes for the same seed")
    setup = {k: statistics.median(t[k] for t in setups) for k in setups[0]}

    rules = json.loads(files.rules.read_text(encoding="utf-8"))
    # keyed by every input of the answers, so files from a changed
    # generator never meet answers computed for older ones
    inputs = json.dumps([digests[-1], rules, work.universe, work.threshold], sort_keys=True)
    key = hashlib.sha256(inputs.encode()).hexdigest()[:32]
    expected = reference.cached_answers(
        CACHE / f"{work.name}-{key}.json", files.csv, rules, work.universe, work.threshold
    )
    if not 0 < len(expected["final_qis"]) < len(expected["scores"]):
        problems.append("reference selects none or all of the scored columns")

    runs = run_selects(work, files, expected, args.seconds)
    failed = sum(1 for r in runs if r["problems"])
    attempted = len(runs)
    for r in runs:
        problems.extend(r["problems"])
    select_s = statistics.median(r["wall_s"] for r in runs)

    detail = {
        "workload": work.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "rows": expected["rows"],
            "columns": expected["columns"],
            "csv_bytes": files.csv.stat().st_size,
        },
        "setup": {k: measure.summary([t[k] for t in setups]) for k in setups[0]},
        "select_s": measure.summary([r["wall_s"] for r in runs]),
        "select_cpu_s": measure.summary([r["cpu_s"] for r in runs]),
        "peak_rss_mb": measure.summary([r["rss_mb"] for r in runs]),
        "samples": runs,
        "final_qis": expected["final_qis"],
        "reference_min_margin": expected["min_margin"],
    }

    if args.trace:
        imports = import_time(directory)
        import_s = statistics.median(imports)
        trace = run_trace(work, files)
        attempted += 1
        trace_problems = list(trace["problems"])
        if "report" in trace:  # there is none when a select-path function is absent
            trace_problems += reference.mismatches(trace["report"], expected)
        failed += bool(trace_problems)
        problems.extend(trace_problems)
        values, spans = layer_metrics(trace, setup, import_s, select_s)
        listed = "per_layer"
        detail.update(cli_import_s=measure.summary(imports), spans=spans,
                      absent=trace["absent"])
    else:
        values = {
            "select_s": select_s,
            "select_cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
            "setup_s": setup["setup_s"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        listed = "end_to_end"
    # names and units come from BENCHMARK.json; a layer the traced run
    # found absent has no value and is left out
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in json.loads(SPEC.read_text(encoding="utf-8"))[listed]
               if m["name"] in values}

    detail["problems"] = problems
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{work.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1), encoding="utf-8"
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
