"""The process entry, ``cli.run``: ``python -m qi_sentry.cli`` and the ``qi-sentry`` script.

``run`` ends the process with ``os._exit`` once ``main`` returns and the
output is flushed, so each check runs a fresh interpreter and reads what
reached its files and pipes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qi_sentry.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

CSV = "Weight,Age,Gender,Zipcode\n72,45,M,75145\n72,45,M,75145\n58,21,M,47853\n45,21,F,47853\n"
RULES = {"default": "QI", "rules": []}
FORM = {
    "linkage": "High",
    "intent": [True, True, True],
    "external_linkage": True,
    "protection": [False] * 6,
    "knowledge": [True, True, True],
    "tenure_years": 10,
}


def entry(argv: list[str], stdout=subprocess.PIPE, buffered: bool = False,
          stdin: str | None = None):
    """``python -m qi_sentry.cli argv`` with ``src`` on its path: code, stdout and stderr.

    ``buffered`` unsets ``PYTHONUNBUFFERED``, so stdout is written only when flushed.
    ``stdin``, if given, is written to a pipe that is the command's stdin.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "qi_sentry.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, input=stdin,
    )
    return done.returncode, done.stdout, done.stderr


def in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def select_argv(tmp_path) -> list[str]:
    (tmp_path / "t.csv").write_text(CSV)
    (tmp_path / "rules.json").write_text(json.dumps(RULES))
    (tmp_path / "form.json").write_text(json.dumps(FORM))
    return [
        "select", "--input", str(tmp_path / "t.csv"), "--rules", str(tmp_path / "rules.json"),
        "--assessment", str(tmp_path / "form.json"), "--no-timestamp",
    ]


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_select_exits_0_with_the_stdout_of_in_process_main(select_argv, fmt, buffered):
    argv = [*select_argv, "--format", fmt]
    expected = in_process(argv)
    assert expected[0] == 0 and expected[1]
    assert entry(argv, buffered=buffered) == expected


def test_select_reads_a_pipe_of_several_blocks_as_its_file(select_argv):
    # a pipe has no size to estimate the rows from, so the codes grow as they are read
    rng = random.Random(5)
    rows = [f"{rng.randint(40, 99)},{rng.randint(18, 80)},{rng.choice('MF')},"
            f"{rng.randint(47000, 47030)}\n" for _ in range(90_000)]
    text = CSV.partition("\n")[0] + "\n" + "".join(rows)
    assert len(text) > 1 << 20  # more than one block of ingest
    argv = [*select_argv, "--format", "json"]
    Path(argv[argv.index("--input") + 1]).write_text(text)
    code, from_file, err = entry(argv)
    assert (code, err) == (0, "")
    argv[argv.index("--input") + 1] = "/dev/stdin"
    from_pipe = from_file.replace('"table": "t"', '"table": "stdin"', 1)
    assert from_pipe != from_file
    assert entry(argv, stdin=text) == (0, from_pipe, "")


@pytest.mark.parametrize("buffered", [False, True])
def test_a_missing_input_exits_2_with_one_stderr_line(select_argv, tmp_path, buffered):
    argv = [*select_argv]
    argv[argv.index("--input") + 1] = str(tmp_path / "missing.csv")
    code, out, err = entry(argv, buffered=buffered)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read input file ")
    assert err.count("\n") == 1
    assert (code, out, err) == in_process(argv)


def test_usage_errors_keep_argparse_code_and_lines():
    code, out, err = entry(["select"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and "error: the following arguments are required" in err
    assert entry(["--help"])[0] == 0


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [False, True])
def test_stdout_on_a_full_device_is_one_error_line_and_exit_2(select_argv, buffered):
    # unbuffered, the write in main fails; buffered, the flush in run does
    with open("/dev/full", "w") as full:
        code, _, err = entry([*select_argv, "--format", "json"], stdout=full, buffered=buffered)
    assert code == 2
    assert err.startswith("error: ") and "No space left on device" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("buffered", [False, True])
def test_generated_files_read_back_complete(tmp_path, buffered):
    spec = {
        "rows": 40_000,
        "seed": 3,
        "columns": [
            {"name": f"c{j}", "distinct_values": 50 + j, "class_hint": "QI"} for j in range(6)
        ],
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    argv = ["generate", "--spec", str(tmp_path / "spec.json")]
    paths = {}
    for how, cli in (("entry", lambda a: entry(a, buffered=buffered)), ("main", in_process)):
        paths[how] = tmp_path / f"{how}.csv", tmp_path / f"{how}-rules.json"
        files = ["--output", str(paths[how][0]), "--rules-out", str(paths[how][1])]
        assert cli([*argv, *files]) == (0, "", "")
    table, rules = (path.read_bytes() for path in paths["entry"])
    assert (table, rules) == tuple(path.read_bytes() for path in paths["main"])
    assert table.count(b"\n") == 40_001 and len(table) > 1 << 19  # past any write buffer
    assert json.loads(rules)


def test_the_console_script_names_cli_run():
    # Python 3.10 has no tomllib, so the table is read with a regex
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert scripts, "pyproject.toml has no [project.scripts] table"
    entries = dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]+)"', scripts.group(1), re.M))
    assert entries == {"qi-sentry": "qi_sentry.cli:run"}
    module, _, name = entries["qi-sentry"].partition(":")
    target = getattr(importlib.import_module(module), name)
    assert callable(target)
