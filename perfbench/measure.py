"""Child-process timing and resource accounting, and summary statistics.

Each measured program runs under a small launcher (this file run as a
script), which starts it, reaps it with ``os.wait4`` and hands back that
one process's wall time, CPU time and peak RSS. Two Linux details make
both parts necessary:

* ``getrusage(RUSAGE_CHILDREN)`` reports the largest peak of every child
  reaped so far, so an earlier, larger child would leak into later
  readings.
* A child's ``ru_maxrss`` also covers the address space it ran in before
  ``exec``. ``subprocess`` starts children with ``vfork``, which borrows
  the parent's, so a child of the benchmark process itself would report
  at least the benchmark's own peak (set-up holds whole tables). The
  launcher is a fresh interpreter of a few MB, and that is the floor.

Usage as a launcher: python measure.py USAGE_JSON PROGRAM [ARGS...]
The program's stdout and stderr are the launcher's own.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_PR_SET_PDEATHSIG = 1


@dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float  # user + system
    rss_mb: float  # the child's own peak resident set
    returncode: int
    stdout: bytes


def run_child(argv: list[str], env: dict[str, str], stderr_path: Path) -> Child:
    """Run ``argv`` to completion under the launcher, reading its stdout from a pipe."""
    usage_path = stderr_path.with_name(stderr_path.name + ".usage")
    usage_path.unlink(missing_ok=True)
    launcher = [sys.executable, "-I", str(Path(__file__).resolve()), str(usage_path), *argv]
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(launcher, stdout=subprocess.PIPE, stderr=stderr, env=env)
        try:
            out = proc.stdout.read()
            proc.wait()
        except BaseException:
            proc.terminate()  # the launcher kills and reaps the program
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"launcher for {argv[:3]} failed; see {stderr_path}")
    usage = json.loads(usage_path.read_text(encoding="utf-8"))
    return Child(stdout=out, **usage)


def _launch(usage_path: str, argv: list[str]) -> int:
    # end with the benchmark, and turn its SIGTERM into an exception here
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    started = time.perf_counter()
    child = subprocess.Popen(argv)
    try:
        _, status, usage = os.wait4(child.pid, 0)
    except KeyboardInterrupt:
        child.kill()
        os.wait4(child.pid, 0)
        return 1
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    Path(usage_path).write_text(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        "returncode": child.returncode,
    }), encoding="utf-8")
    return 0


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of a timing series."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values)}


if __name__ == "__main__":
    sys.exit(_launch(sys.argv[1], sys.argv[2:]))
