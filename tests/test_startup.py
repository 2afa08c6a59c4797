"""What a process starts when it imports qi_sentry or its CLI.

Each check runs in a fresh interpreter, so nothing this test process has
already imported (or set in its environment) can hide a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = [
    "table", "metrics", "classifier", "assessment", "selection", "generate", "oracle", "errors",
    "cli",
]


def child(code: str, **env_vars: str) -> list[str]:
    """The stdout lines of ``python -c code`` with ``src`` on its path and no OpenBLAS setting."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_import_starts_no_thread_and_defaults_openblas_to_one():
    out = child(
        "import os, qi_sentry.cli\n"
        "print(len(os.listdir('/proc/self/task')))\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])"
    )
    assert out == ["1", "1"]


def test_cli_import_keeps_a_thread_count_the_user_set():
    out = child(
        "import os, qi_sentry.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
        OPENBLAS_NUM_THREADS="2",
    )
    assert out == ["2"]


def test_package_import_loads_no_numpy_no_submodule_and_sets_nothing():
    out = child(
        "import os, sys, qi_sentry\n"
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'qi_sentry'))))\n"
        "qi_sentry.Table\n"
        "print('OPENBLAS_NUM_THREADS' in os.environ)"
    )
    assert out == ["['qi_sentry']", "False"]


def test_oracle_import_loads_no_engine_module():
    # the oracle is the reference the engine is checked against, so it
    # must not share the engine's grouping or classification code
    out = child(
        "import sys, qi_sentry.oracle\n"
        "print(sorted(m for m in sys.modules if m in ('qi_sentry.metrics', 'qi_sentry.classifier')))"
    )
    assert out == ["[]"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_is_an_attribute_of_a_fresh_package(name):
    out = child(f"import sys, qi_sentry\nprint(qi_sentry.{name} is sys.modules['qi_sentry.{name}'])")
    assert out == ["True"]


def test_every_exported_name_is_the_object_its_module_defines():
    out = child(
        "import importlib, qi_sentry\n"
        "for name in qi_sentry.__all__:\n"
        "    module = importlib.import_module('qi_sentry.' + qi_sentry._MODULE_OF[name])\n"
        "    if getattr(qi_sentry, name) is not getattr(module, name):\n"
        "        print(name)\n"
        "print(len(qi_sentry.__all__), set(qi_sentry.__all__) <= set(dir(qi_sentry)))"
    )
    assert out == ["46 True"]


def test_star_import_binds_every_exported_name():
    out = child(
        "import qi_sentry\n"
        "scope = {}\n"
        "exec('from qi_sentry import *', scope)\n"
        "print(sorted(n for n in qi_sentry.__all__ if scope.get(n) is not getattr(qi_sentry, n)))"
    )
    assert out == ["[]"]


def test_unknown_name_raises_attribute_error_naming_it():
    out = child(
        "import qi_sentry\n"
        "try:\n"
        "    qi_sentry.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    )
    assert out == ["module 'qi_sentry' has no attribute 'no_such_name'"]
