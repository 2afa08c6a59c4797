"""The sources parse as the oldest Python that ``pyproject.toml`` allows.

The tests run on one newer interpreter, so syntax added after the floor
(``except*``, PEP 695 type parameters, say) would otherwise pass them.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(
    int(part) for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$',
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
        re.MULTILINE,
    ).groups()
)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "qi_sentry").glob("*.py")), ids=lambda path: path.name
)
def test_source_parses_as_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
