"""Exception types shared across the toolkit, and the JSON file reader that raises them."""

from __future__ import annotations

import json
from pathlib import Path


class QiSentryError(Exception):
    """Base class for all toolkit errors."""


class IngestError(QiSentryError):
    """Raised when delimited input cannot be turned into a table.

    ``row`` is the 1-based number of the offending record, counting the
    header as record 1, or None when the problem is not tied to a
    specific record (e.g. undecodable bytes). The message names it.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"{message} (record {row})")
        self.row = row


class NoSuchColumn(QiSentryError, KeyError):
    """Raised when a column name does not exist in a table."""

    def __init__(self, column: str, table: str = ""):
        where = f" in table {table!r}" if table else ""
        super().__init__(f"no column named {column!r}{where}")
        self.column = column


class MetricUndefined(QiSentryError):
    """Raised when a metric is requested on a table with zero rows."""


class InvalidForm(QiSentryError):
    """Raised when an assessment form violates its cardinality or range rules."""


class RulesError(QiSentryError):
    """Raised when a classification rules document is malformed."""


class InvalidSpec(QiSentryError):
    """Raised when a synthetic-table spec is malformed."""


def read_json(path: str | Path, error: type[QiSentryError], noun: str) -> object:
    """The JSON document in the UTF-8 file at ``path``, or ``error`` naming the file as ``noun``."""
    try:
        # a BOM is skipped, as utf-8-sig would, but byte offsets still count from the file's start
        return json.loads(Path(path).read_text(encoding="utf-8").removeprefix("\ufeff"))
    except OSError as exc:
        raise error(f"cannot read {noun} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{noun} {path} is not valid UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{noun} {path} is not valid JSON: {exc}") from None
