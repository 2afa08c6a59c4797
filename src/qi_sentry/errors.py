"""Exception types shared across the toolkit."""

from __future__ import annotations


class QiSentryError(Exception):
    """Base class for all toolkit errors."""


class IngestError(QiSentryError):
    """Raised when delimited input cannot be turned into a table.

    ``row`` is the 1-based number of the offending record, counting a
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
