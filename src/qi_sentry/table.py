"""Immutable columnar tables, stored as integer codes over canonical values.

A table is a named, ordered collection of columns; every cell is either
a canonical string (no leading/trailing ASCII whitespace) or missing.
Missing is modeled as ``None`` and all missing cells in a column compare
equal for grouping purposes, i.e. they form one shared symbol.

Each column is stored factorized, once, when the table is built: a
tuple of the column's distinct values and an ``int32`` array holding,
for every row, the position of that row's value in the tuple. Every
listed value occurs at least once, so a column's cardinality is the
length of its value tuple. The metrics read only the codes. ``cells``
and the row accessors decode them into Python strings on first use.

Cell comparison everywhere downstream is exact, case-sensitive string
equality: ``"72"`` and ``"72.0"`` are different symbols on purpose.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, islice
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import IngestError, NoSuchColumn

if TYPE_CHECKING:  # pragma: no cover
    from .classifier import ColumnClass

# A cell is a canonical string, or None for missing.
CellValue = str | None

# str.strip() would also eat unicode whitespace; canonicalization is
# deliberately limited to the ASCII set.
_ASCII_WS = " \t\r\n\x0b\x0c"

# Records parsed per step of ingest. On a 2-core x86 machine, chunks of
# 65536 records made csv parsing plus the column transpose about twice
# as slow as chunks of 4096 on 300k- and 700k-row files.
_CHUNK_RECORDS = 4096


def canonicalize(raw: str) -> CellValue:
    """Trim ASCII whitespace; an empty result is missing.

    Idempotent: canonicalize(canonicalize(x)) == canonicalize(x).
    """
    trimmed = raw.strip(_ASCII_WS)
    return trimmed if trimmed else None


@dataclass(frozen=True)
class IngestOptions:
    """Parsing options for delimited text."""

    delimiter: str = ","
    has_header: bool = True
    table_name: str = "table"
    na_token: str = "NA"


@dataclass(frozen=True)
class ColumnMeta:
    """Name, position, and optional manual class override for one column."""

    name: str
    position: int
    declared_class: "ColumnClass | None" = None


@dataclass(frozen=True, eq=False)
class Table:
    """Column-major table of canonical cells, stored as codes.

    ``values[p]`` holds column p's distinct cells and ``codes[p]`` (int32,
    read-only) indexes it per row. Instances are immutable after
    construction and safe to share across threads. Build them with
    :meth:`from_rows`, :meth:`from_columns`, :meth:`from_codes` or
    :func:`ingest_delimited` rather than calling the dataclass directly.
    """

    name: str
    columns: tuple[ColumnMeta, ...]
    values: tuple[tuple[CellValue, ...], ...] = field(repr=False)
    codes: tuple[np.ndarray, ...] = field(repr=False)
    row_count: int
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if not len(self.values) == len(self.codes) == len(self.columns):
            raise ValueError(
                f"{len(self.columns)} columns but {len(self.values)} value tuples "
                f"and {len(self.codes)} code arrays"
            )
        index: dict[str, int] = {}
        for pos, meta in enumerate(self.columns):
            if meta.position != pos:
                raise ValueError(
                    f"column {meta.name!r} has position {meta.position}, expected {pos}"
                )
            key = meta.name.lower()
            if key in index:
                raise ValueError(f"duplicate column name {meta.name!r}")
            index[key] = pos
        for meta, codes in zip(self.columns, self.codes):
            if codes.dtype != np.int32 or codes.shape != (self.row_count,):
                raise ValueError(
                    f"column {meta.name!r} has {codes.dtype} codes of shape {codes.shape}, "
                    f"expected int32 of shape ({self.row_count},)"
                )
            codes.flags.writeable = False
        object.__setattr__(self, "_index", index)

    def __eq__(self, other: object) -> bool:
        # code order depends on how a table was built, so compare cells
        if not isinstance(other, Table):
            return NotImplemented
        return (
            (self.name, self.columns, self.row_count)
            == (other.name, other.columns, other.row_count)
            and self.cells == other.cells
        )

    # -- construction -------------------------------------------------

    @classmethod
    def from_codes(
        cls,
        name: str,
        columns: Sequence[tuple[str, Sequence[CellValue], np.ndarray]],
        declared_classes: Mapping[str, "ColumnClass"] | None = None,
    ) -> "Table":
        """Build a table from (column name, distinct values, int32 codes) triples.

        Row i of a column holds ``values[codes[i]]``. The values must be
        canonical and distinct, and each must occur at least once.
        """
        declared = {k.lower(): v for k, v in (declared_classes or {}).items()}
        metas = tuple(
            ColumnMeta(name=col_name, position=pos, declared_class=declared.get(col_name.lower()))
            for pos, (col_name, _, _) in enumerate(columns)
        )
        return cls(
            name=name,
            columns=metas,
            values=tuple(tuple(values) for _, values, _ in columns),
            codes=tuple(codes for _, _, codes in columns),
            row_count=len(columns[0][2]) if columns else 0,
        )

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Mapping[str, Iterable[CellValue]] | Sequence[tuple[str, Iterable[CellValue]]],
        declared_classes: Mapping[str, "ColumnClass"] | None = None,
        canonical: bool = False,
    ) -> "Table":
        """Build a table from (column name, cells) pairs.

        Cells are canonicalized unless ``canonical=True`` promises they
        already are.
        """
        pairs = list(columns.items()) if isinstance(columns, Mapping) else list(columns)
        canon = _same if canonical else _canonical_cell
        coded = []
        for col_name, cells in pairs:
            first_rows: dict[CellValue, int] = {}
            codes = _first_row_codes(first_rows, cells, 0)
            coded.append((col_name, *_densify(first_rows, codes, canon)))
        return cls.from_codes(name, coded, declared_classes)

    @classmethod
    def from_rows(
        cls,
        name: str,
        column_names: Sequence[str],
        rows: Iterable[Sequence[CellValue]],
        declared_classes: Mapping[str, "ColumnClass"] | None = None,
    ) -> "Table":
        """Build a table from row-major data (the test-fixture workhorse)."""
        cols: list[list[CellValue]] = [[] for _ in column_names]
        for row in rows:
            if len(row) != len(column_names):
                raise ValueError(f"row has {len(row)} cells, expected {len(column_names)}")
            for col, value in zip(cols, row):
                col.append(value)
        return cls.from_columns(name, list(zip(column_names, cols)), declared_classes)

    # -- access -------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(meta.name for meta in self.columns)

    def has_column(self, column_name: str) -> bool:
        return column_name.lower() in self._index

    def position_of(self, column_name: str) -> int:
        """Resolve a column position; names compare case-insensitively."""
        try:
            return self._index[column_name.lower()]
        except KeyError:
            raise NoSuchColumn(column_name, self.name) from None

    @cached_property
    def cells(self) -> tuple[tuple[CellValue, ...], ...]:
        """Decoded cells, one tuple per column in row order, built on first use."""
        return tuple(tuple(_decode(v, c)) for v, c in zip(self.values, self.codes))

    def column_values(self, column_name: str) -> tuple[CellValue, ...]:
        """The column's cells in row order."""
        return self.cells[self.position_of(column_name)]

    def row(self, i: int) -> tuple[CellValue, ...]:
        return tuple(col[i] for col in self.cells)

    def iter_rows(self) -> Iterable[tuple[CellValue, ...]]:
        return zip(*self.cells) if self.cells else iter(())

    # -- serialization ------------------------------------------------

    def to_delimited(self, options: IngestOptions | None = None) -> str:
        """Render back to delimited text, missing cells as the sentinel.

        Re-ingesting the output with the same options yields an equal
        table, provided no present value equals the sentinel itself.
        """
        opts = options or IngestOptions()
        out = io.StringIO()
        writer = csv.writer(out, delimiter=opts.delimiter, lineterminator="\n")
        if opts.has_header:
            writer.writerow(self.column_names)
        columns = [
            _decode([opts.na_token if v is None else v for v in values], codes)
            for values, codes in zip(self.values, self.codes)
        ]
        writer.writerows(zip(*columns))
        return out.getvalue()


def column_values(table: Table, column_name: str) -> tuple[CellValue, ...]:
    """Module-level alias for :meth:`Table.column_values`."""
    return table.column_values(column_name)


def _decode(values: Sequence[object], codes: np.ndarray) -> list:
    """``[values[c] for c in codes]``, with one numpy take."""
    return np.array(values, dtype=object)[codes].tolist()


def _first_row_codes(first_rows: dict, cells: Iterable, row: int) -> np.ndarray:
    """Code each cell as the row where its value first occurs.

    ``row`` is the row number of the first cell; ``first_rows`` maps each
    value seen so far to its first row and is extended in place.
    """
    return np.fromiter(map(first_rows.setdefault, cells, count(row)), dtype=np.int32)


def _same(value: CellValue) -> CellValue:
    return value


def _canonical_cell(value: CellValue) -> CellValue:
    return canonicalize(value) if isinstance(value, str) else value


def _densify(
    first_rows: dict, codes: np.ndarray, canonical: Callable[[object], CellValue]
) -> tuple[tuple[CellValue, ...], np.ndarray]:
    """Distinct canonical values and dense codes, from first-row codes.

    Each distinct raw value is canonicalized once; raw values with the
    same canonical form share one code.
    """
    ids: dict[CellValue, int] = {}
    dense = np.fromiter(
        (ids.setdefault(canonical(raw), len(ids)) for raw in first_rows),
        dtype=np.int32,
        count=len(first_rows),
    )
    by_first_row = np.empty(len(codes), dtype=np.int32)
    by_first_row[np.fromiter(first_rows.values(), dtype=np.intp, count=len(first_rows))] = dense
    return tuple(ids), by_first_row[codes]


def _take(records: Iterator[list[str]], limit: int, number: int) -> list[list[str]]:
    """Up to ``limit`` records; ``number`` is the 1-based number of the first."""
    taken: list[list[str]] = []
    try:
        # extend keeps the records read before an error, which numbers the bad one
        taken.extend(islice(records, limit))
    except csv.Error as exc:
        raise IngestError(f"malformed record: {exc}", row=number + len(taken)) from None
    return taken


def _header_names(header: list[str]) -> list[str]:
    names = []
    seen = set()
    for cell in header:
        name = cell.strip(_ASCII_WS)
        if not name:
            raise IngestError(f"empty column name in header {header!r}", row=1)
        if name.lower() in seen:
            raise IngestError(f"duplicate column name {name!r}", row=1)
        seen.add(name.lower())
        names.append(name)
    return names


def ingest_delimited(source: bytes | IO[bytes], options: IngestOptions | None = None) -> Table:
    """Parse RFC-4180-style delimited text into a :class:`Table`.

    ``source`` is a byte string or binary stream; UTF-8 only, with a BOM
    stripped if present. Empty fields and the sentinel become missing.
    The stream is decoded and parsed in chunks of records, and each
    column is factorized as it is read, so no cell is kept as its own
    string.

    Raises :class:`IngestError` for undecodable bytes, zero columns,
    duplicate or empty header names, records the csv parser rejects
    (such as a field over its size limit) and ragged rows (``row``
    carries the 1-based record number, counting the header as record 1).
    """
    opts = options or IngestOptions()
    if len(opts.delimiter) != 1:
        raise IngestError(f"delimiter must be a single character, got {opts.delimiter!r}")

    stream = io.BytesIO(source) if isinstance(source, bytes) else source
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
    try:
        return _ingest_records(csv.reader(text, delimiter=opts.delimiter), opts)
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not valid UTF-8: {exc}") from None
    finally:
        text.detach()  # leaves the caller's stream open


def _ingest_records(records: Iterator[list[str]], opts: IngestOptions) -> Table:
    number = 1  # 1-based number of the next record to read
    if opts.has_header:
        header = _take(records, 1, number)
        if not header or not header[0]:
            raise IngestError("no columns: input is empty")
        names = _header_names(header[0])
        number = 2

    chunk = _take(records, _CHUNK_RECORDS, number)
    if not opts.has_header:
        if not chunk:
            raise IngestError("no columns: input is empty")
        if not chunk[0]:
            raise IngestError("no columns: first record is empty", row=1)
        names = [f"col_{j}" for j in range(len(chunk[0]))]

    width = len(names)
    first_rows: list[dict[str, int]] = [{} for _ in names]
    parts: list[list[np.ndarray]] = [[np.empty(0, dtype=np.int32)] for _ in names]
    rows = 0
    while chunk:
        if set(map(len, chunk)) != {width}:
            bad = next(i for i, record in enumerate(chunk) if len(record) != width)
            raise IngestError(
                f"ragged row: {len(chunk[bad])} fields, expected {width}", row=number + bad
            )
        for seen, part, cells in zip(first_rows, parts, zip(*chunk)):
            part.append(_first_row_codes(seen, cells, rows))
        rows += len(chunk)
        number += len(chunk)
        chunk = _take(records, _CHUNK_RECORDS, number)

    def canonical(raw: str) -> CellValue:
        value = canonicalize(raw)
        return None if value == opts.na_token else value

    return Table.from_codes(
        opts.table_name,
        [
            (name, *_densify(seen, np.concatenate(part), canonical))
            for name, seen, part in zip(names, first_rows, parts)
        ],
    )
