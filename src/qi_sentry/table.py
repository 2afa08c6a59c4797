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

Ingest reads the bytes in blocks of about 1 MiB, each cut after its
last newline. A block with no quote, CR or NUL byte, a one-byte ASCII
delimiter, the same number of fields on every line, no field over the
csv field limit and valid UTF-8 is tokenized with numpy: each field
becomes a zero-padded key and each column of the block is factorized
with ``np.unique``, unless one column's keys would take more than
``_KEY_BYTES``. The first block that breaks any of these rules, and
everything after it, is decoded block by block and read as lines by
``csv.reader``, which is the only parser that reads quoted fields or CR
line endings and the one place that reports malformed records. Faults
are reported in record order: the records read before a malformed
record or invalid UTF-8 are checked for ragged rows first. Both parsers
feed the same per-column merge, so canonicalizing a value and merging
equal canonical values happen once per distinct raw value.

Cell comparison everywhere downstream is exact, case-sensitive string
equality: ``"72"`` and ``"72.0"`` are different symbols on purpose.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, islice
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# Bytes read per block of ingest. On the same machine, a select of a
# 700k-row, 23 MB file peaked at 105, 108, 123 and 199 MB RSS with blocks
# of 256 KiB, 1 MiB, 4 MiB and 16 MiB, in about the same time.
_BLOCK_BYTES = 1 << 20

# The most bytes of padded keys one column of a block may take in the
# numpy tokenizer: (records in the block) x (its longest field, at least
# 8). A block over it goes to csv.reader, so memory stays bounded when a
# few long fields sit among many short records.
_KEY_BYTES = 8 << 20

_BOM = b"\xef\xbb\xbf"

# _LOW_BYTES[k] keeps the first k bytes of a little-endian uint64 key
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype="<u8")


def canonicalize(raw: CellValue) -> CellValue:
    """Trim ASCII whitespace; None or an empty result is missing.

    Idempotent: canonicalize(canonicalize(x)) == canonicalize(x).
    """
    trimmed = raw and raw.strip(_ASCII_WS)
    return trimmed if trimmed else None


@dataclass(frozen=True)
class IngestOptions:
    """Options for reading and writing delimited text.

    Raises :class:`IngestError` for a delimiter that is not one
    character or is a quote or line break: csv cannot write such a
    delimiter so that it reads back.
    """

    delimiter: str = ","
    has_header: bool = True
    table_name: str = "table"
    na_token: str = "NA"

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise IngestError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.delimiter in '"\r\n':
            raise IngestError(
                f"delimiter cannot be a quote or a line break, got {self.delimiter!r}"
            )


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
    ) -> "Table":
        """Build a table from (column name, cells) pairs; cells are canonicalized."""
        pairs = list(columns.items()) if isinstance(columns, Mapping) else list(columns)
        coded = []
        for col_name, cells in pairs:
            first_rows: dict[CellValue, int] = {}
            codes = _first_row_codes(first_rows, cells, 0)
            coded.append((col_name, *_densify(first_rows, codes, canonicalize)))
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


def _decode(values: Sequence[object], codes: np.ndarray) -> list:
    """``[values[c] for c in codes]``, with one numpy take."""
    return np.array(values, dtype=object)[codes].tolist()


def _first_row_codes(first_rows: dict, cells: Iterable, row: int) -> np.ndarray:
    """Code each cell as the row where its value first occurs.

    ``row`` is the row number of the first cell; ``first_rows`` maps each
    value seen so far to its first row and is extended in place.
    """
    return np.fromiter(map(first_rows.setdefault, cells, count(row)), dtype=np.int32)


def _densify(
    first_rows: dict, codes: np.ndarray, canonical: Callable[[object], CellValue]
) -> tuple[tuple[CellValue, ...], np.ndarray]:
    """Distinct canonical values and dense codes, from row codes.

    ``first_rows`` maps each distinct raw value to one row where it
    occurs, and ``codes`` holds that row for every cell. Each distinct
    raw value is canonicalized once; raw values with the same canonical
    form share one code.
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


def _take(
    records: Iterator[list[str]], limit: int, number: int
) -> tuple[list[list[str]], IngestError | None]:
    """Up to ``limit`` records, and the fault that ended them early, if any.

    ``number`` is the 1-based number of the first record.
    """
    taken: list[list[str]] = []
    try:
        # extend keeps the records read before a fault, so they can be checked first
        taken.extend(islice(records, limit))
    except csv.Error as exc:
        return taken, IngestError(f"malformed record: {exc}", row=number + len(taken))
    except IngestError as exc:  # invalid UTF-8, from _lines
        return taken, exc
    return taken, None


class _Columns:
    """Row codes of every column, merged across the records parsed so far.

    ``first_rows[j]`` maps each distinct raw string of column j to one
    row where it occurs, and ``parts[j]`` holds that row for every cell,
    block by block. Both parsers add to it.
    """

    def __init__(self, first: list[str] | None, has_header: bool):
        """Columns named from the first record (None if there is none).

        A header names them by its cells; otherwise they are named by
        position and the first record is the first row.
        """
        if not first:
            if first is None or has_header:
                raise IngestError("no columns: input is empty")
            raise IngestError("no columns: first record is empty", row=1)
        self.names = [
            cell.strip(_ASCII_WS) if has_header else f"col_{j}" for j, cell in enumerate(first)
        ]
        seen = set()
        for name in self.names:
            if not name:
                raise IngestError(f"empty column name in header {first!r}", row=1)
            if name.lower() in seen:
                raise IngestError(f"duplicate column name {name!r}", row=1)
            seen.add(name.lower())
        self.first_rows: list[dict[str, int]] = [{} for _ in self.names]
        self.parts: list[list[np.ndarray]] = [[np.empty(0, dtype=np.int32)] for _ in self.names]
        self.rows = 0
        self.first_record = 1 + has_header  # 1-based number of the record holding row 0

    @property
    def next_record(self) -> int:
        return self.first_record + self.rows

    def add_records(self, chunk: list[list[str]]) -> None:
        width = len(self.names)
        if set(map(len, chunk)) - {width}:
            bad = next(i for i, record in enumerate(chunk) if len(record) != width)
            raise IngestError(
                f"ragged row: {len(chunk[bad])} fields, expected {width}",
                row=self.next_record + bad,
            )
        for seen, part, cells in zip(self.first_rows, self.parts, zip(*chunk)):
            part.append(_first_row_codes(seen, cells, self.rows))
        self.rows += len(chunk)

    def add_fields(self, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Add the records whose fields start at ``starts`` in ``buf`` (columns x records)."""
        rows = np.arange(self.rows, self.rows + starts.shape[1])
        for seen, part, column_starts, column_lengths in zip(
            self.first_rows, self.parts, starts, lengths
        ):
            keys = _field_keys(buf, column_starts, column_lengths)
            distinct, inverse = np.unique(keys, return_inverse=True)
            # any row holding a key identifies it: no other key shares that row
            row_of = np.empty(len(distinct), dtype=np.int64)
            row_of[inverse] = rows
            raw = distinct.view("S8") if distinct.dtype.kind == "u" else distinct
            # fields hold no newline, and a block's fields are valid UTF-8
            text = b"\n".join(raw.tolist()).decode("utf-8").split("\n")
            part.append(
                np.fromiter(
                    map(seen.setdefault, text, row_of.tolist()), dtype=np.int32, count=len(text)
                )[inverse]
            )
        self.rows += starts.shape[1]

    def table(self, opts: IngestOptions) -> Table:
        def canonical(raw: str) -> CellValue:
            value = canonicalize(raw)
            return None if value == opts.na_token else value

        return Table.from_codes(
            opts.table_name,
            [
                (name, *_densify(seen, np.concatenate(part), canonical))
                for name, seen, part in zip(self.names, self.first_rows, self.parts)
            ],
        )


def _blocks(stream: IO[bytes]) -> Iterator[bytes]:
    """The stream in blocks of about ``_BLOCK_BYTES``, each cut after its last newline.

    Only the last block may lack a final newline.
    """
    pending: list[bytes] = []
    while data := stream.read(_BLOCK_BYTES):
        cut = data.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pending, data[:cut]])
            pending = []
        pending.append(data[cut:])
    if tail := b"".join(pending):
        yield tail


def _tokenize(
    block: bytes, delimiter: int, width: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Split a block into fields with numpy, or None if csv.reader must parse it.

    Returns the block's bytes (zero-padded at the end) and the start and
    length of every field, both shaped (width, records). ``width`` is the
    number of columns, or None to take it from the first line. Returns
    None when the block holds a quote, CR or NUL byte or invalid UTF-8,
    when a line has a different number of fields (a blank line included),
    when a field is longer than the csv field limit, or when one
    column's padded keys would take more than ``_KEY_BYTES``.
    """
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    if not block.isascii():
        try:
            block.decode("utf-8")  # a newline never falls inside a UTF-8 character
        except UnicodeDecodeError:
            return None
    if not block.endswith(b"\n"):
        block += b"\n"  # the last line of an input without a final newline
    data = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero((data == delimiter) | (data == 10)).astype(np.int32)
    ends = data[seps] == 10
    if width is None:
        width = int(ends.argmax()) + 1
    if len(seps) % width:
        return None
    ends = ends.reshape(-1, width)
    if not ends[:, -1].all() or ends[:, :-1].any():
        return None
    starts = np.empty_like(seps)
    starts[0] = 0
    starts[1:] = seps[:-1] + 1
    lengths = seps - starts
    longest = int(lengths.max())
    if longest > csv.field_size_limit() or (width == 1 and not lengths.all()):
        return None
    if len(ends) * max(8, longest) > _KEY_BYTES:
        return None
    buf = np.zeros(len(data) + max(8, longest), dtype=np.uint8)
    buf[: len(data)] = data
    # one contiguous row per column, for the per-column gathers
    return buf, starts.reshape(-1, width).T.copy(), lengths.reshape(-1, width).T.copy()


def _field_keys(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One key per field, its bytes zero-padded: uint64 up to 8 bytes, ``S{w}`` above."""
    width = int(lengths.max(initial=0))
    if width <= 8:
        # element i holds the 8 bytes from buf[i] on, little-endian, so keys keep byte order
        eights = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
        return eights[starts] & _LOW_BYTES[lengths]
    keys = sliding_window_view(buf, width)[starts]
    keys[np.arange(width) >= lengths[:, None]] = 0
    return keys.view(f"S{width}").ravel()


def ingest_delimited(source: bytes | IO[bytes], options: IngestOptions | None = None) -> Table:
    """Parse RFC-4180-style delimited text into a :class:`Table`.

    ``source`` is a byte string or binary stream; UTF-8 only, with a BOM
    stripped if present. Empty fields and the sentinel become missing.
    The stream is read in blocks of about 1 MiB, each cut after a
    newline, and each column is factorized as it is read, so no cell is
    kept as its own string. Blocks free of quote, CR and NUL bytes are
    split into fields with numpy, as long as every line has the same
    number of fields, no field is longer than the csv field limit and
    the bytes are valid UTF-8 (and as long as its padded keys fit in
    ``_KEY_BYTES``). The first block that is not, and all that follow
    it, are read as lines by a strict ``csv.reader``.

    Raises :class:`IngestError` for undecodable bytes, zero
    columns, duplicate or empty header names, records the strict csv
    parser rejects (a field over its size limit, a quote left open at
    the end of the input, text after a closing quote) and ragged rows
    (``row`` carries the 1-based record number, counting the header as
    record 1). Of several faults, the first in record order is raised;
    invalid UTF-8 is placed only to within the 8 KiB that are decoded
    at a time, so a ragged row shortly before it may go unreported.
    """
    opts = options or IngestOptions()

    stream = io.BytesIO(source) if isinstance(source, bytes) else source
    blocks = _blocks(stream)
    blocks = chain([next(blocks, b"").removeprefix(_BOM)], blocks)
    columns: _Columns | None = None
    block = b""
    if opts.delimiter.isascii():
        for block in blocks:
            width = None if columns is None else len(columns.names)
            fields = _tokenize(block, ord(opts.delimiter), width)
            if fields is None:
                break
            buf, starts, lengths = fields
            if columns is None:
                first = block.partition(b"\n")[0].decode("utf-8").split(opts.delimiter)
                columns = _Columns(first, opts.has_header)
                starts, lengths = starts[:, opts.has_header :], lengths[:, opts.has_header :]
            if starts.shape[1]:
                columns.add_fields(buf, starts, lengths)
        else:
            return columns.table(opts)

    records = csv.reader(_lines(chain([block], blocks)), delimiter=opts.delimiter, strict=True)
    if columns is None:
        first, fault = _take(records, 1, 1)
        if fault:
            raise fault
        columns = _Columns(first[0] if first else None, opts.has_header)
        if not opts.has_header:
            columns.add_records(first)
    while True:
        chunk, fault = _take(records, _CHUNK_RECORDS, columns.next_record)
        columns.add_records(chunk)  # a ragged row before the fault is the first fault
        if fault:
            raise fault
        if len(chunk) < _CHUNK_RECORDS:
            return columns.table(opts)


def _lines(blocks: Iterable[bytes]) -> Iterator[str]:
    """The lines of ``blocks``, each block decoded on its own.

    Blocks end on a newline, so no UTF-8 character and no CRLF spans two.
    Lines end on CR, LF or CRLF, as csv.reader expects.
    """
    for block in blocks:
        with io.TextIOWrapper(io.BytesIO(block), encoding="utf-8", newline="") as text:
            try:
                yield from text
            except UnicodeDecodeError as exc:
                raise IngestError(f"input is not valid UTF-8: {exc}") from None
