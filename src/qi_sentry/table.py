"""Immutable columnar tables, stored as integer codes over canonical values.

A table is a named, ordered collection of columns; every cell is either
a canonical string (no leading/trailing ASCII whitespace) or missing.
Missing is modeled as ``None`` and all missing cells in a column compare
equal for grouping purposes, i.e. they form one shared symbol.

Each column is stored factorized, once, when the table is built: its
distinct values and, for every row, the position of that row's value
among them, in the narrowest dtype that holds them (:func:`code_dtype`).
Every distinct value occurs at least once, so a column's cardinality is
their number. The metrics read only the codes and the cardinalities.
Every table keeps its distinct values as byte keys (``_Keys``): the keys
ingest merged, from a file or from :meth:`Table.from_rows`' cells, or the
symbols the generator drew, in number order, so ``==`` compares cells.
It decodes each column's keys to strings once, on the first read of
``values``, ``cells`` or ``==``, and ``cells`` decodes the codes too.

Ingest reads the bytes in blocks of about 1 MiB, each cut after its
last newline, into one buffer that every block reuses, and copies no
block it tokenizes. A block with no quote, CR or NUL byte, a one-byte
ASCII delimiter, the same number of fields on every line, no field over
the csv field limit and valid UTF-8 is tokenized with numpy. The first
block that breaks any of these rules, and everything after it, is
decoded block by block and read as lines by ``csv.reader``, which is
the only parser that reads quoted fields or CR line endings and the one
place that reports malformed records. Faults are reported in record
order: the records read before a malformed record or invalid UTF-8 are
checked for ragged rows first.

Both parsers and :meth:`Table.from_rows` feed one merge of byte keys,
in numpy calls only. The cells of a ``csv.reader`` chunk or of
``from_rows`` are joined into UTF-8 bytes, each ended by 0xff and with
NUL written as 0xfe, neither of which UTF-8 holds. A block or chunk
keeps one array of a value per field, its separators' ``int32``
positions. Each column's fields' starts and lengths are taken from them
only as that column is keyed, and moved past their leading and trailing
ASCII whitespace, so the keys are canonical. Each column is factorized
on zero-padded keys, ``uint64`` up to 8 bytes and above that ``S{w}``
in width classes of powers of two, so no key is padded to more than
twice its length, by :func:`_factorize`: one argsort, or for ``uint64``
keys of a small span no sort. Each block writes its cells' indexes into
its own distinct keys straight into one code array a column, sized for
the rows the input's length implies where that is known. At the end,
one factorization per class merges a column's keys across blocks, and
one take per block remaps its rows, in place where the merged codes
keep the array's dtype. Equal values have equal lengths and so meet in
one class. The empty key and the NA token become missing, and the table
keeps the other merged keys undecoded. Values are ordered by class,
then by key, with missing last.

The writer ends each distinct value's key with the key of its delimiter
or newline, zero-pads it to its column's widest, and gathers about
``_WRITE_BYTES`` of rows at a time from the codes into one byte buffer,
less the zeros: no key holds one. It makes no string per cell and
decodes nothing; one pass turns 0xfe back into NUL, if the output holds
any. Only in a column whose bytes hold the key of the delimiter, a
quote, CR or LF does it look at each key, and quote, in bytes, those
that hold one, as it quotes the header and the NA token. It quotes a
first column name that begins with U+FEFF too, which would otherwise
read back as a BOM. Only an empty NA token takes the quotes that an
empty field of a one-column table takes.

Cell comparison everywhere downstream is exact, case-sensitive string
equality: ``"72"`` and ``"72.0"`` are different symbols on purpose.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import IO, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IngestError, NoSuchColumn

# A cell is a canonical string, or None for missing.
CellValue = str | None

# str.strip() would also eat unicode whitespace; canonicalization is
# deliberately limited to the ASCII set.
_ASCII_WS = " \t\r\n\x0b\x0c"

# Records per step of ingest's csv.reader path. On a 2-core x86 machine, in-process ingest
# of CRLF copies of the 300k- and 700k-row seed-9901 benchmark files took 1.2-1.4 and 1.8-2.3 s
# (peak RSS 86, 57 MB) with 4096, and 1.6-2.2 and 2.6-3.0 s (171-186, 170-174 MB) with 65536.
_CHUNK_RECORDS = 4096

# Bytes read per block of ingest. On the same machine, select children on the seed-9901
# benchmark files (10 alternating runs each) peaked at 39.5, 41.3 and 44.6 MB RSS on the
# 700k-row lowcard file, and at 60.1, 58.1 and 57.5 MB on the 300k-row tall one, with
# blocks of 512 KiB, 1 MiB and 2 MiB; median wall 0.40, 0.38 and 0.37 s, and 0.41, 0.42
# and 0.42 s.
_BLOCK_BYTES = 1 << 20

# Bytes of a block's separator mask whose positions are found at a time, in int64 before
# they are stored as int32. On the same machine, for one 1 MiB block of 11 two-byte
# columns, steps of 16 KiB, 64 KiB and the whole block took 1.9, 1.6 and 1.6 ms and
# peaked at 1.5, 1.75 and 4.3 MB traced.
_SCAN_BYTES = 1 << 16

# Bytes gathered per step of to_delimited, padding included. On the same machine,
# 256 KiB to 1 MiB wrote a 300k x 12 and a 700k x 11 table in 0.12-0.18 and
# 0.07-0.10 s, 16 MiB in 0.15 and 0.12 s; and 10 kB rows (one 10 kB value among
# 10k short ones) in 0.05-0.07 s, peak 102 MB traced, and 0.13 s, 134 MB.
_WRITE_BYTES = 1 << 20

_BOM = b"\xef\xbb\xbf"

# _LOW_BYTES[k] keeps the first k bytes of a little-endian uint64 key
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype="<u8")

# Ingest's short keys and metrics._pair_ids' pair keys skip the sort
# (densify) while their range holds at most this many values per key;
# metrics._leave_one_out scores a node from one occupancy array under
# the same bound on its key space. Metrics count only the rows still in
# a shared class, as single-row classes are dropped after each fold.
# On 700k random rows (2-vCPU Xeon, numpy 2.4) marking took 24 ms at 4
# values per key and a sort 50 ms; the two meet near 8 per key.
_SORT_FREE_FACTOR = 4


def code_dtype(cardinality: int) -> np.dtype:
    """The narrowest dtype that codes ``cardinality`` values: uint8, uint16 or int32."""
    return np.dtype("u1" if cardinality <= 1 << 8 else "u2" if cardinality <= 1 << 16 else "i4")


def densify(keys: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """Which of 0 .. ``space`` - 1 occur in ``keys``, and each key's int32 rank among those.

    From a mark and a running count, unsorted.
    """
    seen = np.zeros(space, dtype=bool)
    seen[keys] = True
    ids = np.cumsum(seen, dtype=np.int32)[keys]
    ids -= 1
    return seen, ids


def _factorize(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``keys``, and each key's ``int32`` rank among them.

    The one factorization of ingest and grouping. Integer keys whose span
    holds at most ``_SORT_FREE_FACTOR`` values per key are shifted in
    place and ranked by :func:`densify`, with no sort; others by one
    argsort and a running count of each run's first key.
    """
    if keys.dtype.kind in "iu":
        low = keys.min()
        space = int(keys.max()) - int(low) + 1
        if space <= _SORT_FREE_FACTOR * len(keys):
            keys -= low  # a new array of them would cost grouping's folds about a fifth
            seen, ids = densify(keys.view(np.int64) if keys.dtype == np.uint64 else keys, space)
            return np.flatnonzero(seen).astype(keys.dtype) + low, ids
    order = keys.argsort()
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    del ordered
    # ranked before ids is made: the cumsum holds a cast of first as large as ids
    ranks = np.cumsum(first, dtype=np.int32)
    ranks -= 1
    ids = np.empty(len(keys), dtype=np.int32)
    ids[order] = ranks
    return distinct, ids


def canonicalize(raw: CellValue) -> CellValue:
    """Trim ASCII whitespace; None or an empty result is missing.

    Idempotent: canonicalize(canonicalize(x)) == canonicalize(x).
    """
    trimmed = raw and raw.strip(_ASCII_WS)
    return trimmed if trimmed else None


@dataclass(frozen=True)
class IngestOptions:
    """Options for reading and writing delimited text, whose first record is the header.

    Raises :class:`IngestError` for a field of the wrong type, a
    delimiter, ``na_token`` or ``table_name`` that UTF-8 cannot encode,
    a delimiter that is not one character or is a quote or line break
    (no quoting writes it so that it reads back), or an ``na_token``
    with ASCII whitespace at an edge, which no trimmed cell could match.
    """

    delimiter: str = ","
    table_name: str = "table"
    na_token: str = "NA"

    def __post_init__(self):
        for name in ("table_name", "na_token"):
            if not isinstance(getattr(self, name), str):
                raise IngestError(f"{name} must be a str, got {getattr(self, name)!r}")
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise IngestError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.delimiter in '"\r\n':
            raise IngestError(
                f"delimiter cannot be a quote or a line break, got {self.delimiter!r}"
            )
        if self.na_token != self.na_token.strip(_ASCII_WS):
            raise IngestError(f"NA token cannot start or end with whitespace, got {self.na_token!r}")
        for noun, text in [("delimiter", self.delimiter), ("NA token", self.na_token),
                           ("table name", self.table_name)]:
            try:
                _key(text)
            except UnicodeEncodeError:
                raise IngestError(f"{noun} cannot be encoded in UTF-8, got {text!r}") from None


@dataclass(frozen=True)
class ColumnMeta:
    """The name of one column; its position is its index."""

    name: str


@dataclass(frozen=True, eq=False)
class Table:
    """Column-major table of canonical cells, stored as codes.

    ``values[p]`` holds column p's distinct cells and ``codes[p]`` (of
    ``code_dtype(cardinality(p))``, read-only) indexes it per row;
    ``cardinality(p)`` is ``len(values[p])`` without decoding. ``distinct[p]``
    holds the same values as undecoded byte keys (:class:`_Keys`), however
    the table was built; ``values`` decodes them on first read. Instances are
    immutable after construction and safe to share across threads: the
    decode is deterministic, so two threads that race on it only decode
    twice. Build them with :meth:`from_rows` or :func:`ingest_delimited`
    rather than calling the dataclass directly; both end in ingest's merge
    and then in the private :meth:`_from_keys`, as the generator does.

    Raises ``ValueError`` for a table with no columns, or a column name
    that is empty, has ASCII whitespace at an edge, cannot be encoded in
    UTF-8 or repeats another case-insensitively: :meth:`to_delimited`
    could not write it so that it reads back.
    """

    name: str
    columns: tuple[ColumnMeta, ...]
    distinct: tuple[_Keys, ...] = field(repr=False)
    codes: tuple[np.ndarray, ...] = field(repr=False)
    row_count: int
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if not len(self.distinct) == len(self.codes) == len(self.columns):
            raise ValueError(
                f"{len(self.columns)} columns but {len(self.distinct)} sets of distinct values "
                f"and {len(self.codes)} code arrays"
            )
        if not self.columns:
            raise ValueError(f"table {self.name!r} has no columns")
        index: dict[str, int] = {}
        for pos, meta in enumerate(self.columns):
            if not meta.name or meta.name != meta.name.strip(_ASCII_WS):
                raise ValueError(f"column name {meta.name!r} is empty or has whitespace at an edge")
            try:
                _key(meta.name)
            except UnicodeEncodeError:
                raise ValueError(f"column name {meta.name!r} cannot be encoded in UTF-8") from None
            key = meta.name.lower()
            if key in index:
                raise ValueError(f"duplicate column name {meta.name!r}")
            index[key] = pos
        for meta, distinct, codes in zip(self.columns, self.distinct, self.codes):
            dtype = code_dtype(len(distinct))
            if codes.dtype != dtype or codes.shape != (self.row_count,):
                raise ValueError(
                    f"column {meta.name!r} has {codes.dtype} codes of shape {codes.shape}, "
                    f"expected {dtype} of shape ({self.row_count},)"
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
    def _from_keys(cls, name: str, columns: Sequence[tuple[str, _Keys, np.ndarray]]) -> "Table":
        """Build a table from (column name, keys, integer codes) triples, codes narrowed.

        Every constructor ends here. The keys must hold what :class:`_Keys`
        promises, and every one must be coded; nothing checks that here.
        """
        return cls(
            name=name,
            columns=tuple(ColumnMeta(col_name) for col_name, _, _ in columns),
            distinct=tuple(keys for _, keys, _ in columns),
            codes=tuple(ids.astype(code_dtype(len(keys)), copy=False) for _, keys, ids in columns),
            row_count=len(columns[0][2]) if columns else 0,
        )

    @classmethod
    def from_rows(
        cls, name: str, column_names: Sequence[str], rows: Iterable[Sequence[CellValue]]
    ) -> "Table":
        """Build a table from row-major Python cells, as ingest builds one from fields.

        Each cell is keyed once by :func:`_key` (a lone surrogate raises), ``None`` as an
        empty field, and fed to ingest's merge, its third feeder. No NA token: ``"NA"`` is a value.
        """
        keys: list[bytes] = []
        for row in rows:
            if len(row) != len(column_names):
                raise ValueError(f"row has {len(row)} cells, expected {len(column_names)}")
            keys.extend(b"" if cell is None else _key(cell) for cell in row)
        columns = _Columns(column_names)
        if keys:
            columns.add_keys(b"\xff".join([*keys, b""]))
        return columns.table(name, b"")

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

    def cardinality(self, position: int) -> int:
        """How many distinct values the column at ``position`` holds; decodes nothing."""
        return len(self.distinct[position])

    @cached_property
    def values(self) -> tuple[tuple[CellValue, ...], ...]:
        """Each column's distinct cells, in code order, decoded on first use."""
        return tuple(keys.decode() for keys in self.distinct)

    @cached_property
    def cells(self) -> tuple[tuple[CellValue, ...], ...]:
        """Decoded cells, one tuple per column in row order, built on first use."""
        return tuple(tuple(_decode(v, c)) for v, c in zip(self.values, self.codes))

    def column_values(self, column_name: str) -> tuple[CellValue, ...]:
        """The column's cells in row order."""
        return self.cells[self.position_of(column_name)]

    # -- serialization ------------------------------------------------

    def to_delimited(self, options: IngestOptions | None = None) -> str:
        """Render back to delimited text, missing cells as the sentinel, lines ended by LF.

        As RFC 4180 has it, a field is quoted, each ``"`` in it doubled, when
        it holds the delimiter, a quote, CR or LF: once per distinct value, in
        bytes, on its key (see the module docstring). No value is decoded.
        It re-ingests with the same options as an equal table; a value
        equal to the sentinel is an IngestError.
        """
        opts = options or IngestOptions()
        na, delimiter = _key(opts.na_token), _key(opts.delimiter)
        special = [delimiter, b'"', b"\r", b"\n"]
        # an empty field alone on its line would read back as a blank line
        na_field = _quoted(na, special) if na or len(self.columns) > 1 else b'""'
        items = []
        for pos, (meta, keys) in enumerate(zip(self.columns, self.distinct)):
            if keys.holds(na):  # it would read back as missing
                raise IngestError(f"NA token {opts.na_token!r} is a value of column {meta.name!r}")
            end = b"\n" if pos == len(self.columns) - 1 else delimiter
            items.append(keys.padded(na_field, end, special))
        header = [_quoted(_key(n), special) for n in self.column_names]
        if header[0].startswith(_BOM):  # unquoted, ingest would read a BOM
            header[0] = _quoted(header[0], [_BOM])
        out = bytearray(delimiter.join(header) + b"\n")
        bounds = np.cumsum([0, *(item.itemsize for item in items)])
        step = max(1, _WRITE_BYTES // int(bounds[-1]))
        for lo in range(0, self.row_count, step):
            buf = np.empty((min(step, self.row_count - lo), bounds[-1]), dtype=np.uint8)
            for item, codes, start, stop in zip(items, self.codes, bounds, bounds[1:]):
                buf[:, start:stop].view(item.dtype)[:, 0] = item.take(codes[lo : lo + step])
            out.extend(buf[buf != 0])  # one copy, through the buffer protocol
        if 0xFE in out:  # the key of NUL; UTF-8 holds no 0xfe
            out = out.replace(b"\xfe", b"\0")
        return out.decode("utf-8")


@dataclass(frozen=True)
class _Keys:
    """A column's distinct values as byte keys, not yet decoded.

    ``kept`` holds the present values' keys (:func:`_key`) in code order,
    in one ``S{w}`` array per width class of ingest that holds any, never
    empty and zero-padded, so no key holds a zero byte. A missing value,
    if ``missing``, is coded last. The writer pads and writes the keys as
    they are (:meth:`padded`).
    """

    kept: tuple[np.ndarray, ...]
    missing: bool

    def __len__(self) -> int:
        return sum(map(len, self.kept)) + self.missing

    def decode(self) -> tuple[CellValue, ...]:
        """Each value in code order, None if missing: strict UTF-8, 0xfe as NUL; inverts _key."""
        keys = chain.from_iterable(k.tolist() for k in self.kept)
        return (*(key.replace(b"\xfe", b"\0").decode() for key in keys), *[None] * self.missing)

    def holds(self, key: bytes) -> bool:
        """Whether a present value has the key ``key``."""
        return any((k == key).any() for k in self.kept)

    def padded(self, na: bytes, end: bytes, special: Sequence[bytes]) -> np.ndarray:
        """Each value's key ended by ``end``, zero-padded to the longest, as ``V{w}``.

        ``na`` stands for a missing value. ``na`` and ``end`` are keys too,
        so no value holds a zero byte. A key that holds one of the keys
        ``special`` is quoted (:func:`_quoted`).
        """
        kept, data = self.kept, b"".join(k.tobytes() for k in self.kept)
        # no UTF-8 character starts inside another, so a key matches only whole characters
        if any(s in data for s in special):
            kept = [
                np.array([_quoted(key, special) for key in keys.tolist()], dtype="S")
                for keys in kept
            ]
        ended = [np.char.add(keys, end) for keys in kept] + [np.array([na + end])] * self.missing
        if not ended:  # a table of no rows
            return np.zeros(0, dtype="V1")
        # add sums its inputs' itemsizes, so the longest value, not the dtype, sets the width
        width = max(int(np.char.str_len(e).max(initial=1)) for e in ended)
        return np.concatenate(ended, dtype=f"S{width}").view(f"V{width}")


def _key(text: str) -> bytes:
    """The key ingest gives a field ``text``: strict UTF-8, NUL as 0xfe; inverts _Keys.decode.

    A lone surrogate, which UTF-8 cannot encode, raises ``UnicodeEncodeError``.
    """
    return text.encode("utf-8").replace(b"\0", b"\xfe")


def _quoted(key: bytes, special: Sequence[bytes]) -> bytes:
    """``key`` in quotes, each ``"`` in it doubled, if it holds one of the keys ``special``."""
    return b'"' + key.replace(b'"', b'""') + b'"' if any(s in key for s in special) else key


def _decode(values: Sequence[object], codes: np.ndarray) -> list:
    """``[values[c] for c in codes]``, with one numpy take."""
    return np.array(values, dtype=object)[codes].tolist()


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


def _header_names(header: list[str] | None) -> list[str]:
    """The column names in the cells of the header, record 1 (None if the input is empty)."""
    if header is None:
        raise IngestError("no columns: input is empty")
    if not header:
        raise IngestError("no columns: header is empty", row=1)
    names = [cell.strip(_ASCII_WS) for cell in header]
    seen = set()
    for name in names:
        if not name:
            raise IngestError(f"empty column name in header {header!r}", row=1)
        if name.lower() in seen:
            raise IngestError(f"duplicate column name {name!r}", row=1)
        seen.add(name.lower())
    return names


class _Columns:
    """Byte keys and codes of every column, merged across the records added so far.

    ``keys[j]`` holds column j's distinct canonical keys, block by block
    and in width classes (uint64 for up to 8 bytes, ``S{w}`` of a power of
    two ``w`` above). ``codes[j]`` is column j's one code array: each
    block writes its cells' narrow indexes from its own keys into its
    rows, and ``parts[j]`` holds each block's offset into the keys, first
    row and row count. The merge remaps the rows, in place where the
    dtype allows. Both parsers and :meth:`Table.from_rows` add to it.

    ``size`` is how many bytes the input holds, if known, and ``read`` how
    many of them the records added so far came from; the code arrays are
    sized for the rows the input holds at that rate.
    """

    def __init__(self, names: Sequence[str], size: int | None = None):
        self.names = names
        self.keys: list[list[np.ndarray]] = [[] for _ in names]
        self.codes: list[np.ndarray] = [np.empty(0, dtype=np.uint8) for _ in names]
        self.parts: list[list[tuple[int, int, int]]] = [[] for _ in names]
        self.rows = 0
        self.size, self.read = size, 0

    @property
    def next_record(self) -> int:
        return 2 + self.rows  # the header is record 1

    def add_records(self, chunk: list[list[str]]) -> None:
        width = len(self.names)
        if set(map(len, chunk)) - {width}:
            bad = next(i for i, record in enumerate(chunk) if len(record) != width)
            raise IngestError(
                f"ragged row: {len(chunk[bad])} fields, expected {width}",
                row=self.next_record + bad,
            )
        if chunk:
            # each field ends in 0xff and NUL becomes 0xfe: UTF-8 holds neither byte,
            # and zero-padded keys could not tell "x\0" from "x"
            text = "\udcff".join([*chain.from_iterable(chunk), ""])
            self.add_keys(text.encode("utf-8", "surrogateescape").replace(b"\0", b"\xfe"))

    def add_keys(self, data: bytes) -> None:
        """Add the records whose fields' keys ``data`` holds, row by row, each ended by 0xff."""
        self.read += len(data)  # about the bytes the records took in the input
        bounds = _bounds(np.frombuffer(data, dtype=np.uint8) == 0xFF)
        self.add_fields(*_split(bytearray(data), 0, len(data), bounds, len(self.names), b"\xff"))

    def add_fields(self, buf: np.ndarray, bounds: np.ndarray, trim: bool) -> None:
        """Add the records whose fields, row by row, lie between ``bounds`` in ``buf``.

        Field k lies after ``bounds[k]`` and up to ``bounds[k + 1]`` (see
        :func:`_split`). Each column's starts and lengths are taken, and
        trimmed if ``trim``, only as that column is keyed. A column whose
        fields fall in one width class is keyed in one piece, and the
        ``int32`` inverse of its factorization is cast straight into the
        column's code array; only a column of several classes gathers and
        offsets each first.
        """
        width = len(self.names)
        first, rows = self.rows, (len(bounds) - 1) // width
        self._reserve(first + rows)
        for j, (keys, part) in enumerate(zip(self.keys, self.parts)):
            starts = bounds[j:-1:width] + 1
            lengths = bounds[j + 1 :: width] - starts
            if trim:
                _trim(buf, starts, lengths)
            # keys in width classes, uint64 up to 8 bytes and then powers of two, so none is
            # padded to over twice its bytes; often a column's fields all fall in one
            shortest, longest = int(lengths.min()), int(lengths.max())
            offset = sum(map(len, keys))
            if (max(8, shortest) - 1).bit_length() == (max(8, longest) - 1).bit_length():
                distinct, local = _factorize(_field_keys(buf, starts, lengths, shortest, longest))
                keys.append(distinct)
            else:
                exponents = np.frexp(np.maximum(lengths, 8) - 1)[1]
                local = np.empty(len(starts), dtype=np.int32)
                for e in np.flatnonzero(np.bincount(exponents)):
                    at = exponents == e
                    sized = lengths[at]
                    distinct, inverse = _factorize(
                        _field_keys(buf, starts[at], sized, int(sized.min()), int(sized.max()))
                    )
                    local[at] = inverse + (sum(map(len, keys)) - offset)
                    keys.append(distinct)
            dtype = code_dtype(sum(map(len, keys)) - offset)
            if dtype.itemsize > self.codes[j].itemsize:  # widened for this block and on
                self.codes[j] = _moved(self.codes[j], len(self.codes[j]), dtype, first)
            self.codes[j][first : first + rows] = local
            part.append((offset, first, rows))
        self.rows += rows

    def _reserve(self, rows: int) -> None:
        """Room for ``rows`` codes in every column's array, each moved once it is too small.

        The new room is for the rows the input holds at the rate of the
        bytes read so far, and a sixteenth more; or, if the input's size
        is unknown or the estimate falls short, twice the old room.
        """
        room = len(self.codes[0]) if self.codes else rows
        if rows <= room:
            return
        ahead = rows * self.size // self.read if self.size and self.read else 0
        room = max(rows, ahead + ahead // 16, 2 * room)
        for j, codes in enumerate(self.codes):  # one column's two arrays alive at a time
            self.codes[j] = _moved(codes, room, codes.dtype, self.rows)

    def table(self, name: str, na: bytes) -> Table:
        """The table ``name`` of the keys added, with ``na`` and the empty key as missing."""
        columns = []
        for j, column in enumerate(self.names):
            merged = _merge(self.keys[j], self.parts[j], self.codes[j], self.rows, na)
            columns.append((column, *merged))
            self.keys[j] = self.parts[j] = []  # free the column's blocks once it is merged
            self.codes[j] = merged[1]  # drops the block codes if the merge wrote new ones
        return Table._from_keys(name, columns)


def _moved(codes: np.ndarray, room: int, dtype: np.dtype, rows: int) -> np.ndarray:
    """An array of ``room`` elements of ``dtype`` whose first ``rows`` are those of ``codes``.

    Only the rows are copied, so the pages past them are not touched.
    """
    moved = np.empty(room, dtype=dtype)
    moved[:rows] = codes[:rows]
    return moved


def _merge(
    keys: list, parts: list, codes: np.ndarray, rows: int, na: bytes
) -> tuple[_Keys, np.ndarray]:
    """A column's distinct keys and ``rows`` codes, from its blocks' keys, parts and codes.

    Each part holds a block's offset into ``keys``, its first row and its
    row count; ``codes`` holds each row's index from its block's offset.
    Equal keys share a width class, so one factorization per class
    (:func:`_factorize`) merges them; each block's keys are set to None in
    ``keys`` once concatenated. The empty key and ``na`` are missing,
    coded last. Where the merged codes have the dtype of ``codes``, one
    take per block remaps its rows in place, and the codes are a view of
    ``codes``' first ``rows``; otherwise the takes write a new array.
    """
    bounds = np.cumsum([0, *map(len, keys)])
    widths = [1 << (k.itemsize - 1).bit_length() for k in keys]
    code_of = np.empty(bounds[-1], dtype=np.int32)
    values: list[np.ndarray] = []
    kept_so_far = 0
    for width in sorted(set(widths)):
        same = [i for i, w in enumerate(widths) if w == width]
        merged = np.concatenate([keys[i] for i in same])
        for i in same:
            keys[i] = None
        distinct, inverse = _factorize(merged)
        del merged  # before the codes are built
        raw = distinct.view("S8") if distinct.dtype.kind == "u" else distinct
        kept = (raw != b"") & (raw != na)
        code = np.where(kept, kept_so_far + np.cumsum(kept, dtype=np.int32) - 1, -1)
        start = 0
        for i in same:  # the class's keys are its blocks', in block order
            block = code_of[bounds[i] : bounds[i + 1]]
            code.take(inverse[start : start + len(block)], out=block, mode="clip")
            start += len(block)
        if kept.any():
            values.append(raw[kept])
        kept_so_far += int(np.count_nonzero(kept))
    missing = code_of < 0
    code_of[missing] = kept_so_far
    code_of = code_of.astype(code_dtype(kept_so_far + missing.any()), copy=False)
    merged = codes if codes.dtype == code_of.dtype else np.empty(rows, dtype=code_of.dtype)
    for offset, first, count in parts:  # one take per block, into its own rows
        local = codes[first : first + count]
        code_of[offset:].take(local, out=merged[first : first + count], mode="clip")
    return _Keys(tuple(values), bool(missing.any())), merged[:rows]


def _size(stream: IO[bytes]) -> int | None:
    """How many bytes are left in a regular file's stream; None for any other, or if empty."""
    try:
        status = os.fstat(stream.fileno())
        left = status.st_size - stream.tell() if stat.S_ISREG(status.st_mode) else 0
    except (AttributeError, OSError, ValueError):  # no file descriptor, or none to seek
        return None
    return left if left > 0 else None


def _fill(stream: IO[bytes], view: memoryview) -> int:
    """Read into ``view`` until it is full or the stream ends; how many bytes were read."""
    got = 0
    while got < len(view) and (more := stream.readinto(view[got:])):
        got += more
    return got


def _blocks(stream: IO[bytes]) -> Iterator[tuple[bytearray, int]]:
    """The stream in blocks of about ``_BLOCK_BYTES``, each cut after its last newline.

    Each block is ``buffer[:end]`` of one ``bytearray`` that every read
    fills (``readinto``), as ``(buffer, end)``: the unread tail past the
    block is moved to the buffer's front for the next one, so no block is
    copied. At least 8 bytes follow each block. The caller may extend the
    buffer, and write past the last block, which alone may lack a final
    newline; it must hold no view of the buffer when it takes the next
    block.
    """
    buffer, filled = bytearray(_BLOCK_BYTES + 8), 0
    while True:
        if len(buffer) < filled + _BLOCK_BYTES + 8:  # a line longer than the reads so far
            buffer.extend(bytes(filled + _BLOCK_BYTES + 8 - len(buffer)))
        with memoryview(buffer) as view:
            got = _fill(stream, view[filled : filled + _BLOCK_BYTES])
        if not got:
            break
        end = buffer.rfind(b"\n", filled, filled + got) + 1
        filled += got
        if end:
            yield buffer, end
            buffer[: filled - end] = buffer[end:filled]
            filled -= end
    if filled:
        yield buffer, filled


def _tokenize(
    buffer: bytearray, start: int, end: int, delimiter: int, width: int | None
) -> tuple[np.ndarray, np.ndarray, bool] | None:
    """Split ``buffer[start:end]`` into fields with numpy, or None if csv.reader must parse it.

    Returns what :meth:`_Columns.add_fields` takes (see :func:`_split`),
    the header's fields included: the buffer from ``start`` as an array,
    and the block's separators' ``int32`` positions after a leading -1,
    its only array of a value per field. ``width`` is the number of columns,
    or None to take it from the first line. Returns None when the block
    holds a quote, CR or NUL byte or invalid UTF-8, when a line has a
    different number of fields (a blank line included), or when a field
    is longer than the csv field limit, which is checked on each line's
    length first and on the fields' only where a line is longer.

    Line shape is checked per line, not per field: the separators must
    number ``width`` times the newlines, which the newline mask counts,
    and every ``width``-th separator must be a newline. Then no other
    separator is one, so every line holds ``width`` fields. The header
    block's ``width`` is one more than its first line's delimiters.
    """
    if any(buffer.find(byte, start, end) >= 0 for byte in b'"\r\0'):
        return None
    if end == start or buffer[end - 1] != 10:  # the last line lacks a newline
        buffer[end] = 10  # in the room that _blocks leaves past each block
        end += 1
    data = np.frombuffer(buffer, dtype=np.uint8, count=end - start, offset=start)
    if data.max() >= 0x80:
        try:
            str(memoryview(buffer)[start:end], "utf-8")  # no newline falls inside a character
        except UnicodeDecodeError:
            return None
    mask = data == 10
    lines = np.count_nonzero(mask)
    mask |= data == delimiter
    bounds = _bounds(mask)
    del mask
    if width is None:
        width = buffer.count(delimiter, start, buffer.index(b"\n", start)) + 1
    # width fields a line and a newline at every width-th separator: no other newline is left
    if len(bounds) - 1 != width * lines or not (data[bounds[width::width]] == 10).all():
        return None
    del data  # _split may extend the buffer, which no view of it may be left to hold
    records, limit = _record_bytes(bounds, width), csv.field_size_limit()
    if width == 1 and not records.all():  # a blank line
        return None
    if records.max() > limit and (np.diff(bounds) - 1).max() > limit:
        return None
    return _split(buffer, start, end, bounds, width, b"\n" + bytes([delimiter]))


def _bounds(mask: np.ndarray) -> np.ndarray:
    """-1, then the position of every separator that ``mask`` marks: int32 below 2 GiB.

    Taken ``_SCAN_BYTES`` of the mask at a time, so no ``int64``
    position array covers the whole of it.
    """
    dtype = np.int32 if len(mask) < 1 << 31 else np.int64  # from_rows may join more
    bounds = np.empty(np.count_nonzero(mask) + 1, dtype=dtype)
    bounds[0], at = -1, 1
    for lo in range(0, len(mask), _SCAN_BYTES):
        found = np.flatnonzero(mask[lo : lo + _SCAN_BYTES])
        np.add(found, lo, out=bounds[at : at + len(found)], casting="unsafe")
        at += len(found)
    return bounds


def _record_bytes(bounds: np.ndarray, width: int) -> np.ndarray:
    """Each record's bytes, its inner separators included: no field of it is longer."""
    return bounds[width::width] - bounds[:-1:width] - 1


def _split(
    buffer: bytearray, start: int, end: int, bounds: np.ndarray, width: int, separators: bytes
) -> tuple[np.ndarray, np.ndarray, bool]:
    """What :meth:`_Columns.add_fields` takes: ``buffer`` from ``start`` as an array, bounds, trim.

    Field k of ``buffer[start:end]``, row by row, lies after ``bounds[k]``
    and ends at ``bounds[k + 1]``, where one of ``separators`` is;
    ``width`` fields make a record. The buffer is extended, if need be, so
    that the longest record's bytes, and at least 8, follow ``end``: a key
    read from any field's start stays in it. They need not be zeros, as
    :func:`_field_keys` masks each key by its length. Trim is whether
    ``buffer[start:end]`` holds ASCII whitespace that is not a separator.
    """
    room = end + max(8, int(_record_bytes(bounds, width).max()))
    if len(buffer) < room:
        buffer.extend(bytes(room - len(buffer)))
    # a scan per whitespace byte costs far less than _trim's gather per field
    white = [byte for byte in _ASCII_WS.encode() if byte not in separators]
    trim = any(buffer.find(byte, start, end) >= 0 for byte in white)
    return np.frombuffer(buffer, dtype=np.uint8)[start:], bounds, trim


def _trim(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
    """Move the fields' starts and lengths past leading and trailing ASCII whitespace, in place.

    Reads a byte at each edge of every field, and about the whitespace
    at the edges beyond that; no run is followed past its field's end.
    No whitespace byte occurs inside a UTF-8 character.
    """

    def white(data: np.ndarray) -> np.ndarray:  # the bytes of _ASCII_WS: space, and 9-13
        return (data == 32) | (data - np.uint8(9) < 5)

    for leading in (True, False):
        # while over an eighth of the fields have whitespace at this edge, cut a byte off
        # each, over whole arrays
        while 8 * np.count_nonzero(
            cut := white(buf.take(starts if leading else starts + lengths - 1)) & (lengths > 0)
        ) > len(cut):
            if leading:
                starts += cut
            lengths -= cut
        # then the few, through a window at the edge that doubles while it holds only whitespace
        fields, window = np.flatnonzero(cut), 1
        while len(fields):
            ahead = np.arange(window, dtype=starts.dtype)
            edge = starts[fields] if leading else starts[fields] + lengths[fields] - 1
            inside = white(buf.take(edge[:, None] + (ahead if leading else -ahead), mode="clip"))
            inside &= ahead < lengths[fields, None]  # clipped or past the field: not its bytes
            run = np.where(inside.all(axis=1), window, inside.argmin(axis=1)).astype(starts.dtype)
            if leading:
                starts[fields] += run
            lengths[fields] -= run
            fields, window = fields[run == window], 2 * window


def _field_keys(
    buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, shortest: int, longest: int
) -> np.ndarray:
    """One key per field, its bytes zero-padded: uint64 up to 8 bytes, ``S{w}`` above.

    Every length lies from ``shortest`` to ``longest``, which sets the
    key's width. When the two are equal, every key takes one mask, with
    no gather over the lengths.
    """
    if longest <= 8:
        # element i holds the 8 bytes from buf[i] on, little-endian, so keys keep byte order
        eights = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
        keys = eights[starts]
        keys &= _LOW_BYTES[longest] if shortest == longest else _LOW_BYTES.take(lengths)
        return keys
    keys = sliding_window_view(buf, longest)[starts]
    if shortest < longest:
        keys[np.arange(longest) >= lengths[:, None]] = 0
    return keys.view(f"S{longest}").ravel()


def ingest_delimited(source: bytes | IO[bytes], options: IngestOptions | None = None) -> Table:
    """Parse RFC-4180-style delimited text into a :class:`Table`.

    ``source`` is a byte string or a binary stream, read with ``readinto``;
    UTF-8 only, with a BOM stripped if present. Empty fields and the
    sentinel become missing. The stream is read in blocks, split by numpy
    or a strict ``csv.reader`` as the module docstring tells, and each
    column is factorized on byte keys as it is read, so no cell is kept as
    its own string.

    Raises :class:`IngestError` for undecodable bytes, an empty input
    or header, duplicate or empty header names, records the strict csv
    parser rejects (a field over its size limit, a quote left open at
    the end of the input, text after a closing quote) and ragged rows
    (``row`` carries the 1-based record number, counting the header as
    record 1). Of several faults, the first in record order is raised.
    Invalid UTF-8 is reported with its byte offset and line in the input.
    """
    opts = options or IngestOptions()

    stream = io.BytesIO(source) if isinstance(source, bytes) else source
    size = len(source) if isinstance(source, bytes) else _size(stream)
    blocks = _blocks(stream)
    columns: _Columns | None = None
    offset = 0  # in the input, of the next block
    refused: list[bytes] = []  # the block csv.reader starts at
    for buffer, end in blocks:
        start = len(_BOM) if not offset and buffer.startswith(_BOM, 0, end) else 0
        width = None if columns is None else len(columns.names)
        fields = None
        if opts.delimiter.isascii():
            fields = _tokenize(buffer, start, end, ord(opts.delimiter), width)
        if fields is None:
            offset += start
            refused.append(bytes(memoryview(buffer)[start:end]))
            break
        buf, bounds, trim = fields
        if columns is None:
            header = buffer[start : buffer.index(b"\n", start)].decode("utf-8")
            columns = _Columns(_header_names(header.split(opts.delimiter)), size)
            bounds = bounds[len(columns.names) :]
        offset += end
        columns.read = offset
        if len(bounds) > 1:
            columns.add_fields(buf, bounds, trim)
        del buffer, fields, buf, bounds  # before the next block is read into the buffer
    if columns is not None and not refused:  # numpy split every block; the buffer is freed
        return columns.table(opts.table_name, _key(opts.na_token))

    line = 1 if columns is None else columns.next_record  # numpy reads one record per line
    rest = (bytes(memoryview(buffer)[:end]) for buffer, end in blocks)
    lines = _lines(chain(refused, rest), offset, line)
    records = csv.reader(lines, delimiter=opts.delimiter, strict=True)
    if columns is None:
        header, fault = _take(records, 1, 1)
        if fault:
            raise fault
        columns = _Columns(_header_names(header[0] if header else None), size)
    while True:
        chunk, fault = _take(records, _CHUNK_RECORDS, columns.next_record)
        columns.add_records(chunk)  # a ragged row before the fault is the first fault
        if fault:
            raise fault
        if len(chunk) < _CHUNK_RECORDS:
            return columns.table(opts.table_name, _key(opts.na_token))


def _lines(blocks: Iterable[bytes], offset: int, line: int) -> Iterator[str]:
    """The lines of ``blocks``, each block decoded on its own.

    Blocks end on a newline, so no UTF-8 character and no CRLF spans two.
    Lines end on CR, LF or CRLF, as csv.reader expects. The first block
    starts at byte ``offset`` of the input, on its line ``line``
    (1-based). Invalid UTF-8 ends the lines, after every line before it.
    """
    for block in blocks:
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = block[: exc.start]
            whole = max(before.rfind(b"\n"), before.rfind(b"\r")) + 1  # the lines before its own
            yield from io.StringIO(before[:whole].decode("utf-8"), newline="")
            raise IngestError(
                f"input is not valid UTF-8 at byte {offset + exc.start} "
                f"(line {line + _line_breaks(before)}): {exc.reason}"
            ) from None
        yield from io.StringIO(text, newline="")
        offset += len(block)
        line += _line_breaks(block)


def _line_breaks(data: bytes) -> int:
    """How many CR, LF and CRLF line endings ``data`` holds."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
