from __future__ import annotations

import contextlib
import csv
import io
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qi_sentry.table as table_module
from qi_sentry import IngestError, IngestOptions, NoSuchColumn, Table, ingest_delimited
from qi_sentry.cli import main
from qi_sentry.generate import (
    MAX_DISTINCT_VALUES,
    ColumnSpec,
    SyntheticSpec,
    _symbols,
    generate_table,
)
from qi_sentry.table import _Keys, canonicalize, code_dtype

from conftest import column_of, traced_peak, twin_of

DEMO_CSV = b"""Weight,Age,Gender,Zipcode
72,45,M,75145
72,45,M,75145
58,21,M,47853
45,21,F,47853
45,64,F,47853
"""


def test_ingest_demo():
    table = ingest_delimited(DEMO_CSV, IngestOptions(table_name="demo"))
    assert table.row_count == 5
    assert table.column_names == ("Weight", "Age", "Gender", "Zipcode")
    assert table.column_values("Weight") == ("72", "72", "58", "45", "45")


def test_ingest_accepts_binary_stream():
    table = ingest_delimited(io.BytesIO(DEMO_CSV))
    assert table.row_count == 5


def test_header_only_file_gives_empty_table():
    table = ingest_delimited(b"a,b,c\n")
    assert table.row_count == 0
    assert table.column_names == ("a", "b", "c")


def test_ragged_row_reports_record_number():
    data = b"a,b,c,d\n1,2,3,4\n1,2,3\n"
    with pytest.raises(IngestError) as exc:
        ingest_delimited(data)
    assert exc.value.row == 3  # header is record 1


def test_ragged_row_in_a_later_chunk_reports_record_number(monkeypatch):
    monkeypatch.setattr(table_module, "_CHUNK_RECORDS", 3)
    data = b"a,b\n" + b"1,2\n" * 7 + b"1\n" + b"1,2\n" * 3
    with pytest.raises(IngestError) as exc:
        ingest_delimited(data)
    assert exc.value.row == 9
    assert "(record 9)" in str(exc.value)


@pytest.mark.parametrize("chunk", [3, 4096])
def test_oversized_field_is_an_ingest_error_with_record_number(monkeypatch, chunk):
    monkeypatch.setattr(table_module, "_CHUNK_RECORDS", chunk)
    data = b"a,b\n" + b"1,2\n" * 5 + b"1," + b"x" * 200_000 + b"\n1,2\n"
    with pytest.raises(IngestError) as exc:
        ingest_delimited(data)
    assert exc.value.row == 7
    assert "field larger than field limit" in str(exc.value)


def test_oversized_header_field_is_record_1():
    with pytest.raises(IngestError) as exc:
        ingest_delimited(b"a," + b"x" * 200_000 + b"\n1,2\n")
    assert exc.value.row == 1


def test_unterminated_quote_is_an_ingest_error():
    # a lenient parser would read one row whose b cell is the rest of the file
    with pytest.raises(IngestError) as exc:
        ingest_delimited(b'a,b\n1,"x\n2,3\n4,5\n')
    assert exc.value.row == 2
    assert "unexpected end of data" in str(exc.value)


def test_text_after_a_closing_quote_is_an_ingest_error():
    with pytest.raises(IngestError) as exc:
        ingest_delimited(b'a,b\n1,2\n1,"x"y\n')
    assert exc.value.row == 3


def test_quotes_inside_an_unquoted_field_are_kept():
    table = ingest_delimited(b'a,b\n1,x"y\n2,"q""r"\n')
    assert table.cells[1] == ('x"y', 'q"r')


def test_ingest_leaves_the_callers_stream_open():
    stream = io.BytesIO(DEMO_CSV)
    ingest_delimited(stream)
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == DEMO_CSV


def test_duplicate_header_names_rejected_case_insensitively():
    with pytest.raises(IngestError):
        ingest_delimited(b"id,ID\n1,2\n")


def test_zero_columns_rejected():
    with pytest.raises(IngestError):
        ingest_delimited(b"")


@pytest.mark.parametrize("block", [1, 1 << 20])
def test_a_blank_first_line_is_an_empty_header_at_record_1(monkeypatch, block):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", block)
    with pytest.raises(IngestError) as exc:
        ingest_delimited(b"\nx,y\n1,2\n")
    assert exc.value.row == 1
    assert str(exc.value) == "no columns: header is empty (record 1)"
    with pytest.raises(IngestError) as exc:
        ingest_delimited(b"")
    assert exc.value.row is None
    assert str(exc.value) == "no columns: input is empty"


def test_missing_values_from_empty_fields_and_sentinel():
    table = ingest_delimited(b"a,b\nNA,\nx,y\n")
    assert table.column_values("a") == (None, "x")
    assert table.column_values("b") == (None, "y")


def test_custom_na_token():
    table = ingest_delimited(b"a\nNA\nnull\n", IngestOptions(na_token="null"))
    assert table.column_values("a") == ("NA", None)


def test_cells_are_trimmed_and_whitespace_only_is_missing():
    table = ingest_delimited(b"a,b\n  72 ,\t\n")
    assert table.column_values("a") == ("72",)
    assert table.column_values("b") == (None,)


def test_bom_is_stripped():
    table = ingest_delimited(b"\xef\xbb\xbfa,b\n1,2\n")
    assert table.column_names == ("a", "b")


def test_non_utf8_input_rejected():
    with pytest.raises(IngestError):
        ingest_delimited(b"a,b\n\xff\xfe,2\n")


def test_quoted_fields_keep_delimiters():
    table = ingest_delimited(b'a,b\n"1,5",2\n')
    assert table.column_values("a") == ("1,5",)


def test_custom_delimiter():
    table = ingest_delimited(b"a\tb\n1\t2\n", IngestOptions(delimiter="\t"))
    assert table.column_values("b") == ("2",)


def test_column_values_unknown_column(demo_table):
    with pytest.raises(NoSuchColumn):
        demo_table.column_values("Height")


def test_column_values_is_case_insensitive(demo_table):
    assert demo_table.column_values("gender") == ("M", "M", "M", "F", "F")
    assert demo_table.column_values("GENDER")[0] == "M"


def test_column_values_on_empty_table():
    table = ingest_delimited(b"a,b\n")
    assert table.column_values("a") == ()


def test_ingest_is_deterministic():
    assert ingest_delimited(DEMO_CSV) == ingest_delimited(DEMO_CSV)


def test_round_trip_preserves_table():
    options = IngestOptions(table_name="t")
    table = ingest_delimited(b"a,b\nNA,2\n x , NA \n7,\n", options)
    again = ingest_delimited(table.to_delimited(options).encode(), options)
    assert again == table


def test_round_trip_quotes_tricky_values():
    options = IngestOptions(table_name="t")
    table = Table.from_rows("t", ["a"], [['he said "hi", twice'], [None]])
    again = ingest_delimited(table.to_delimited(options).encode(), options)
    assert again.cells == table.cells


def test_canonicalize_trims_ascii_whitespace_only():
    assert canonicalize("  72\t") == "72"
    assert canonicalize("\x0c x \x0b") == "x"
    # non-ASCII whitespace is data, not padding
    assert canonicalize("\u00a0x") == "\u00a0x"


def test_canonicalize_empty_is_missing():
    assert canonicalize("") is None
    assert canonicalize("   ") is None


def test_canonicalize_is_idempotent():
    for raw in [" a ", "a", "", "  ", "a b", "\tNA\t"]:
        once = canonicalize(raw)
        assert once is None or canonicalize(once) == once


def test_table_rejects_mismatched_column_lengths():
    with pytest.raises(ValueError, match=r"column 'b' has uint8 codes of shape \(1,\)"):
        Table._from_keys("t", [("a", _Keys((np.array([b"1", b"2"]),), False), np.array([0, 1])),
                               ("b", _Keys((np.array([b"1"]),), False), np.array([0]))])


def test_table_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Table.from_rows("t", ["a", "A"], [["1", "2"]])


def test_table_rejects_no_columns():
    # written as a blank line, which reads back as an empty header
    with pytest.raises(ValueError, match="no columns"):
        Table.from_rows("t", [], [])


@pytest.mark.parametrize("name", ["", " x", "x ", "\tx", "x\r\n", "\x0bx\x0c"])
def test_table_rejects_a_column_name_that_is_empty_or_has_whitespace_at_an_edge(name):
    # written as is, it would read back trimmed, as another name
    with pytest.raises(ValueError, match="whitespace at an edge"):
        Table.from_rows("t", [name], [["1"]])


def test_from_rows_canonicalizes():
    table = Table.from_rows("t", ["a"], [[" 1 "], [""]])
    assert table.column_values("a") == ("1", None)


def test_delimiter_must_be_single_char():
    with pytest.raises(IngestError):
        ingest_delimited(b"a\n1\n", IngestOptions(delimiter=",,"))


def test_columns_store_each_distinct_value_once(demo_table):
    position = demo_table.position_of("Weight")
    assert sorted(demo_table.values[position]) == ["45", "58", "72"]
    codes = demo_table.codes[position]
    assert codes.dtype == "uint8"
    assert [demo_table.values[position][c] for c in codes] == ["72", "72", "58", "45", "45"]


def test_ingest_holds_codes_and_keys_until_values_are_read():
    # per row: a uint16 code and an 8-byte key come to 10 B; a decoded
    # value adds a str of at least 56 B
    n = 50_000
    data = b"k\n" + b"".join(b"k%07d\n" % i for i in range(n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = ingest_delimited(data)
        ingested = tracemalloc.get_traced_memory()[0] - before
        assert table.cardinality(0) == n
        values = table.values
        decoded = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 8 * n <= ingested < 32 * n
    assert decoded - ingested >= 56 * n
    assert sorted(values[0]) == [f"k{i:07d}" for i in range(n)]


def test_table_rejects_codes_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"codes of shape \(2,\), expected uint8 of shape \(3,\)"):
        Table(
            name="t",
            columns=(table_module.ColumnMeta("a"),),
            distinct=(_Keys((np.array([b"x"]),), False),),
            codes=(np.zeros(2, dtype="int32"),),
            row_count=3,
        )


def test_tables_built_in_different_orders_compare_equal():
    # the generator orders its symbols by number, ingest and from_rows by key
    generated = generate_table(SyntheticSpec(200, (ColumnSpec("a", 30),), seed=5))
    options = IngestOptions(table_name=generated.name)
    ingested = ingest_delimited(generated.to_delimited().encode(), options)
    by_rows = Table.from_rows(generated.name, ["a"], zip(*generated.cells))
    assert generated.values[0][10:12] == ("v10", "v11")  # in the order of their numbers
    assert ingested.values[0][10:12] == ("v10", "v20")  # in the order of little-endian keys
    assert by_rows.values == ingested.values
    assert generated == by_rows == ingested
    assert by_rows != Table.from_rows(generated.name, ["a"], list(zip(*generated.cells))[::-1])


def test_from_rows_accepts_inner_whitespace_and_one_missing_value():
    table = Table.from_rows("t", ["a"], [["a\tb"], [None], [" x y "], [""]])
    assert table.cells == (("a\tb", None, "x y", None),)
    assert table.cardinality(0) == 3


# -- one form of distinct values: byte keys ------------------------------------

@pytest.mark.parametrize("build", ["from_rows", "ingest", "generate_table"])
def test_every_table_keeps_its_distinct_values_as_byte_keys(build):
    rows = [["x", None], ["é", "y" * 20], ["x", "z"]]
    table = {
        "from_rows": lambda: Table.from_rows("t", ["a", "b"], rows),
        "ingest": lambda: ingest_delimited(f"a,b\nx,\né,{'y' * 20}\nx,z\n".encode()),
        "generate_table": lambda: generate_table(
            SyntheticSpec(3, (ColumnSpec("a", 2), ColumnSpec("b", 3)))
        ),
    }[build]()
    for keys in table.distinct:
        assert type(keys) is _Keys
        assert all(k.dtype.kind == "S" for k in keys.kept)


def test_from_rows_codes_a_missing_value_last_wherever_it_is_first_seen():
    # as ingest orders them: by width class, the 9-byte value in a wider one, then by key
    cells = ("z", None, "x", "y" * 9, None, "z")
    table = Table.from_rows("t", ["a"], [[cell] for cell in cells])
    assert table.cells == (cells,)
    assert table.values == (("x", "z", "y" * 9, None),)
    assert table.codes[0].tolist() == [1, 3, 0, 2, 3, 1]
    assert table.cardinality(0) == 4


@pytest.mark.parametrize("value", [
    "한글", "\ud7a3", "\ud000",  # Hangul, whose UTF-8 starts with 0xed, as a surrogate's would
    "x\0",  # NUL, keyed as 0xfe
])
def test_lone_surrogates_and_hangul_read_back_as_themselves(value):
    # a lone surrogate does not read back: from_rows refuses it (see below)
    table = Table.from_rows("t", ["a"], [[value], ["x"], [value]])
    assert sorted(table.values[0]) == sorted([value, "x"])
    assert table.cells == ((value, "x", value),)


@pytest.mark.parametrize("value", ["x\udcff", "\udced", "\ud800x\udfff", "\ud83d\ude00"])
def test_from_rows_refuses_a_cell_or_column_name_that_utf8_cannot_encode(value):
    # no UTF-8 file holds a lone surrogate, so such a table could not be written to read back
    with pytest.raises(UnicodeEncodeError):
        Table.from_rows("t", ["a"], [["x"], [value]])
    with pytest.raises(ValueError) as exc:
        Table.from_rows("t", ["a", value], [["x", "y"]])
    assert str(exc.value) == f"column name {value!r} cannot be encoded in UTF-8"


def test_a_long_value_widens_only_its_own_width_class():
    # one S{w} array would pad the 10k short values to 10 kB each, about 100 MB
    rows = [[f"s{i}"] for i in range(10_000)] + [["x" * 10_000]]
    table = Table.from_rows("t", ["a"], rows)
    assert sum(k.nbytes for k in table.distinct[0].kept) < 1 << 20
    assert table.column_values("a") == tuple(row[0] for row in rows)


# -- ingest against the former cell-by-cell parser ----------------------------

def reference_ingest(data: bytes, opts: IngestOptions) -> tuple[tuple[str, ...], tuple]:
    """Column names and cells, parsed the way ingest did before it factorized:

    one canonicalized string per cell from a plain csv.reader loop.
    """
    text = io.StringIO(data.decode("utf-8-sig"), newline="")  # as csv asks files be opened
    records = csv.reader(text, delimiter=opts.delimiter)
    names = [cell.strip(" \t\r\n\x0b\x0c") for cell in next(records)]
    cols: list[list] = [[] for _ in names]
    for record in records:
        assert len(record) == len(names)
        for col, cell in zip(cols, record):
            value = canonicalize(cell)
            col.append(None if value == opts.na_token else value)
    return tuple(names), tuple(tuple(col) for col in cols)


# padding, spellings of missing, quoted delimiters, quotes and newlines
TRICKY = ["a", " a", "a\t", "NA", " NA ", "null", "", "  ", "x,y", "x;y", "x\ty",
          'q"t', "l1\nl2", "r\r\nn", "\u00a0x", "\u00e9"]
CELL_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
# long cells reach the wider key classes: 17-40 characters, or a few hundred bytes,
# each with or without whitespace at its edges
LONG_CELL = st.builds(
    lambda before, text, after: before + text + after,
    st.sampled_from(["", " ", "\t "]),
    st.text(CELL_CHARS, min_size=17, max_size=40)
    | st.builds(lambda text, times: text * times, st.text(CELL_CHARS, min_size=1, max_size=3),
                st.integers(70, 200)),
    st.sampled_from(["", "  ", "\t"]),
)
CELL_TEXT = st.one_of(st.sampled_from(TRICKY), st.text(CELL_CHARS, max_size=4), LONG_CELL)


def to_bytes(header, rows, delimiter: str, bom: bool, lineterminator: str = "\r\n") -> bytes:
    out = io.StringIO()
    # "\r\n" endings quote both \r and \n; "\n" endings quote only \n, so
    # under them a bare \r in a cell is written as \n
    if lineterminator == "\n":
        rows = [[cell.replace("\r", "\n") for cell in row] for row in rows]
    writer = csv.writer(out, delimiter=delimiter, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(rows)
    return (b"\xef\xbb\xbf" if bom else b"") + out.getvalue().encode("utf-8")


@st.composite
def delimited_inputs(draw):
    n_cols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(CELL_TEXT, min_size=n_cols, max_size=n_cols), max_size=14))
    header = [f"{draw(st.sampled_from(['', ' ']))}c{j}" for j in range(n_cols)]
    opts = IngestOptions(
        delimiter=draw(st.sampled_from([",", "\t", ";"])),
        table_name="t",
        na_token=draw(st.sampled_from(["NA", "null"])),
    )
    data = to_bytes(header, rows, opts.delimiter, draw(st.booleans()),
                    draw(st.sampled_from(["\r\n", "\n"])))
    return data, opts


def assert_matches_reference(data: bytes, opts: IngestOptions) -> None:
    table = ingest_delimited(data, opts)
    cardinalities = [table.cardinality(p) for p in range(len(table.columns))]
    assert "values" not in vars(table)  # taking the cardinalities decoded nothing
    names, cells = reference_ingest(data, opts)
    assert table.column_names == names
    assert table.cells == cells
    assert table.row_count == (len(cells[0]) if cells else 0)
    assert Table.from_rows("t", names, list(zip(*cells))) == table
    assert cardinalities == [len(values) for values in table.values]
    for values, codes in zip(table.values, table.codes):
        assert len(set(values)) == len(values)
        assert (np.bincount(codes, minlength=len(values)) > 0).all()


@settings(max_examples=400, deadline=None)
@given(delimited_inputs(), st.integers(1, 5), st.integers(1, 24))
def test_ingest_matches_reference_parser(case, chunk, block):
    data, opts = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table_module, "_CHUNK_RECORDS", chunk)  # many chunks per input
        # many blocks per input, so numpy takes the quote-free ones until a quote
        # sends the rest to csv.reader
        patch.setattr(table_module, "_BLOCK_BYTES", block)
        assert_matches_reference(data, opts)


def test_ingest_matches_reference_parser_beyond_one_chunk():
    rng = random.Random(4097)
    rows = [[rng.choice(TRICKY) for _ in range(3)] for _ in range(2 * 4096 + 17)]
    data = to_bytes(["a", "b", "c"], rows, ",", bom=True)
    assert_matches_reference(data, IngestOptions(table_name="t"))


# -- the numpy tokenizer and its hand-over to csv.reader ----------------------

def spy_tokenize(patch: pytest.MonkeyPatch) -> list[bool]:
    """One entry per block offered to the numpy tokenizer: True if it split it."""
    outcomes: list[bool] = []
    tokenize = table_module._tokenize

    def spy(*args):
        fields = tokenize(*args)
        outcomes.append(fields is not None)
        return fields

    patch.setattr(table_module, "_tokenize", spy)
    return outcomes


@pytest.fixture
def tokenized(monkeypatch):
    return spy_tokenize(monkeypatch)


def test_ingest_matches_reference_parser_over_many_numpy_blocks(monkeypatch, tokenized):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 4096)
    rng = random.Random(8209)
    plain = [cell for cell in TRICKY if not set(cell) & set(',"\r\n')]
    rows = [[rng.choice(plain) for _ in range(3)] for _ in range(2 * 4096 + 17)]
    rows[-5][1] = "x,y"  # quoted: the last block goes to csv.reader mid-chunk
    data = to_bytes(["a", "b", "c"], rows, ",", bom=True, lineterminator="\n")
    assert_matches_reference(data, IngestOptions(table_name="t"))
    assert len(tokenized) > 10 and all(tokenized[:-1]) and not tokenized[-1]


PLAIN_LINES = [b"%d,x%d,y\n" % (i, i % 3) for i in range(40)]


@pytest.mark.parametrize("block", [1 << 20, 64])
@pytest.mark.parametrize("fault, record, message", [
    (b"1,2\n", 32, "ragged row: 2 fields, expected 3"),
    (b"\n", 32, "ragged row: 0 fields, expected 3"),
    (b"1,2," + b"x" * 200_000 + b"\n", 32, "field larger than field limit"),
    (b"1,\xff\xfe,3\n", None, "not valid UTF-8"),
])
def test_fault_in_a_quote_free_block_is_reported_by_csv_reader(
    monkeypatch, tokenized, block, fault, record, message
):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", block)
    data = b"a,b,c\n" + b"".join(PLAIN_LINES[:30]) + fault + b"".join(PLAIN_LINES[30:])
    with pytest.raises(IngestError) as exc:
        ingest_delimited(data)
    assert exc.value.row == record
    assert message in str(exc.value)
    # in 64-byte blocks the fault is in a later block, after numpy split the first ones
    assert tokenized[-1] is False
    assert any(tokenized) == (block == 64)


# each input holds as many separators as its lines times its width, so a count of the
# separators alone would keep it on the numpy path
BALANCED_FAULTS = [
    (b"a,b,c\n1,2,3\n", b"1,2,3,4\n1,2\n4,5,6\n", "ragged row: 4 fields, expected 3 (record 3)"),
    (b"a,b,c\n1,2,3\n", b"1,2\n1,2,3,4\n4,5,6\n", "ragged row: 2 fields, expected 3 (record 3)"),
    (b"a\n1\n", b"\n2\n", "ragged row: 0 fields, expected 1 (record 3)"),
    (b"a,b\n1,2\n", b"\n1,2,3\n", "ragged row: 0 fields, expected 2 (record 3)"),
    (b"a,b,c\n1,2,3\n", b"1,2,3,4\n1,2", "ragged row: 4 fields, expected 3 (record 3)"),
]


@pytest.mark.parametrize("whole", [True, False])
@pytest.mark.parametrize("head, rest, message", BALANCED_FAULTS)
def test_lines_whose_separators_balance_are_still_read_by_csv_reader(
    monkeypatch, tokenized, whole, head, rest, message
):
    data = head + rest
    width = head.count(b",", 0, head.index(b"\n")) + 1
    lines = data.count(b"\n") + (not data.endswith(b"\n"))
    assert data.count(b",") + lines == width * lines
    # in one block, or the header and first row in one and the rest in the next
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 1 << 20 if whole else len(head))
    with pytest.raises(IngestError) as exc:
        ingest_delimited(data)
    assert (str(exc.value), exc.value.row) == (message, 3)
    assert tokenized == ([False] if whole else [True, False])


PLAIN_CELL = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters='\0\r\n",;\t'), max_size=3
)


@st.composite
def swapped_inputs(draw):
    """A quote-free LF input, its body with one delimiter and one newline swapped."""
    n_cols = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(PLAIN_CELL, min_size=n_cols, max_size=n_cols), min_size=1,
                         max_size=14))
    delimiter = draw(st.sampled_from([",", "\t", ";"]))
    body = bytearray("".join(delimiter.join(row) + "\n" for row in rows).encode())
    at_delimiter = draw(st.sampled_from([i for i, b in enumerate(body) if b == ord(delimiter)]))
    at_newline = draw(st.sampled_from([i for i, b in enumerate(body) if b == 10]))
    body[at_delimiter], body[at_newline] = body[at_newline], body[at_delimiter]
    header = delimiter.join(f"c{j}" for j in range(n_cols)) + "\n"
    return header.encode() + bytes(body), IngestOptions(delimiter=delimiter, table_name="t")


@settings(max_examples=300, deadline=None)
@given(swapped_inputs(), st.sampled_from([8, 24, 1 << 20]))
def test_a_swapped_delimiter_and_newline_reads_as_the_reference_or_its_ragged_row(case, block):
    data, opts = case
    names = data[: data.index(b"\n")].split(opts.delimiter.encode())
    body = io.StringIO(data.decode()[data.index(b"\n") + 1 :], newline="")
    ragged = [
        (i + 2, len(record))
        for i, record in enumerate(csv.reader(body, delimiter=opts.delimiter))
        if len(record) != len(names)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table_module, "_BLOCK_BYTES", block)
        tokenized = spy_tokenize(patch)
        if not ragged:
            assert_matches_reference(data, opts)
            assert all(tokenized)
            return
        with pytest.raises(IngestError) as exc:
            ingest_delimited(data, opts)
    record, fields = ragged[0]
    assert str(exc.value) == f"ragged row: {fields} fields, expected {len(names)} (record {record})"
    assert tokenized[-1] is False


def test_quote_in_a_later_block_hands_the_rest_to_csv_reader(monkeypatch, tokenized):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 64)
    data = b"a,b\n" + b"1,x\n" * 40 + b'2,"y,\n z"\n' + b"3,x\n" * 40
    table = ingest_delimited(data)
    assert table.column_values("b") == ("x",) * 40 + ("y,\n z",) + ("x",) * 40
    assert tokenized[0] and tokenized[-1] is False


def test_csv_reader_taking_over_mid_chunk_reports_the_same_fault_first(monkeypatch, tokenized):
    # rows 0-4 take the numpy path in one-line blocks; csv.reader starts at row 5, and
    # its chunks still end where a csv-only parse ends them (rows 4-7, 8-11), so the
    # ragged row 6 is found before the oversized field in row 8
    monkeypatch.setattr(table_module, "_CHUNK_RECORDS", 4)
    data = (b"a,b\n" + b"1,2\n" * 5 + b'"q",2\n' + b"1\n" + b"1,2\n"
            + b"1," + b"x" * 200_000 + b"\n")
    faults = []
    for block in (1 << 20, 1):
        monkeypatch.setattr(table_module, "_BLOCK_BYTES", block)
        with pytest.raises(IngestError) as exc:
            ingest_delimited(data)
        faults.append(str(exc.value))
    assert faults == ["ragged row: 1 fields, expected 2 (record 8)"] * 2
    assert tokenized == [False] + [True] * 6 + [False]


RAGGED_3 = "ragged row: 1 fields, expected 2 (record 3)"


def test_ragged_row_before_a_malformed_record_in_one_chunk_is_reported():
    with pytest.raises(IngestError) as exc:
        ingest_delimited(b'a,b\n1,2\n1\n"x"y,2\n')
    assert (exc.value.row, str(exc.value)) == (3, RAGGED_3)


def test_ragged_row_before_a_malformed_record_after_the_hand_over_is_reported(
    monkeypatch, tokenized
):
    # one-line blocks: numpy reads the header and rows 0-4, csv.reader starts at row 5
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 1)
    with pytest.raises(IngestError) as exc:
        ingest_delimited(b"a,b\n" + b"1,2\n" * 5 + b'"q",2\n' + b"1\n" + b'"x"y,2\n')
    assert (exc.value.row, str(exc.value)) == (8, "ragged row: 1 fields, expected 2 (record 8)")
    assert tokenized == [True] * 6 + [False]
    assert 5 % table_module._CHUNK_RECORDS


def test_ragged_row_over_8_kib_before_invalid_utf8_in_one_chunk_is_reported():
    data = b"a,b\n1,2\n1\n" + b"3,4\n" * 3000 + b"\xff,2\n"
    assert 3003 < table_module._CHUNK_RECORDS
    with pytest.raises(IngestError) as exc:
        ingest_delimited(data)
    assert (exc.value.row, str(exc.value)) == (3, RAGGED_3)


# "§" is UTF-8 C2 A7, "é" is C3 A9 and "運" is E9 81 8B. Searched for as
# the byte ord(delimiter), "§" would split inside "§" itself, "é" would
# leave "aéb" and "1é2" whole and would split inside "運".
NON_ASCII_DELIMITED = [
    ("§", "a§b\n1§運\n運§2\n"),
    ("é", "aéb\n1é2\n"),
    ("é", "a運éb\n運é1\n2é運\n"),
    ("é", "aébéc\n運é\"xéy\"é\n1é2é3\n"),
]


@pytest.mark.parametrize("delimiter, text", NON_ASCII_DELIMITED)
def test_non_ascii_delimiter_ingests_as_the_reference(delimiter, text):
    assert_matches_reference(text.encode(), IngestOptions(delimiter=delimiter, table_name="t"))


def test_score_on_a_non_ascii_delimited_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes("a運éb\nx運é1\ny運é1\nz運é2\n".encode())
    rules = tmp_path / "rules.json"
    rules.write_text('{"default": "QI"}')
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["score", "--input", str(path), "--rules", str(rules), "--delimiter", "é",
                     "--format", "tsv"])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().splitlines() == [
        "table\tcolumn\tuniqueness\tinfluence\tsum",
        "t\ta運\t1.0000\t0.3333\t1.3333",
        "t\tb\t0.3333\t0.0000\t0.3333",
    ]


@pytest.mark.parametrize("data", [b"a,b\n1,2\n3,4", b"a,b\n", b"a,b", b"a\n1\n\xc3\xa9"])
def test_numpy_path_without_a_final_newline_or_rows(tokenized, data):
    assert_matches_reference(data, IngestOptions(table_name="t"))
    assert tokenized and all(tokenized)


def test_numpy_keys_of_up_to_8_bytes_and_longer():
    # column a stays within 8 bytes (uint64 keys), column b goes past (S{w} keys)
    rows = [("abcdefgh", "abcdefghi"), ("abcdefg", "abcdefgh"), ("é" * 4, "é" * 5),
            ("abcdefgh", "x" * 40), ("a", "abcdefghi"), ("", "")]
    data = "a,b\n" + "".join(f"{a},{b}\n" for a, b in rows)
    table = ingest_delimited(data.encode())
    assert table.column_values("a") == tuple(a or None for a, _ in rows)
    assert table.column_values("b") == tuple(b or None for _, b in rows)
    assert [len(values) for values in table.values] == [5, 5]


def test_long_field_among_many_records_stays_on_the_numpy_path(tokenized):
    # numpy splits the block; padding all 101 keys to the 100,000-byte field would take
    # 10 MB, but width classes pad each key to at most twice its own length
    data = b"v\n" + b"x" * 100_000 + b"\n" + b"a\n" * 100
    table, peak = traced_peak(lambda: ingest_delimited(data))
    assert tokenized == [True]
    assert table.column_values("v") == ("x" * 100_000,) + ("a",) * 100
    assert peak < 4 << 20


def test_a_line_over_the_field_limit_whose_fields_are_under_it_stays_on_the_numpy_path(
    tokenized,
):
    # the limit is checked on line lengths first and on field lengths only past it;
    # csv.reader takes a field of exactly the limit, as numpy does
    limit = csv.field_size_limit()
    data = (b"a,b,c\n1,2,3\n" + b",".join([b"x" * (limit // 2 + 1)] * 3) + b"\n"
            + b"y" * limit + b", " + b"z" * (limit - 2) + b" ,w\n4,5,6\n")
    assert_matches_reference(data, IngestOptions(table_name="t"))
    assert tokenized == [True]


def lowcard_lines(size: int, seed: int) -> bytes:
    """About ``size`` bytes of lines of 11 two-byte fields, as in the lowcard benchmark."""
    rng = np.random.default_rng(seed)
    lines = size // 33
    cells = np.empty((lines, 11, 3), dtype=np.uint8)
    cells[..., 0] = ord("a") + np.arange(11, dtype=np.uint8)
    cells[..., 1] = ord("0") + rng.integers(0, 6, (lines, 11), dtype=np.uint8)
    cells[..., 2] = ord(",")
    cells[:, -1, 2] = ord("\n")
    return cells.tobytes()


def test_a_block_is_split_and_keyed_in_a_working_set_of_about_four_bytes_a_field():
    # one 1 MiB block of 11 two-byte columns, as in the lowcard benchmark: 349,525 fields.
    # Their int32 separator positions (1.4 MB) are the block's one per-field array, and a
    # column's starts and lengths are made only as it is keyed
    block = lowcard_lines(1 << 20, 11)
    buffer = bytearray(block) + bytes(8)  # as _blocks leaves it
    columns = table_module._Columns([f"c{j}" for j in range(11)])
    _, peak = traced_peak(
        lambda: columns.add_fields(*table_module._tokenize(buffer, 0, len(block), ord(","), 11))
    )
    assert columns.rows == (1 << 20) // 33
    assert peak < 5 << 20


def test_ingest_holds_one_block_at_a_time(monkeypatch, tokenized):
    # four 1 MiB blocks: before the merge, ingest holds each block's keys and one code
    # array a column (1.5 MB in all) and one block's buffer, positions and keying at a
    # time. Traced peak over the held: 4.0 MB; 4.8 MB while each block's codes were a part
    # of their own and its bytes copied, and 8.1 MB while the previous block was kept
    data = b",".join(b"c%d" % j for j in range(11)) + b"\n" + lowcard_lines(4 << 20, 12)
    before_merge = []
    merge = table_module._Columns.table

    def table(columns, name, na):
        held = sum(k.nbytes for keys in columns.keys for k in keys)
        held += sum(codes.nbytes for codes in columns.codes)
        before_merge.append((tracemalloc.get_traced_memory()[1], held))
        return merge(columns, name, na)

    monkeypatch.setattr(table_module._Columns, "table", table)
    ingested, _ = traced_peak(lambda: ingest_delimited(data))
    assert tokenized == [True] * 5
    assert ingested.row_count == (4 << 20) // 33
    (peak, held), = before_merge
    assert peak - held < 5_000_000


def test_each_columns_codes_are_written_once(monkeypatch, tokenized):
    # each block writes its codes into one array a column, and the merge remaps them in place;
    # only a column whose merged dtype differs from its blocks' is written anew: 300 values,
    # at most 170 a block (uint8 blocks, uint16 merged), or 255 values, the empty key and
    # the NA token (257 keys a block, uint16; 256 codes merged, uint8)
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 4096)
    keys = ["", "NA", *(f"n{i}" for i in range(255))]
    lines = [f"{'xyz'[i % 3]},w{i // 2 % 300},{keys[i % 257]}\n" for i in range(3000)]
    data = ("low,wide,narrow\n" + "".join(lines)).encode()
    written = []
    merge = table_module._Columns.table

    def table(columns, name, na):
        written.extend(columns.codes)
        return merge(columns, name, na)

    monkeypatch.setattr(table_module._Columns, "table", table)
    ingested = ingest_delimited(data)
    assert len(tokenized) > 4 and all(tokenized)
    assert [codes.dtype for codes in written] == [np.uint8, np.uint8, np.uint16]
    assert [codes.dtype for codes in ingested.codes] == [np.uint8, np.uint16, np.uint8]
    shared = [np.shares_memory(codes, w) for codes, w in zip(ingested.codes, written)]
    assert shared == [True, False, False]
    assert_matches_reference(data, IngestOptions(table_name="t"))


class Trickle(io.RawIOBase):
    """A stream that cannot seek, has no file descriptor and reads at most 7 bytes at a time."""

    def __init__(self, data: bytes):
        self.rest = data

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = min(7, len(buffer), len(self.rest))
        buffer[:size], self.rest = self.rest[:size], self.rest[size:]
        return size


def spy_moves(patch: pytest.MonkeyPatch) -> list[int]:
    """The room of each code array that ingest allocates."""
    rooms: list[int] = []
    moved = table_module._moved

    def spy(codes, room, dtype, rows):
        rooms.append(room)
        return moved(codes, room, dtype, rows)

    patch.setattr(table_module, "_moved", spy)
    return rooms


def test_a_stream_of_unknown_length_and_short_reads_ingests_as_its_bytes(monkeypatch, tokenized):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 64)
    data = b"\xef\xbb\xbfa,b\n" + b"".join(b"%d, \xc3\xa9%d\n" % (i, i % 5) for i in range(200))
    data += b"7,last"  # no final newline
    rooms = spy_moves(monkeypatch)
    table = ingest_delimited(Trickle(data))
    assert len(tokenized) > 20 and all(tokenized)
    # with no size to estimate the rows from, each column's room doubles
    assert len(rooms) > 2 * 4 and rooms[::2] == rooms[1::2]
    assert all(room == 2 * before for before, room in zip(rooms[::2], rooms[2::2]))
    expected = ingest_delimited(data)
    assert table == expected and table.values == expected.values
    for codes, expected_codes in zip(table.codes, expected.codes):
        assert codes.dtype == expected_codes.dtype and np.array_equal(codes, expected_codes)
    assert table.column_values("b")[-2:] == ("\u00e94", "last")
    assert_matches_reference(data, IngestOptions(table_name="t"))


def test_an_input_of_known_size_allocates_each_code_array_once(monkeypatch, tmp_path):
    # lines of one length: the rows estimated from the first block's bytes are all of them
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 1 << 12)
    data = b",".join(b"c%d" % j for j in range(11)) + b"\n" + lowcard_lines(1 << 16, 13)
    (tmp_path / "t.csv").write_bytes(data)
    rooms = spy_moves(monkeypatch)
    with open(tmp_path / "t.csv", "rb") as handle:
        from_file = ingest_delimited(handle)
    from_bytes = ingest_delimited(data)
    rows = (1 << 16) // 33
    assert from_file.row_count == from_bytes.row_count == rows
    assert len(rooms) == 2 * 11 and all(rows < room < rows * 9 // 8 for room in rooms)
    assert from_file == from_bytes


@pytest.mark.parametrize("stream", [False, True])
@pytest.mark.parametrize("fault, message", [
    (b"1,2\n", "ragged row: 2 fields, expected 3 (record {record})"),
    (b"\xff,2,3\n", "input is not valid UTF-8 at byte {byte} (line {record}): invalid start byte"),
])
def test_a_quote_in_block_3_of_5_keeps_record_numbers_and_byte_offsets(
    monkeypatch, tokenized, stream, fault, message
):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 64)
    rows = [b"%02d,\xc3\xa9%d,x\n" % (i, i % 3) for i in range(34)]  # 9 bytes, 8 characters
    rows[16] = b'16,"\xc3\xa9,q",x\n'
    rows[31] = fault
    data = b"\xef\xbb\xbfa,b,cc\n" + b"".join(rows)
    ends = np.cumsum([end for _, end in table_module._blocks(io.BytesIO(data))])
    assert len(ends) == 5 and ends[1] < data.index(b'"') < ends[2] < data.index(fault) > ends[3]
    with pytest.raises(IngestError) as exc:
        ingest_delimited(Trickle(data) if stream else data)
    byte = data.index(fault)
    assert str(exc.value) == message.format(record=33, byte=byte)
    assert data[:byte].count(b"\n") + 1 == 33
    assert tokenized == [True, True, False]


@pytest.mark.parametrize("block", [1 << 20, 8])
def test_padded_spellings_merge_into_one_value_on_the_numpy_path(monkeypatch, tokenized, block):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", block)
    table = ingest_delimited(b"v,w\na,1\n a,2\na\t,3\n NA ,4\n,5\na,6\n")
    assert table.column_values("v") == ("a", "a", "a", None, None, "a")
    assert len(table.values[0]) == 2 and set(table.values[0]) == {"a", None}
    assert all(tokenized)


# -- the merge of byte keys, fed by both parsers ------------------------------

MERGE_CASES = [
    # whitespace-only fields
    ([" ", "\t", " \t\x0b\x0c ", "x"], (None, None, None, "x")),
    # the NA token padded with spaces and tabs
    ([" NA", "NA\t", "\t NA  ", "NA", "xNA", "N A"], (None, None, None, None, "xNA", "N A")),
    # non-ASCII cells next to ASCII whitespace
    ([" \u00e9", "\u904b\t", "\u00e9", "\u00a0x ", "\u904b"],
     ("\u00e9", "\u904b", "\u00e9", "\u00a0x", "\u904b")),
    # keys of up to 8 bytes and wider ones that trim down to them
    (["abcdefgh ", " abcdefgh", "abcdefgh", "  abcdefghi  ", "abcdefghi", "x" * 20 + " "],
     ("abcdefgh",) * 3 + ("abcdefghi",) * 2 + ("x" * 20,)),
    # runs of every length up to thousands: a byte off every field per step while many
    # fields have one at an edge, then a doubling window for the few left
    ([" " * k + "v" + "\t" * (k % 4) for k in range(12)] + ["w"] * 60
     + [" " * 3000 + "y" + "\t\x0b" * 700], ("v",) * 12 + ("w",) * 60 + ("y",)),
]


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("cells, expected", MERGE_CASES)
def test_canonical_values_merge_on_both_parsers(tokenized, quoted, cells, expected):
    # the quoted copy has quotes, so csv.reader reads it; the plain one is split by numpy
    data = "v\n" + "".join(f'"{cell}"\n' if quoted else f"{cell}\n" for cell in cells)
    table = ingest_delimited(data.encode())
    assert tokenized == [not quoted]
    assert table.column_values("v") == expected
    assert sorted(table.values[0], key=str) == sorted(set(expected), key=str)
    assert_matches_reference(data.encode(), IngestOptions(table_name="t"))


def test_runs_of_whitespace_stop_at_separators(tokenized):
    # blank tab-delimited fields make the block one run of whitespace; a trim whose runs
    # went past separators would take a step per byte of it, about a minute here
    data = b"a\tb\tc\n" + b" \t \t \n" * 20_000
    start = time.perf_counter()
    table = ingest_delimited(data, IngestOptions(delimiter="\t"))
    assert time.perf_counter() - start < 5
    assert table.values == ((None,),) * 3
    assert all(tokenized)


def test_a_value_split_by_numpy_and_again_read_by_csv_reader_is_one_value(
    monkeypatch, tokenized
):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 1)  # one line per block
    data = b'h,i,j,k\na,a,a,a\na,a,a,a\na,a,a,a\na,a,a,"q""t"\n'
    table = ingest_delimited(data)
    assert tokenized == [True, True, True, True, False]
    assert table.cells == (("a",) * 4,) * 3 + (("a", "a", "a", 'q"t'),)
    assert [len(values) for values in table.values] == [1, 1, 1, 2]


def test_a_value_among_wider_keys_in_one_block_merges_with_it_in_another(
    monkeypatch, tokenized
):
    # block 1 also holds a 19-byte field, block 2 only the 9-byte value; keys are padded
    # to a power-of-two width class, not to their block's longest field
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 32)
    data = b"v\nabcdefghi\n" + b"x" * 19 + b"\nabcdefghi\n"
    table = ingest_delimited(data)
    assert tokenized == [True, True]
    assert table.column_values("v") == ("abcdefghi", "x" * 19, "abcdefghi")
    assert len(table.values[0]) == 2


def test_one_long_field_does_not_widen_every_key(tokenized):
    # csv.reader reads the quoted field; padding every key of its chunk to
    # 50,000 bytes would take 200 MB
    data = b"v\n" + b"".join(b"%d\n" % i for i in range(4000)) + b'"' + b"x" * 50_000 + b'"\n'
    table, peak = traced_peak(lambda: ingest_delimited(data))
    assert tokenized == [False]
    assert len(table.values[0]) == 4001
    assert peak < 10 << 20


def test_trailing_nul_keeps_a_value_apart_on_the_csv_path(tokenized):
    # csv.reader passes NUL through; zero-padded keys alone would merge "x\0" into "x"
    data = b'v\n"x\0"\nx\nx\0\0\n\0\n" \0 "\nNA\0\n'
    table = ingest_delimited(data)
    assert tokenized == [False]
    assert table.column_values("v") == ("x\0", "x", "x\0\0", "\0", "\0", "NA\0")
    assert len(table.values[0]) == 5
    assert ingest_delimited(data, IngestOptions(na_token="NA\0")).column_values("v")[-1] is None


def test_ingest_canonicalizes_no_value_in_python(monkeypatch, tokenized):
    calls = []
    monkeypatch.setattr(table_module, "canonicalize", lambda raw: calls.append(raw))
    data = b"a,b\n" + b"".join(b"%d, v%d \n" % (i, i) for i in range(1000))
    table = ingest_delimited(data)
    assert [len(values) for values in table.values] == [1000, 1000]
    assert table.column_values("b")[:2] == ("v0", "v1")
    assert all(tokenized) and calls == []


def test_invalid_utf8_is_placed_at_its_byte_and_line():
    data = b'a,b\n"q",1\n' + b"3,4\n" * 3000 + b"\xff,2\n"
    with pytest.raises(IngestError) as exc:
        ingest_delimited(data)
    assert exc.value.row is None
    assert str(exc.value) == "input is not valid UTF-8 at byte 12010 (line 3003): invalid start byte"


@pytest.mark.parametrize("block", [1 << 20, 8])
def test_invalid_utf8_after_numpy_blocks_and_a_bom_is_placed_in_the_input(
    monkeypatch, tokenized, block
):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", block)
    data = b"\xef\xbb\xbfa,b\n" + b"1,2\n" * 10 + b"3,\xc3\n"
    with pytest.raises(IngestError) as exc:
        ingest_delimited(data)
    assert str(exc.value) == "input is not valid UTF-8 at byte 49 (line 12): invalid continuation byte"
    assert any(tokenized) == (block == 8)


def test_ragged_row_just_before_invalid_utf8_is_reported():
    with pytest.raises(IngestError) as exc:
        ingest_delimited(b"a,b\n1,2\n1\n\xff,2\n")
    assert (exc.value.row, str(exc.value)) == (3, RAGGED_3)


def test_to_delimited_quotes_a_cr_so_it_reads_back():
    tables = [
        (Table.from_rows("t", ["a"], [["x\ry"]]), IngestOptions(table_name="t"), 'a\n"x\ry"\n'),
        (Table.from_rows("t", ["a\rb"], [["x"]]), IngestOptions(table_name="t"), '"a\rb"\nx\n'),
        (Table.from_rows("t", ["a"], [[None]]), IngestOptions(table_name="t", na_token="N\rA"),
         'a\n"N\rA"\n'),
    ]
    for table, options, text in tables:
        assert table.to_delimited(options) == text
        assert ingest_delimited(text.encode(), options) == table
    # a CR in a field that is quoted for another reason reads back too
    table = Table.from_rows("t", ["a"], [["x\r\ny"], ["x,\ry"], ['x"\r']])
    assert ingest_delimited(table.to_delimited().encode()).cells == table.cells


@pytest.mark.parametrize("names", [["\ufeffa", "b"], ["\ufeff", "b"]])
def test_to_delimited_quotes_a_first_column_name_that_begins_with_a_bom(names):
    # unquoted, the name would open the text with a BOM, which ingest drops
    table = Table.from_rows("t", names, [["x", "y"]])
    text = table.to_delimited()
    assert text.startswith('"\ufeff')
    read = ingest_delimited(text.encode(), IngestOptions(table_name="t"))
    assert read.column_names == tuple(names)
    assert read == table


def test_a_width_class_of_missing_keys_adds_no_kept_array():
    # "NA" and the empty field are the only short keys of their columns
    table = Table.from_rows("t", ["a", "b"], [[None, "x" * 9], ["NA", None]])
    assert [k.tolist() for k in table.distinct[1].kept] == [[b"x" * 9]]
    assert [c.tolist() for c in table.codes] == [[1, 0], [0, 1]]
    assert table.values == (("NA", None), ("x" * 9, None))
    ingested = ingest_delimited(b"a,b\nNA,yyyyyyyyy\n,z\n")
    assert ingested.distinct[0].kept == ()
    assert [c.tolist() for c in ingested.codes] == [[0, 0], [1, 0]]
    assert ingested.cells == ((None, None), ("yyyyyyyyy", "z"))


# -- writing against the former csv.writer rendering --------------------------

def reference_write(table: Table, opts: IngestOptions) -> str:
    """The table as to_delimited wrote it before it quoted values itself: a csv.writer
    pass over every cell, which quotes a field for the delimiter, a quote or LF, and
    writes a lone empty field as ``""``. A first name that begins with U+FEFF is
    quoted too, so the text does not open with a BOM.
    """
    out = io.StringIO()
    writer = csv.writer(out, delimiter=opts.delimiter, lineterminator="\n")
    writer.writerow(table.column_names)
    writer.writerows([opts.na_token if v is None else v for v in row] for row in zip(*table.cells))
    text, first = out.getvalue(), table.column_names[0]
    if text.startswith("\ufeff"):  # csv.writer left the name unquoted, so it holds no quote
        text = f'"{first}"{text[len(first):]}'
    return text


# csv.writer leaves a bare CR unquoted, so the reference holds only for text without one
WRITE_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\r")
WRITE_TEXT = st.one_of(
    st.sampled_from(["", "a", ",", ";", "\t", "|", "§", '"', 'q"t', "l1\nl2", "x, y",
                     "é", "運"]),
    st.text(WRITE_CHARS, max_size=6),
)


@st.composite
def written_tables(draw):
    n_cols = draw(st.integers(1, 3))
    names = draw(st.lists(WRITE_TEXT.map(canonicalize).filter(bool), min_size=n_cols,
                          max_size=n_cols, unique_by=str.lower))
    rows = draw(st.lists(st.lists(WRITE_TEXT, min_size=n_cols, max_size=n_cols), max_size=6))
    opts = IngestOptions(
        delimiter=draw(st.sampled_from([",", ";", "\t", "|", "§"])),
        na_token=draw(st.sampled_from(["NA", "", "N A", 'n"a', "n,a"])),
    )
    return Table.from_rows("t", names, rows), opts


WRITE_BUDGETS = (1, 8, 24, table_module._WRITE_BYTES)


@settings(max_examples=400, deadline=None)
@given(written_tables())
def test_to_delimited_matches_the_csv_writer_rendering(case):
    table, opts = case
    # budgets of 1 to 24 bytes take 1 to 8 rows a step, so step edges fall inside
    # these tables of at most 6 rows
    for write_bytes in WRITE_BUDGETS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(table_module, "_WRITE_BYTES", write_bytes)
            if any(opts.na_token in values for values in table.values):
                with pytest.raises(IngestError, match="is a value of column"):
                    table.to_delimited(opts)
            else:
                assert table.to_delimited(opts) == reference_write(table, opts)


@settings(max_examples=300, deadline=None)
@given(written_tables(), st.sampled_from([1, 8, 64, table_module._BLOCK_BYTES]))
def test_from_rows_holds_the_keys_and_codes_that_ingest_of_its_text_holds(case, block):
    table, opts = case
    if any(opts.na_token in values for values in table.values):
        return  # the text would not read back; see the test above
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table_module, "_BLOCK_BYTES", block)  # several blocks to merge
        ingested = ingest_delimited(table.to_delimited(opts).encode(), opts)
    for built, read in zip(table.distinct, ingested.distinct):
        assert built.missing == read.missing
        assert [(k.dtype, k.tolist()) for k in built.kept] == [
            (k.dtype, k.tolist()) for k in read.kept
        ]
    for built, read in zip(table.codes, ingested.codes):
        assert built.dtype == read.dtype
        assert built.tolist() == read.tolist()


@pytest.mark.parametrize("delimiter", [",", ";", "§"])
def test_to_delimited_matches_the_csv_writer_across_steps(monkeypatch, delimiter):
    columns = (
        ColumnSpec("short", 3),
        ColumnSpec("mixed", 5_000, "zipf(1.1)"),
        ColumnSpec("long", 200_000),
    )
    monkeypatch.setattr(table_module, "_WRITE_BYTES", 1 << 14)  # rows of 17 to 19 bytes: 35 to 39 steps
    spec = SyntheticSpec(rows=32_775, columns=columns, seed=18)
    table = generate_table(spec)
    opts = IngestOptions(delimiter=delimiter, table_name=spec.name)
    text = table.to_delimited(opts)
    assert len({len(v) for v in table.values[1]}) > 1
    assert text == reference_write(table, opts)
    assert ingest_delimited(text.encode(), opts) == table


# -- writing byte keys against the csv.writer rendering of their values -------

KEY_CELLS = st.sampled_from([
    "", "a", "v0", "v1", "NA", "x\0y", "\0", "é", "運x", "12345678", "123456789", "v" * 16,
    "§", "x,y", "x;y", "x|y", "a b", "NA x",
])


@st.composite
def keyed_tables(draw):
    """A generated table, or one ingested from cells that csv.writer wrote."""
    n_cols = draw(st.integers(1, 3))
    if draw(st.booleans()):
        columns = [
            ColumnSpec(f"c{j}", draw(st.sampled_from([1, 2, 11, 120, 5_000, 10**7])),
                       draw(st.sampled_from(["uniform", "zipf(1.5)"])))
            for j in range(n_cols)
        ]
        return generate_table(SyntheticSpec(draw(st.integers(1, 7)), tuple(columns), seed=3))
    rows = draw(st.lists(st.lists(KEY_CELLS, min_size=n_cols, max_size=n_cols), max_size=6))
    if rows and draw(st.booleans()):
        for row in rows:  # an all-missing column
            row[0] = ""
    out = io.StringIO()
    # unquoted, a row of cells without NUL or a quote stays on the numpy path
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    writer = csv.writer(out, lineterminator="\n", quoting=quoting)
    writer.writerows([[f"c{j}" for j in range(n_cols)], *rows])
    return ingest_delimited(out.getvalue().encode(), IngestOptions(na_token="null"))


@settings(max_examples=300, deadline=None)
@given(keyed_tables(), st.sampled_from([",", ";", "\t", "|", "§", "v", "1", "\0"]),
       st.sampled_from(["NA", "v0", "", "no value given"]))  # the last is wider than S8 keys
def test_byte_keys_are_written_as_their_decoded_values(table, delimiter, na_token):
    options = IngestOptions(delimiter=delimiter, na_token=na_token)
    for write_bytes in WRITE_BUDGETS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(table_module, "_WRITE_BYTES", write_bytes)
            if any(na_token in values for values in table.values):
                with pytest.raises(IngestError, match="is a value of column"):
                    table.to_delimited(options)
            else:
                assert table.to_delimited(options) == reference_write(table, options)


@pytest.mark.parametrize("delimiter", ["\0", ","])
def test_keys_that_fill_their_width_keep_their_delimiter(delimiter):
    # 7-digit symbols fill S8 keys, so no zero padding is left in them
    keys = _symbols(np.array([10**6, 5 * 10**6, MAX_DISTINCT_VALUES - 1]))
    table = Table._from_keys("t", [("a", _Keys((keys,), False), np.array([2, 0, 1, 0])),
                                   ("b", _Keys((keys[:1],), False), np.zeros(4, int))])
    rows = [("a", "b"), *zip(*table.cells)]
    expected = "".join(f"{a}{delimiter}{b}\n" for a, b in rows)
    assert rows[1] == ("v9999999", "v1000000")
    options = IngestOptions(delimiter=delimiter, table_name="t")
    assert table.to_delimited(options) == twin_of(table).to_delimited(options) == expected
    assert ingest_delimited(expected.encode(), options) == table


def test_a_nul_value_is_quoted_under_a_nul_delimiter():
    # eight bytes fill an S8 key, so no zero padding follows the 0xfe of its NUL
    table = ingest_delimited(b'a,b\n"abc\0efgh",x\n', IngestOptions(table_name="t"))
    assert table.distinct[0].kept[0].tolist() == [b"abc\xfeefgh"]
    options = IngestOptions(delimiter="\0", table_name="t")
    assert table.to_delimited(options) == 'a\0b\n"abc\0efgh"\0x\n'
    assert ingest_delimited(table.to_delimited(options).encode(), options) == table


@pytest.mark.parametrize("na_token", ["\0", "N\0A"])
def test_a_nul_na_token_and_values_ending_in_nul_round_trip_under_a_nul_delimiter(na_token):
    # keys hold NUL as 0xfe, the NA token and the delimiter too; the writer restores NUL once
    rows = [["x\0", "ab\0"], [None, "\0\0"], ["12345678\0", None], ["N\0", "v"]]
    table = Table.from_rows("t", ["a", "b"], rows)
    options = IngestOptions(delimiter="\0", table_name="t", na_token=na_token)
    text = table.to_delimited(options)
    assert text == reference_write(table, options)
    ingested = ingest_delimited(text.encode(), options)
    assert ingested == table
    assert ingested.to_delimited(options) == text


def test_one_long_value_writes_within_twice_its_padded_values():
    # the writer pads 2,001 values to 10 kB each, about 20 MB; its gather buffer
    # is bounded by bytes, not rows
    rows = [[f"s{i}"] for i in range(2_000)] + [["x" * 10_000]]
    table = Table.from_rows("t", ["a"], rows)
    text, peak = traced_peak(table.to_delimited)
    assert text == "a\n" + "".join(row[0] + "\n" for row in rows)
    assert peak < 2 * len(rows) * (10_000 + 1)


def test_a_generated_table_is_written_from_its_keys():
    table = generate_table(SyntheticSpec(50, (ColumnSpec("a", 20), ColumnSpec("b", 3)), seed=4))
    text = table.to_delimited()
    assert "values" not in vars(table)  # nothing was decoded
    assert ingest_delimited(text.encode(), IngestOptions(table_name="synthetic")) == table


@pytest.mark.parametrize("delimiter", [",", "§"])
def test_to_delimited_reads_no_values_even_to_quote_them(delimiter):
    # "ç" is 0xc3 0xa7 and "§" 0xc2 0xa7: only a whole character's key is a hit
    rows = [['q"t', "x,y"], ["a§b", None], ["é", "l1\nl2"], ["x\0y", "ç"], ["x\ry", "\0"]]
    table = Table.from_rows("t", ["a", "b"], rows)
    options = IngestOptions(delimiter=delimiter, table_name="t")
    text = table.to_delimited(options)
    assert "values" not in vars(table)  # nothing was decoded
    assert text == {
        ",": 'a,b\n"q""t","x,y"\na§b,NA\né,"l1\nl2"\nx\0y,ç\n"x\ry",\0\n',
        "§": 'a§b\n"q""t"§x,y\n"a§b"§NA\né§"l1\nl2"\nx\0y§ç\n"x\ry"§\0\n',
    }[delimiter]
    assert ingest_delimited(text.encode(), options) == table


def test_to_delimited_of_no_rows_writes_the_header_only():
    table = Table.from_rows("t", ["a", "b;c"], [])
    assert table.to_delimited() == "a,b;c\n"
    assert table.to_delimited(IngestOptions(delimiter=";")) == 'a;"b;c"\n'


def test_to_delimited_quotes_an_empty_na_token_in_a_lone_column():
    table = Table.from_rows("t", ["a"], [["x"], [None]])
    options = IngestOptions(table_name="t", na_token="")
    assert table.to_delimited(options) == 'a\nx\n""\n'
    assert ingest_delimited(table.to_delimited(options).encode(), options) == table
    # and from byte keys, which are never empty, so only the NA token is quoted
    ingested = ingest_delimited(b'a\nx\n""\n', options)
    assert ingested.to_delimited(options) == 'a\nx\n""\n'


@pytest.mark.parametrize("delimiter", [",", "§"])
def test_to_delimited_round_trips_nul_and_non_ascii_values(delimiter):
    rows = [["x\0y", "é運"], ["\0", "§"], ["é", "x\0"]]
    table = Table.from_rows("t", ["a", "b"], rows)
    options = IngestOptions(delimiter=delimiter, table_name="t")
    assert table.to_delimited(options) == reference_write(table, options)
    assert ingest_delimited(table.to_delimited(options).encode(), options) == table


@pytest.mark.parametrize("na_token", ["NA", "v0", "é"])
def test_to_delimited_refuses_a_value_equal_to_the_na_token(na_token):
    table = Table.from_rows("t", ["a", "b"], [["x", na_token], ["y", None]])
    with pytest.raises(IngestError) as exc:
        table.to_delimited(IngestOptions(na_token=na_token))
    assert str(exc.value) == f"NA token {na_token!r} is a value of column 'b'"
    assert exc.value.row is None


def test_to_delimited_refuses_an_ingested_value_that_is_another_na_token():
    table = ingest_delimited(b"a\nnull\nNA\n", IngestOptions(na_token="null"))
    assert table.cells == ((None, "NA"),)  # NA is a value under this token
    with pytest.raises(IngestError, match="NA token 'NA' is a value of column 'a'"):
        table.to_delimited()
    assert table.to_delimited(IngestOptions(na_token="null")) == "a\nnull\nNA\n"


@pytest.mark.parametrize("delimiter", ['"', "\r", "\n"])
def test_quote_and_line_break_delimiters_rejected(delimiter):
    with pytest.raises(IngestError) as exc:
        ingest_delimited(b"a\rb\r\n1\r2\r\n", IngestOptions(delimiter=delimiter))
    assert exc.value.row is None
    assert "delimiter" in str(exc.value)


@pytest.mark.parametrize("delimiter", ["", "ab", '"', "\r", "\n", 5])
def test_options_reject_a_delimiter_that_cannot_be_written_and_read_back(delimiter):
    # reading and writing share this check, so to_delimited never gets such a delimiter
    with pytest.raises(IngestError):
        IngestOptions(delimiter=delimiter)


@pytest.mark.parametrize("field, value, message", [
    ("na_token", None, "na_token must be a str, got None"),
    ("table_name", None, "table_name must be a str, got None"),
])
def test_options_reject_a_field_of_the_wrong_type(field, value, message):
    with pytest.raises(IngestError) as exc:
        IngestOptions(**{field: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("na_token", [" NA ", "NA\t", " ", "\x0bnull"])
def test_options_reject_an_na_token_with_edge_whitespace(na_token):
    # cells are trimmed before they meet the NA token, so this one could never match
    with pytest.raises(IngestError) as exc:
        IngestOptions(na_token=na_token)
    assert str(exc.value) == f"NA token cannot start or end with whitespace, got {na_token!r}"


@pytest.mark.parametrize("field, noun", [("delimiter", "delimiter"), ("na_token", "NA token")])
@pytest.mark.parametrize("text", ["\udcff", "\ud800"])
def test_options_reject_a_delimiter_or_na_token_that_utf8_cannot_encode(field, noun, text):
    # an undecodable byte of the command line reaches Python as a lone surrogate,
    # which no field of a UTF-8 file can match
    with pytest.raises(IngestError) as exc:
        IngestOptions(**{field: text})
    assert str(exc.value) == f"{noun} cannot be encoded in UTF-8, got {text!r}"


@pytest.mark.parametrize("text", ["\udcff.csv", "t\ud800"])
def test_options_reject_a_table_name_that_utf8_cannot_encode(text):
    # every report names the table, and no UTF-8 report can hold a lone surrogate
    with pytest.raises(IngestError) as exc:
        IngestOptions(table_name=text)
    assert str(exc.value) == f"table name cannot be encoded in UTF-8, got {text!r}"


@pytest.mark.parametrize("na_token", ["", "N A", "\u00a0NA"])
def test_an_na_token_without_edge_ascii_whitespace_matches_padded_cells(na_token):
    data = f"a\n {na_token} \nx\n".encode()
    assert ingest_delimited(data, IngestOptions(na_token=na_token)).column_values("a") == (None, "x")


# -- fuzz gate: arbitrary bytes ingest as the reference does, or fail cleanly --

FUZZ_PIECES = [b'"', b"\r", b"\n", b"\0", b",", b"\t", b" ", b"\xff", b"\xc3", b"\xef\xbb\xbf", b"",
               b"NA", b"\x0b"]


@st.composite
def fuzzed_inputs(draw):
    if draw(st.booleans()):
        opts = IngestOptions(delimiter=draw(st.sampled_from([",", "\t", ";"])), table_name="t")
        return draw(st.binary(max_size=120)), opts
    data, opts = draw(delimited_inputs())
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        data[at:at + draw(st.integers(0, 2))] = draw(st.sampled_from(FUZZ_PIECES))
    return bytes(data), opts


@settings(max_examples=400, deadline=None)
@given(fuzzed_inputs(), st.integers(1, 32))
def test_arbitrary_bytes_ingest_as_the_reference_or_raise_ingest_error(case, block):
    data, opts = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table_module, "_BLOCK_BYTES", block)
        try:
            table = ingest_delimited(data, opts)
        except IngestError:
            return
    names, cells = reference_ingest(data, opts)
    assert table.column_names == names
    assert table.cells == cells


def ingest_outcome(source, opts: IngestOptions) -> tuple:
    """The table's names, keys and codes, or the fault's message and record."""
    try:
        table = ingest_delimited(source, opts)
    except IngestError as exc:
        return str(exc), exc.row
    kept = [[(k.dtype, k.tolist()) for k in keys.kept] for keys in table.distinct]
    return table.column_names, kept, [(c.dtype, c.tolist()) for c in table.codes]


@settings(max_examples=200, deadline=None)
@given(fuzzed_inputs(), st.integers(1, 32))
def test_a_stream_of_short_reads_ingests_as_its_bytes_or_raises_the_same_fault(case, block):
    data, opts = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table_module, "_BLOCK_BYTES", block)
        assert ingest_outcome(Trickle(data), opts) == ingest_outcome(data, opts)


@settings(max_examples=150, deadline=None)
@given(fuzzed_inputs())
def test_score_on_arbitrary_bytes_exits_0_or_2_with_one_error_line(tmp_path_factory, case):
    data, opts = case
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["score", "--input", str(path), "--delimiter", opts.delimiter])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


# -- narrow codes, and the sort-free factorization of short keys ---------------

@pytest.mark.parametrize("cardinality, dtype", [
    (0, np.uint8), (1, np.uint8), (256, np.uint8), (257, np.uint16),
    (65_536, np.uint16), (65_537, np.int32), (1 << 31, np.int32),
])
def test_code_dtype_is_the_narrowest_that_holds_the_cardinality(cardinality, dtype):
    assert code_dtype(cardinality) == dtype


def assert_dict_factorized(table: Table, cells: list[str | None]) -> None:
    """The table's one column holds ``cells``, coded in the narrowest dtype, as a dict would."""
    ids = dict.fromkeys(cells)
    (values,), (codes,) = table.values, table.codes
    assert table.cardinality(0) == len(values) == len(ids)
    assert codes.dtype == code_dtype(len(ids))
    assert set(values) == set(ids)
    assert [values[c] for c in codes.tolist()] == cells


BOUNDARIES = [256, 257, 65_536, 65_537]


@pytest.mark.parametrize("missing", [False, True])
@pytest.mark.parametrize("cardinality", BOUNDARIES)
@pytest.mark.parametrize("build", ["numpy", "csv.reader", "from_rows"])
def test_codes_are_narrowest_at_the_dtype_boundaries(
    monkeypatch, tokenized, build, cardinality, missing
):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", 1 << 10)  # several blocks to merge
    cells = column_of(cardinality, missing, random.Random(cardinality), cardinality // 3)
    lines = ["NA" if cell is None else cell for cell in cells]
    if build == "csv.reader":
        lines[0] = f'"{lines[0]}"'  # a quote sends the whole input to csv.reader
    if build == "from_rows":
        table = Table.from_rows("t", ["c"], [[cell] for cell in cells])
    else:
        table = ingest_delimited(("c\n" + "\n".join(lines) + "\n").encode())
        assert len(tokenized) > 1 and all(tokenized) if build == "numpy" else tokenized == [False]
    assert_dict_factorized(table, cells)


@pytest.mark.parametrize("cardinality", BOUNDARIES)
def test_generated_codes_are_narrowest_at_the_dtype_boundaries(cardinality):
    rows = 16 * cardinality  # every symbol is drawn
    table = generate_table(SyntheticSpec(rows, (ColumnSpec("c", cardinality),), seed=3))
    drawn = np.random.Generator(np.random.PCG64(3)).integers(0, cardinality, size=rows)
    assert table.cardinality(0) == cardinality
    assert_dict_factorized(table, [f"v{i}" for i in drawn.tolist()])


def test_factorize_sorts_only_keys_whose_span_exceeds_the_bound(monkeypatch):
    spaces = []
    densify = table_module.densify
    monkeypatch.setattr(
        table_module, "densify", lambda keys, space: spaces.append(space) or densify(keys, space)
    )
    n = 10
    bound = table_module._SORT_FREE_FACTOR * n
    for space, sort_free in [(1, True), (bound, True), (bound + 1, False)]:
        low = (1 << 63) + 5  # keys above 2**63 stay exact
        keys = np.array([low, low + space - 1] + [low + space // 2] * (n - 2), dtype=np.uint64)
        spaces.clear()
        expected, expected_inverse = np.unique(keys, return_inverse=True)
        distinct, inverse = table_module._factorize(keys)  # may shift keys in place
        assert spaces == ([space] if sort_free else [])
        assert distinct.dtype == np.uint64 and np.array_equal(distinct, expected)
        assert inverse.dtype == np.int32 and np.array_equal(inverse, expected_inverse)


def factorize_keys():
    """Keys as ingest and grouping factorize them, repeated, of one to 60 elements.

    ``uint64`` keys of a span within and far past the sort-free bound,
    ``int64`` pair keys and ``S{w}`` keys.
    """
    def repeated(elements):
        return st.lists(elements, min_size=1, max_size=20).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
        )

    return st.one_of(
        repeated(st.integers(1 << 63, (1 << 63) + 40)).map(lambda k: np.array(k, dtype=np.uint64)),
        repeated(st.integers(0, (1 << 64) - 1)).map(lambda k: np.array(k, dtype=np.uint64)),
        repeated(st.integers(0, (1 << 40) - 1)).map(lambda k: np.array(k, dtype=np.int64)),
        repeated(st.binary(max_size=12).map(lambda b: b.replace(b"\0", b"x"))).map(
            lambda k: np.array(k, dtype=f"S{max(1, *map(len, k))}")
        ),
    )


@settings(max_examples=300, deadline=None)
@given(factorize_keys(), st.sampled_from([0, table_module._SORT_FREE_FACTOR, 1 << 16]))
def test_factorize_is_np_unique_with_an_int32_inverse(keys, factor):
    expected, expected_inverse = np.unique(keys, return_inverse=True)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(table_module, "_SORT_FREE_FACTOR", factor)
        distinct, inverse = table_module._factorize(keys)  # may shift keys in place
    assert distinct.dtype == keys.dtype and distinct.tolist() == expected.tolist()
    assert inverse.dtype == np.int32 and inverse.tolist() == expected_inverse.tolist()


def test_an_id_column_ingests_within_64_bytes_a_row():
    # 200k distinct 8-byte keys, in random order: every merge goes through the sort;
    # the table itself holds 12 bytes a row (an int32 code, a uint64 key)
    rows = 200_000
    ids = list(range(10_000_000, 10_000_000 + rows))
    random.Random(30).shuffle(ids)
    data = b"id\n" + b"".join(b"%d\n" % i for i in ids)
    table, peak = traced_peak(lambda: ingest_delimited(data))
    assert table.cardinality(0) == rows
    assert peak < 64 * rows


@pytest.mark.parametrize("block", [32, table_module._BLOCK_BYTES])
def test_a_from_rows_column_of_two_width_classes_holds_ingests_keys_and_codes(monkeypatch, block):
    # short keys (uint64) and 9- to 16-byte ones (S16) alternate across blocks,
    # so the merge takes each class's codes block by block
    cells = [["a"], ["x" * 9], [None], ["b"], ["y" * 16], ["a"], ["x" * 9], ["NA"], ["b" * 8]] * 5
    table = Table.from_rows("t", ["c"], cells)
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", block)
    ingested = ingest_delimited(table.to_delimited(IngestOptions(na_token="")).encode(),
                               IngestOptions(na_token=""))
    built, read = table.distinct[0], ingested.distinct[0]
    assert [k.dtype for k in built.kept] == [np.dtype("S8"), np.dtype("S16")]
    assert built.missing == read.missing
    assert [(k.dtype, k.tolist()) for k in built.kept] == [(k.dtype, k.tolist()) for k in read.kept]
    assert table.codes[0].dtype == ingested.codes[0].dtype
    assert table.codes[0].tolist() == ingested.codes[0].tolist()
    assert table.cells == ingested.cells


FACTORIZE_CASES = {
    # one-byte keys "a" to "l" span 12 = 4 x 3 fields, "a" to "m" one more
    "at the bound": b"c\na\nl\ne\n",
    "past the bound": b"c\na\nm\ne\n",
    "one distinct key": b"c\nx\nx\nx\n",
    "the empty key": b"a,b\n,1\nx,1\n ,2\n",
    "the NA token": b"a,b\nNA,1\nx,NA\nNA,2\nNA,NA\n",
    # two width classes in one block, and over 256 values in a csv.reader chunk
    "two width classes": b"a,b\nshort,1\n" + b"x" * 40 + b",2\nshort,3\nabcdefghijk,4\n",
    "csv.reader": b'a,b\n"q",1\n' + b"".join(b"%d,%d\n" % (i, i % 7) for i in range(300)),
    "wide and narrow blocks": b"a\n" + b"".join(b"%d\n" % (i % 300) for i in range(3000)),
}


@pytest.mark.parametrize("block", [1 << 20, 64])
@pytest.mark.parametrize("data", FACTORIZE_CASES.values(), ids=FACTORIZE_CASES.keys())
def test_both_factorize_branches_give_equal_tables_and_codes(monkeypatch, data, block):
    monkeypatch.setattr(table_module, "_BLOCK_BYTES", block)
    assert_matches_reference(data, IngestOptions(table_name="t"))
    tables = []
    # never sort-free, as shipped, and for uint64 keys of a span up to 64 KiB per key
    for factor in (0, table_module._SORT_FREE_FACTOR, 1 << 16):
        monkeypatch.setattr(table_module, "_SORT_FREE_FACTOR", factor)
        tables.append(ingest_delimited(data))
    by_sort = tables[0]
    for table in tables[1:]:
        assert table == by_sort and table.values == by_sort.values
        for codes, sorted_codes in zip(table.codes, by_sort.codes):
            assert codes.dtype == sorted_codes.dtype
            assert np.array_equal(codes, sorted_codes)
