from __future__ import annotations

import csv
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qi_sentry.table as table_module
from qi_sentry import IngestError, IngestOptions, NoSuchColumn, Table, ingest_delimited
from qi_sentry.table import canonicalize, column_values

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


def test_headerless_input_names_columns_by_position():
    table = ingest_delimited(b"1,2\n3,4\n", IngestOptions(has_header=False))
    assert table.column_names == ("col_0", "col_1")
    assert table.row_count == 2


def test_headerless_empty_input_rejected():
    with pytest.raises(IngestError):
        ingest_delimited(b"", IngestOptions(has_header=False))


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
    assert column_values(demo_table, "GENDER")[0] == "M"


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
    with pytest.raises(ValueError):
        Table.from_columns("t", [("a", ("1", "2")), ("b", ("1",))])


def test_table_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Table.from_columns("t", [("a", ("1",)), ("A", ("2",))])


def test_from_rows_canonicalizes():
    table = Table.from_rows("t", ["a"], [[" 1 "], [""]])
    assert table.column_values("a") == ("1", None)


def test_row_access(demo_table):
    assert demo_table.row(2) == ("58", "21", "M", "47853")
    assert list(demo_table.iter_rows())[0] == ("72", "45", "M", "75145")


def test_delimiter_must_be_single_char():
    with pytest.raises(IngestError):
        ingest_delimited(b"a\n1\n", IngestOptions(delimiter=",,"))


def test_columns_store_each_distinct_value_once(demo_table):
    position = demo_table.position_of("Weight")
    assert sorted(demo_table.values[position]) == ["45", "58", "72"]
    codes = demo_table.codes[position]
    assert codes.dtype == "int32"
    assert [demo_table.values[position][c] for c in codes] == ["72", "72", "58", "45", "45"]


def test_table_rejects_codes_of_the_wrong_length():
    with pytest.raises(ValueError):
        Table(
            name="t",
            columns=(table_module.ColumnMeta("a", 0),),
            values=(("x",),),
            codes=(np.zeros(2, dtype="int32"),),
            row_count=3,
        )


def test_tables_built_in_different_orders_compare_equal():
    by_rows = Table.from_rows("t", ["a"], [["y"], ["x"], ["y"]])
    coded = Table.from_codes(
        "t", [("a", ("x", "y"), np.array([1, 0, 1], dtype="int32"))]
    )
    assert by_rows == coded
    assert by_rows != Table.from_rows("t", ["a"], [["y"], ["y"], ["x"]])


# -- ingest against the former cell-by-cell parser ----------------------------

def reference_ingest(data: bytes, opts: IngestOptions) -> tuple[tuple[str, ...], tuple]:
    """Column names and cells, parsed the way ingest did before it factorized:

    one canonicalized string per cell from a plain csv.reader loop.
    """
    records = csv.reader(io.StringIO(data.decode("utf-8-sig")), delimiter=opts.delimiter)
    if opts.has_header:
        names = [cell.strip(" \t\r\n\x0b\x0c") for cell in next(records)]
        cols: list[list] = [[] for _ in names]
    else:
        names, cols = [], []
    for record in records:
        if not names:
            names = [f"col_{j}" for j in range(len(record))]
            cols = [[] for _ in names]
        assert len(record) == len(names)
        for col, cell in zip(cols, record):
            value = canonicalize(cell)
            col.append(None if value == opts.na_token else value)
    return tuple(names), tuple(tuple(col) for col in cols)


# padding, spellings of missing, quoted delimiters, quotes and newlines
TRICKY = ["a", " a", "a\t", "NA", " NA ", "null", "", "  ", "x,y", "x;y", "x\ty",
          'q"t', "l1\nl2", "r\r\nn", "\u00a0x", "\u00e9"]
CELL_TEXT = st.one_of(
    st.sampled_from(TRICKY),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=4),
)


def to_bytes(header, rows, delimiter: str, bom: bool) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter)  # "\r\n" endings quote both \r and \n
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return (b"\xef\xbb\xbf" if bom else b"") + out.getvalue().encode("utf-8")


@st.composite
def delimited_inputs(draw):
    n_cols = draw(st.integers(1, 4))
    has_header = draw(st.booleans())
    rows = draw(st.lists(st.lists(CELL_TEXT, min_size=n_cols, max_size=n_cols),
                         min_size=0 if has_header else 1, max_size=14))
    header = [f"{draw(st.sampled_from(['', ' ']))}c{j}" for j in range(n_cols)]
    opts = IngestOptions(
        delimiter=draw(st.sampled_from([",", "\t", ";"])),
        has_header=has_header,
        table_name="t",
        na_token=draw(st.sampled_from(["NA", "null"])),
    )
    data = to_bytes(header if has_header else None, rows, opts.delimiter, draw(st.booleans()))
    return data, opts


def assert_matches_reference(data: bytes, opts: IngestOptions) -> None:
    table = ingest_delimited(data, opts)
    names, cells = reference_ingest(data, opts)
    assert table.column_names == names
    assert table.cells == cells
    assert table.row_count == (len(cells[0]) if cells else 0)
    assert Table.from_rows("t", names, list(zip(*cells))) == table
    for values, codes in zip(table.values, table.codes):
        assert len(set(values)) == len(values)
        assert (np.bincount(codes, minlength=len(values)) > 0).all()


@settings(max_examples=400, deadline=None)
@given(delimited_inputs(), st.integers(1, 5))
def test_ingest_matches_reference_parser(case, chunk):
    data, opts = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table_module, "_CHUNK_RECORDS", chunk)  # many chunks per input
        assert_matches_reference(data, opts)


def test_ingest_matches_reference_parser_beyond_one_chunk():
    rng = random.Random(4097)
    rows = [[rng.choice(TRICKY) for _ in range(3)] for _ in range(2 * 4096 + 17)]
    for has_header in (True, False):
        data = to_bytes(["a", "b", "c"] if has_header else None, rows, ",", bom=True)
        assert_matches_reference(data, IngestOptions(has_header=has_header, table_name="t"))
