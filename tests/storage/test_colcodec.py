"""The column-buffer codec: bit-exact round trips and schema validation.

``decode_columns(encode_columns(t))`` must give back the stored arrays
bit for bit — NULL sentinels, NaN payloads, ``-0.0``, infinities,
``''`` vs NULL, any text — at the row counts the result stream produces
(empty, one row, one full batch, a batch plus one).  A body that
disagrees with the schema raises :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import json
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.dtypes import BOOLEAN, DATE, FLOAT, INTEGER, VarChar
from repro.dtypes.values import BOOL_NULL, DATE_NULL, INT_NULL
from repro.errors import ProtocolError
from repro.serve.connection import DEFAULT_BATCH_ROWS
from repro.storage.colcodec import (
    TAG_DATE,
    TAG_INTEGER,
    TAG_VARCHAR,
    decode_columns,
    encode_columns,
)
from repro.storage.column import Column
from repro.storage.schema import ColumnDef, Schema
from repro.storage.table import Table

#: a NaN with a non-default payload: must survive bit for bit
ODD_NAN = struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]
TRICKY_TEXT = ["", '"', "\\", "\x00", "\n", "a\"b\\c\x00d\ne", "é", "日本語", "\ud800"]

VALUES = {
    INTEGER: st.sampled_from([INT_NULL, 0, -1, 2**63 - 1])
    | st.integers(min_value=INT_NULL, max_value=2**63 - 1),
    FLOAT: st.sampled_from([float("nan"), ODD_NAN, -0.0, 0.0, float("inf"), -float("inf")])
    | st.floats(allow_nan=True, allow_infinity=True),
    DATE: st.sampled_from([DATE_NULL, 1, 3652059]) | st.integers(1, 3652059),
    BOOLEAN: st.sampled_from([0, 1, BOOL_NULL]),
    VarChar(64): st.none() | st.sampled_from(TRICKY_TEXT) | st.text(max_size=12),
}
#: the row counts a streamed batch takes: empty, single, full, full + 1
ROW_COUNTS = [0, 1, DEFAULT_BATCH_ROWS, DEFAULT_BATCH_ROWS + 1]


@st.composite
def tables(draw):
    """A table over every stored type.  Each column draws a small pool of
    values and tiles it to the row count, so the large counts stay cheap
    for hypothesis while the values stay adversarial."""
    n = draw(st.sampled_from(ROW_COUNTS))
    defs, cols = [], []
    for i, (dtype, values) in enumerate(VALUES.items()):
        pool = draw(st.lists(values, min_size=1, max_size=8))
        vals = [pool[j % len(pool)] for j in range(n)]
        defs.append(ColumnDef(f"c{i}", dtype))
        cols.append(Column.from_values(dtype, vals))
    return Table("T", Schema(defs), cols)


def assert_bit_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert len(got) == len(want)
    if want.dtype == object:
        # type + value: '' and None (NULL) must not merge
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
    else:
        assert got.tobytes() == want.tobytes()


@given(table=tables())
@settings(max_examples=60, deadline=None)
def test_round_trip_is_bit_identical(table):
    got = decode_columns(table.schema, encode_columns(table, 0, table.num_rows))
    for arr, col in zip(got, table.columns):
        assert_bit_identical(arr, col.data)


@given(table=tables(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_batches_concatenate_to_the_table(table, data):
    """What the client does with a stream: decode each batch, concatenate
    per column."""
    size = data.draw(st.integers(min_value=1, max_value=DEFAULT_BATCH_ROWS + 1))
    chunks = [
        decode_columns(table.schema, encode_columns(table, start, start + size))
        for start in range(0, table.num_rows, size)
    ]
    for i, col in enumerate(table.columns):
        parts = [c[i] for c in chunks]
        got = np.concatenate(parts) if parts else col.data[:0]
        assert_bit_identical(got, col.data)


def test_stop_past_the_end_is_clamped():
    table = Table.from_rows("T", Schema([ColumnDef("i", INTEGER)]), [(1,), (2,)])
    (got,) = decode_columns(table.schema, encode_columns(table, 1, 10))
    assert got.tolist() == [2]


def test_fixed_width_columns_are_views_of_the_body():
    table = Table.from_rows("T", Schema([ColumnDef("f", FLOAT)]), [(1.5,), (2.5,)])
    body = encode_columns(table, 0, 2)
    (got,) = decode_columns(table.schema, body)
    assert got.base is not None and not got.flags.writeable


# ----------------------------------------------------------------------
# Validation: checksum-valid bodies that disagree with the schema
# ----------------------------------------------------------------------

INT_SCHEMA = Schema([ColumnDef("i", INTEGER)])
STR_SCHEMA = Schema([ColumnDef("s", VarChar(8))])


def body(nrows: int, *sections: tuple[int, bytes]) -> bytes:
    out = struct.pack("<I", nrows)
    for tag, data in sections:
        out += struct.pack("<BI", tag, len(data)) + data
    return out


def ints(*vals: int) -> bytes:
    return np.asarray(vals, dtype="<i8").tobytes()


def strs(*vals) -> bytes:
    return json.dumps(list(vals)).encode()


def test_valid_hand_built_bodies_decode():
    assert decode_columns(INT_SCHEMA, body(2, (TAG_INTEGER, ints(1, 2))))[0].tolist() == [1, 2]
    assert decode_columns(STR_SCHEMA, body(2, (TAG_VARCHAR, strs("a", None))))[0].tolist() == ["a", None]


@pytest.mark.parametrize(
    "schema, blob, match",
    [
        (INT_SCHEMA, body(2, (TAG_DATE, ints(1, 2))), "tag"),
        (INT_SCHEMA, body(2, (TAG_VARCHAR, strs("a", "b"))), "tag"),
        (INT_SCHEMA, body(2, (TAG_INTEGER, ints(1))), "section for 2 rows"),
        (INT_SCHEMA, body(1, (TAG_INTEGER, ints(1, 2))), "section for 1 rows"),
        (INT_SCHEMA, body(2, (TAG_INTEGER, ints(1, 2)))[:-1], "overruns"),
        (INT_SCHEMA, body(1, (TAG_INTEGER, ints(1))) + b"\x00", "trailing"),
        (INT_SCHEMA, body(1), "no section"),
        (INT_SCHEMA, b"\x01\x00", "truncated"),
        (STR_SCHEMA, body(3, (TAG_VARCHAR, strs("a", "b"))), "not 3 values"),
        (STR_SCHEMA, body(1, (TAG_VARCHAR, b'{"a": 1}')), "not 1 values"),
        (STR_SCHEMA, body(2, (TAG_VARCHAR, strs("a", 7))), "neither a string nor null"),
        (STR_SCHEMA, body(1, (TAG_VARCHAR, b'["a"')), "undecodable"),
    ],
    ids=[
        "date-tag-for-integer", "varchar-tag-for-integer", "short-section",
        "long-section", "truncated-section", "trailing-bytes", "missing-section",
        "truncated-header", "varchar-count", "varchar-not-a-list",
        "varchar-non-string", "varchar-bad-json",
    ],
)
def test_body_that_disagrees_with_the_schema_is_rejected(schema, blob, match):
    with pytest.raises(ProtocolError, match=match):
        decode_columns(schema, blob)
