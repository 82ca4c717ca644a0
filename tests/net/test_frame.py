"""Wire framing: round-trip fidelity and corruption rejection.

The protocol's promise mirrors the WAL's: a frame either decodes to
exactly what was sent, or raises :class:`~repro.errors.ProtocolError` —
truncated or bit-flipped bytes are *rejected*, never misparsed into a
different message.  The properties cover the JSON frame types and the
binary ``COLUMNS`` type alike.
"""

from __future__ import annotations

import json
import struct
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dtypes import parse_type_name
from repro.errors import ProtocolError
from repro.net.frame import (
    BINARY_FRAME_TYPES,
    FRAME_TYPES,
    FT_BATCH,
    FT_COLUMNS,
    FT_EXECUTE,
    FT_HELLO,
    HEADER_LEN,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
)
from repro.storage.colcodec import decode_columns, encode_columns
from repro.storage.schema import ColumnDef, Schema
from repro.storage.table import Table

# JSON-native payloads as they appear on the wire (no NaN: canonical
# JSON via json.dumps round-trips it, but equality comparison doesn't)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12,
)
payloads = st.dictionaries(st.text(max_size=16), json_values, max_size=6)
json_frame_types = st.sampled_from(sorted(FRAME_TYPES - BINARY_FRAME_TYPES))
#: (type, payload) of any frame: a JSON object for the JSON types, bytes
#: (at the frame layer, any bytes) for the binary ones
frames = st.one_of(
    st.tuples(json_frame_types, payloads),
    st.tuples(st.sampled_from(sorted(BINARY_FRAME_TYPES)), st.binary(max_size=300)),
)


def _as_decoded(ftype, payload):
    if ftype in BINARY_FRAME_TYPES:
        return payload
    return json.loads(json.dumps(payload))


@given(frame=frames)
@settings(max_examples=80, deadline=None)
def test_round_trip(frame):
    ftype, payload = frame
    blob = encode_frame(ftype, payload)
    got_type, got_payload, consumed = decode_frame(blob)
    assert got_type == ftype
    assert got_payload == _as_decoded(ftype, payload)
    assert type(got_payload) is (bytes if ftype in BINARY_FRAME_TYPES else dict)
    assert consumed == len(blob)


@given(frame=frames, cut=st.integers(min_value=0, max_value=200))
@settings(max_examples=80, deadline=None)
def test_any_truncation_is_rejected(frame, cut):
    blob = encode_frame(*frame)
    cut = min(cut, len(blob) - 1)
    with pytest.raises(ProtocolError):
        decode_frame(blob[:cut])


@given(frame=frames, data=st.data())
@settings(max_examples=120, deadline=None)
def test_any_single_bit_flip_is_rejected(frame, data):
    """CRC32 over type byte + payload catches a flip *anywhere*: in the
    type, the length (misaligned checksum window), the checksum itself,
    or the body."""
    blob = bytearray(encode_frame(*frame))
    bit = data.draw(st.integers(min_value=0, max_value=len(blob) * 8 - 1))
    blob[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(ProtocolError):
        decode_frame(bytes(blob))


def test_every_bit_flip_of_a_small_frame_exhaustively():
    blob = encode_frame(FT_HELLO, {"proto": 1, "user": "admin"})
    for bit in range(len(blob) * 8):
        mutated = bytearray(blob)
        mutated[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ProtocolError):
            decode_frame(bytes(mutated))


@given(sequence=st.lists(frames, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_concatenated_frames_decode_in_sequence(sequence):
    blob = b"".join(encode_frame(t, p) for t, p in sequence)
    offset = 0
    decoded = []
    while offset < len(blob):
        t, p, offset = decode_frame(blob, offset)
        decoded.append((t, p))
    assert decoded == [(t, _as_decoded(t, p)) for t, p in sequence]


def _columns_frame() -> tuple[Schema, bytes]:
    """A real COLUMNS frame: three rows of every stored type."""
    schema = Schema(
        ColumnDef(name, parse_type_name(ddl))
        for name, ddl in (
            ("i", "integer"), ("f", "float"), ("d", "date"),
            ("b", "boolean"), ("s", "varchar(8)"),
        )
    )
    rows = [(1, 0.5, 730000, 1, "a"), (-2, float("nan"), 730001, 0, None),
            (3, -0.0, 730002, -1, "")]
    table = Table.from_rows("T", schema, rows)
    return schema, encode_frame(FT_COLUMNS, encode_columns(table, 0, 3))


def test_every_truncation_and_bit_flip_of_a_columns_frame_is_rejected():
    schema, blob = _columns_frame()
    _, body, _ = decode_frame(blob)
    assert [len(c) for c in decode_columns(schema, body)] == [3] * 5
    for cut in range(len(blob)):
        with pytest.raises(ProtocolError):
            decode_frame(blob[:cut])
    for bit in range(len(blob) * 8):
        mutated = bytearray(blob)
        mutated[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ProtocolError):
            decode_frame(bytes(mutated))


def test_checksum_valid_columns_body_with_wrong_tag_is_rejected():
    """The CRC only proves the bytes are what the peer sent; the column
    codec still refuses a body that disagrees with the schema."""
    schema, blob = _columns_frame()
    _, body, _ = decode_frame(blob)
    bad = bytearray(body)
    bad[4] = 3  # the integer column's section claims to be a date
    _, got, _ = decode_frame(encode_frame(FT_COLUMNS, bytes(bad)))
    with pytest.raises(ProtocolError, match="tag"):
        decode_columns(schema, got)


def test_payload_kind_must_match_the_frame_type():
    with pytest.raises(ProtocolError, match="carries bytes"):
        encode_frame(FT_COLUMNS, {"rows": []})
    with pytest.raises(ProtocolError, match="carries a JSON object"):
        encode_frame(FT_BATCH, b"\x00")


def test_retired_json_batch_frame_still_round_trips():
    """v2 never sends BATCH, but the type stays defined and JSON-framed:
    the benchmark's traced pass replays the v1 codec through it."""
    rows = [[1, "a", None, 2.5], [2, "", None, -0.0]]
    _, payload, _ = decode_frame(encode_frame(FT_BATCH, {"rows": rows}))
    assert payload["rows"] == rows
    assert FT_COLUMNS == 20 and PROTOCOL_VERSION == 2


def test_unknown_frame_type_rejected_on_both_sides():
    with pytest.raises(ProtocolError, match="unknown frame type"):
        encode_frame(99, {})
    body = b"{}"
    crc = zlib.crc32(bytes((99,)) + body)
    blob = struct.pack("<BII", 99, len(body), crc) + body
    with pytest.raises(ProtocolError, match="unknown frame type"):
        decode_frame(blob)


def test_oversized_length_rejected_without_allocation():
    blob = struct.pack("<BII", FT_BATCH, MAX_FRAME_BYTES + 1, 0)
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_frame(blob)


def test_non_object_payload_rejected():
    body = b"[1,2,3]"
    crc = zlib.crc32(bytes((FT_EXECUTE,)) + body)
    blob = struct.pack("<BII", FT_EXECUTE, len(body), crc) + body
    with pytest.raises(ProtocolError, match="must be an object"):
        decode_frame(blob)


def test_undecodable_payload_rejected():
    body = b"\xff\xfe not json"
    crc = zlib.crc32(bytes((FT_EXECUTE,)) + body)
    blob = struct.pack("<BII", FT_EXECUTE, len(body), crc) + body
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_frame(blob)


def test_trailing_garbage_after_valid_frame_is_rejected_not_misparsed():
    blob = encode_frame(FT_HELLO, {"proto": 1}) + b"\x00\x01\x02"
    _, _, offset = decode_frame(blob)  # first frame is fine
    with pytest.raises(ProtocolError):
        decode_frame(blob, offset)


def test_header_len_is_type_length_crc():
    assert HEADER_LEN == 1 + 4 + 4
