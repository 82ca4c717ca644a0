"""The column-buffer codec: a slice of a table as one byte string.

One format for moving table rows between processes without a per-row
encoding step.  A body holds rows ``[start, stop)`` of every column::

    [u32 nrows]
    [u8 tag][u32 nbytes][bytes]      column 0
    [u8 tag][u32 nbytes][bytes]      column 1
    ...

one section per schema column, in schema order.  ``tag`` names the
column's stored type and must match the schema the reader holds:

=========  ===  ==================================================
type       tag  section bytes
=========  ===  ==================================================
integer    1    ``<i8`` array (``tobytes`` of the stored data)
float      2    ``<f8`` array
date       3    ``<i8`` array of proleptic Gregorian ordinals
boolean    4    ``i1`` array
varchar    5    one JSON array of strings and ``null`` (ASCII)
=========  ===  ==================================================

NULLs travel inside the data as the stored sentinels
(:mod:`repro.dtypes.values`: ``INT_NULL``/``DATE_NULL``/``BOOL_NULL``,
NaN, ``None``), so no validity bitmap exists and fixed-width sections
decode bit-identically with ``np.frombuffer`` — NaN payloads and ``-0.0``
included.  A varchar section is JSON because the C JSON codec encodes
and decodes a whole column in one call, where an offsets + blob layout
needs a Python slice per value to decode; ``ensure_ascii`` escaping
keeps every Python string (lone surrogates too) exact.

The codec carries no checksum: the envelope around a body (a wire
frame's CRC) does.  Decoding still validates every length and tag
against the schema, so a checksum-valid body from a confused peer
raises :class:`~repro.errors.ProtocolError` instead of misparsing.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.dtypes.datatypes import Boolean, Date, Float, Integer, VarChar
from repro.errors import ProtocolError
from repro.storage.schema import Schema
from repro.storage.table import Table

_NROWS = struct.Struct("<I")
_SECTION = struct.Struct("<BI")

TAG_INTEGER = 1
TAG_FLOAT = 2
TAG_DATE = 3
TAG_BOOLEAN = 4
TAG_VARCHAR = 5

#: stored type -> (tag, wire dtype); None marks the JSON varchar section
_LAYOUT: dict[type, tuple[int, "np.dtype | None"]] = {
    Integer: (TAG_INTEGER, np.dtype("<i8")),
    Float: (TAG_FLOAT, np.dtype("<f8")),
    Date: (TAG_DATE, np.dtype("<i8")),
    Boolean: (TAG_BOOLEAN, np.dtype("i1")),
    VarChar: (TAG_VARCHAR, None),
}
_VARCHAR_VALUE_TYPES = frozenset((str, type(None)))


def encode_columns(table: Table, start: int, stop: int) -> bytes:
    """Rows ``[start, stop)`` of *table* (clamped to its length) as one
    column-buffer body."""
    stop = min(stop, table.num_rows)
    parts = [_NROWS.pack(max(stop - start, 0))]
    for cdef, col in zip(table.schema, table.columns):
        tag, wire = _LAYOUT[type(cdef.dtype)]
        chunk = col.data[start:stop]
        if wire is None:
            data = json.dumps(chunk.tolist(), separators=(",", ":")).encode("ascii")
        else:
            data = chunk.astype(wire, copy=False).tobytes()
        parts.append(_SECTION.pack(tag, len(data)))
        parts.append(data)
    return b"".join(parts)


def decode_columns(schema: Schema, body: bytes) -> list[np.ndarray]:
    """The column arrays of one body, in schema order.

    Fixed-width columns are read-only ``np.frombuffer`` views of *body*;
    varchar columns are object arrays.  Raises
    :class:`~repro.errors.ProtocolError` when the body's sections do not
    match *schema* — wrong tag, a length that disagrees with the row
    count, a truncated or overlong body, an undecodable varchar section.
    """
    if len(body) < _NROWS.size:
        raise ProtocolError(
            f"truncated column body ({len(body)} of {_NROWS.size} header bytes)"
        )
    (nrows,) = _NROWS.unpack_from(body, 0)
    off = _NROWS.size
    out: list[np.ndarray] = []
    for cdef in schema:
        if off + _SECTION.size > len(body):
            raise ProtocolError(
                f"truncated column body: no section for column {cdef.name!r}"
            )
        tag, nbytes = _SECTION.unpack_from(body, off)
        off += _SECTION.size
        want, wire = _LAYOUT[type(cdef.dtype)]
        if tag != want:
            raise ProtocolError(
                f"column {cdef.name!r}: section tag {tag} does not match "
                f"its {cdef.dtype.ddl()} type (tag {want})"
            )
        end = off + nbytes
        if end > len(body):
            raise ProtocolError(
                f"column {cdef.name!r}: {nbytes}-byte section overruns the "
                f"{len(body)}-byte body"
            )
        if wire is None:
            out.append(_decode_varchar(body[off:end], nrows, cdef.name))
        elif nbytes != nrows * wire.itemsize:
            raise ProtocolError(
                f"column {cdef.name!r}: {nbytes}-byte section for {nrows} "
                f"rows of {wire.itemsize} bytes"
            )
        else:
            out.append(np.frombuffer(body, dtype=wire, count=nrows, offset=off))
        off = end
    if off != len(body):
        raise ProtocolError(
            f"{len(body) - off} trailing bytes after the last column section"
        )
    return out


def _decode_varchar(section: bytes, nrows: int, name: str) -> np.ndarray:
    try:
        values = json.loads(section)
    except (ValueError, RecursionError) as e:
        raise ProtocolError(f"column {name!r}: undecodable varchar section: {e}") from None
    if not isinstance(values, list) or len(values) != nrows:
        got = len(values) if isinstance(values, list) else type(values).__name__
        raise ProtocolError(
            f"column {name!r}: varchar section holds {got}, not {nrows} values"
        )
    if not set(map(type, values)) <= _VARCHAR_VALUE_TYPES:
        raise ProtocolError(
            f"column {name!r}: varchar section holds a value that is neither "
            f"a string nor null"
        )
    arr = np.empty(nrows, dtype=object)
    arr[:] = values
    return arr
