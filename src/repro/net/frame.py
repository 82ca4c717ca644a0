"""The binary wire framing: length-prefixed, checksummed, typed.

Stream layout (after the client's 8-byte magic preamble)::

    GRQLNET1                                  preamble, client -> server
    [u8 type][u32 length][u32 crc32][payload]     frame 0
    [u8 type][u32 length][u32 crc32][payload]     frame 1
    ...

Each payload is one canonical-JSON message, except for the binary frame
types (:data:`BINARY_FRAME_TYPES`: the ``COLUMNS`` result stream, whose
payload is a :mod:`repro.storage.colcodec` body); ``length`` counts
payload bytes and ``crc32`` covers the type byte *and* the payload, so a bit
flip anywhere in type, length, checksum or body is detected: a wrong
length misaligns the checksum window, a wrong checksum fails outright,
and a corrupt body fails the check.  The discipline deliberately
mirrors :mod:`repro.durability.wal` — nothing past the first bad byte
is ever interpreted; a bad frame raises
:class:`~repro.errors.ProtocolError` and the connection dies rather
than misparse.

:class:`FrameSocket` wraps a connected TCP socket with framed
send/receive plus byte accounting (fed into the server's
``graql_net_bytes_*`` counters).
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Any, Tuple

from repro.errors import ProtocolError

#: stream preamble the client sends immediately after connecting
MAGIC = b"GRQLNET1"
#: protocol revision negotiated in HELLO; bumped on incompatible change
PROTOCOL_VERSION = 2

_HEADER = struct.Struct("<BII")
HEADER_LEN = _HEADER.size
#: sanity cap on one frame's payload; a length beyond this is corruption
#: (or abuse), not a message we should try to allocate
MAX_FRAME_BYTES = 64 * 1024 * 1024

# ----------------------------------------------------------------------
# Frame types
# ----------------------------------------------------------------------
FT_HELLO = 1          # client -> server: {proto, user}
FT_HELLO_OK = 2       # server -> client: {proto, session, server}
FT_EXECUTE = 3        # client -> server: {source, params?, options?, timeout_s?, batch_rows?}
FT_PREPARE = 4        # client -> server: {source}
FT_PREPARED = 5       # server -> client: {pid, params, ir_bytes, statements}
FT_EXEC_PREPARED = 6  # client -> server: {pid, params?, options?, batch_rows?}
FT_RESULT = 7         # server -> client: results header (stream follows if stream != null)
FT_BATCH = 8          # retired in v2 (JSON rows); still a defined type, never sent
FT_DONE = 9           # server -> client: {rows: n} — stream complete
FT_ERROR = 10         # server -> client: {code, message, attrs, span}
FT_BYE = 11           # client -> server: {} — orderly goodbye
# -- health checks (served without an admission-queue entry) -----------
FT_PING = 12          # client -> server: {} — may precede HELLO
FT_PONG = 13          # server -> client: {role, seq?, repl_epoch?, primary?, replicas?}
# -- WAL-shipping replication (docs/REPLICATION.md) --------------------
FT_REPL_SUBSCRIBE = 14  # replica -> primary: {from_seq, repl_epoch}
FT_REPL_SNAPSHOT = 15   # primary -> replica: {resume} | {snapshot} catch-up
FT_REPL_RECORD = 16     # primary -> replica: {record} — one WAL record
FT_REPL_ACK = 17        # replica -> primary: {seq} — durable through seq
FT_PROMOTE = 18         # admin -> replica: {} — promote to primary
FT_PROMOTED = 19        # replica -> admin: {repl_epoch, seq}
# -- binary result stream (protocol v2) ---------------------------------
FT_COLUMNS = 20       # server -> client: one colcodec body of the streamed table

FRAME_TYPES = frozenset(
    (FT_HELLO, FT_HELLO_OK, FT_EXECUTE, FT_PREPARE, FT_PREPARED,
     FT_EXEC_PREPARED, FT_RESULT, FT_BATCH, FT_DONE, FT_ERROR, FT_BYE,
     FT_PING, FT_PONG, FT_REPL_SUBSCRIBE, FT_REPL_SNAPSHOT,
     FT_REPL_RECORD, FT_REPL_ACK, FT_PROMOTE, FT_PROMOTED, FT_COLUMNS)
)
#: frame types whose payload is raw ``bytes`` rather than a JSON object
BINARY_FRAME_TYPES = frozenset((FT_COLUMNS,))

#: crc32 of each possible type byte: the seed the payload checksum
#: continues from, so type + payload are checksummed without a copy
_TYPE_CRC = tuple(zlib.crc32(bytes((t,))) for t in range(256))


def encode_frame(ftype: int, payload: Any) -> bytes:
    """Render one frame as header + payload bytes: canonical JSON for a
    dict payload, the bytes themselves for a binary frame type."""
    if ftype not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {ftype}")
    binary = ftype in BINARY_FRAME_TYPES
    if binary != isinstance(payload, bytes):
        raise ProtocolError(
            f"frame type {ftype} carries {'bytes' if binary else 'a JSON object'}, "
            f"got {type(payload).__name__}"
        )
    body = payload if binary else (
        json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    )
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(ftype, len(body), zlib.crc32(body, _TYPE_CRC[ftype])) + body


def decode_frame(blob: bytes, offset: int = 0) -> Tuple[int, Any, int]:
    """Decode the frame starting at *offset*; returns
    ``(type, payload, next_offset)`` — the payload is a dict, or the
    checksummed body ``bytes`` for a binary frame type.

    Raises :class:`~repro.errors.ProtocolError` on any violation —
    truncated header or body, unknown type, oversized length, checksum
    mismatch, undecodable payload.  Never returns a partially-decoded
    frame.
    """
    if offset + HEADER_LEN > len(blob):
        raise ProtocolError(
            f"truncated frame header at offset {offset} "
            f"({len(blob) - offset} of {HEADER_LEN} bytes)"
        )
    ftype, length, crc = _HEADER.unpack_from(blob, offset)
    _check_length(length)
    start = offset + HEADER_LEN
    if start + length > len(blob):
        raise ProtocolError(
            f"truncated frame payload at offset {start} "
            f"({len(blob) - start} of {length} bytes)"
        )
    body = blob[start : start + length]
    return ftype, _payload(ftype, crc, body, offset), start + length


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )


def _payload(ftype: int, crc: int, body: bytes, offset: int) -> Any:
    """Checksum, type check and payload decoding of one frame body."""
    if zlib.crc32(body, _TYPE_CRC[ftype]) != crc:
        raise ProtocolError(f"frame checksum mismatch at offset {offset}")
    if ftype not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {ftype} at offset {offset}")
    if ftype in BINARY_FRAME_TYPES:
        return body
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as e:
        raise ProtocolError(f"undecodable frame payload: {e}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    return payload


class FrameSocket:
    """Framed, checksummed messaging over one connected socket.

    Owns nothing but the conversation: callers create/close the
    underlying socket.  ``bytes_sent`` / ``bytes_received`` account
    every wire byte that passed through, for the server's metrics.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    def send_magic(self) -> None:
        self._send_all(MAGIC)

    def expect_magic(self) -> None:
        got = self._recv_exact(len(MAGIC), context="magic preamble")
        if got != MAGIC:
            raise ProtocolError(
                f"bad magic preamble {got!r} (expected {MAGIC!r})"
            )

    def send_frame(self, ftype: int, payload: Any) -> None:
        self._send_all(encode_frame(ftype, payload))

    def recv_frame(self) -> Tuple[int, Any]:
        """Read exactly one frame (payload as :func:`decode_frame` returns
        it); :class:`~repro.errors.ProtocolError` on EOF, truncation or
        corruption."""
        header = self._recv_exact(HEADER_LEN, context="frame header")
        ftype, length, crc = _HEADER.unpack_from(header, 0)
        _check_length(length)
        body = self._recv_exact(length, context="frame payload")
        return ftype, _payload(ftype, crc, body, 0)

    # ------------------------------------------------------------------
    def _send_all(self, data: bytes) -> None:
        try:
            self.sock.sendall(data)
        except OSError as e:
            raise ProtocolError(f"connection lost while sending: {e}") from e
        self.bytes_sent += len(data)

    def _recv_exact(self, n: int, context: str) -> bytes:
        chunks: list[bytes] = []
        remaining = n
        while remaining > 0:
            try:
                chunk = self.sock.recv(min(remaining, 1 << 20))
            except socket.timeout:
                raise
            except OSError as e:
                raise ProtocolError(
                    f"connection lost while reading {context}: {e}"
                ) from e
            if not chunk:
                if chunks or remaining != n:
                    raise ProtocolError(
                        f"connection closed by peer mid-{context}"
                    )
                raise ProtocolError("connection closed by peer")
            chunks.append(chunk)
            remaining -= len(chunk)
        data = b"".join(chunks)
        self.bytes_received += len(data)
        return data

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
