"""The network serving layer: binary wire protocol, TCP server, client.

- :mod:`repro.net.frame` — length-prefixed, CRC-checksummed framing
  (the WAL's discipline, applied to a socket).
- :mod:`repro.net.protocol` — message codecs: results, options, and the
  stable wire-error taxonomy.
- :mod:`repro.net.server` — :class:`GraqlServer`, a thread-per-connection
  TCP server over the engine server (admission control, idle reaping,
  graceful drain).
- :mod:`repro.net.client` — :class:`RemoteConnection`, the same
  ``Connection`` surface as the in-process transports, over TCP.

See docs/NETWORK.md for the protocol specification.
"""

from repro.net.frame import (
    FrameSocket,
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
)
from repro.net.protocol import ERROR_CLASSES, decode_error, encode_error, error_code
from repro.net.client import (
    RemoteConnection,
    RemotePreparedStatement,
    parse_endpoints,
    parse_url,
    ping,
)
from repro.net.server import GraqlServer

__all__ = [
    "ERROR_CLASSES",
    "FrameSocket",
    "GraqlServer",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RemoteConnection",
    "RemotePreparedStatement",
    "decode_error",
    "decode_frame",
    "encode_error",
    "encode_frame",
    "error_code",
    "parse_endpoints",
    "parse_url",
    "ping",
]
