"""The network client: :class:`RemoteConnection`.

``connect("graql://host:port")`` returns one of these — the same
:class:`~repro.serve.connection.Connection` ABC as the in-process
transports, so cursors, prepared statements and
:class:`~repro.storage.table.Row` behave identically; the difference is
that statements execute inside the :class:`~repro.net.GraqlServer` at
the other end of the socket.

Result tables are **streamed**: ``execute`` drains the stream and hands
back fully-materialized results, while a :class:`Cursor` consumes
COLUMNS frames off the socket as the consumer advances — ``fetchmany(n)``
on a million-row result pulls only the frames it needs.  Each frame
decodes to column arrays (:mod:`repro.storage.colcodec`); ``Row``
objects are built only for the batches a cursor hands out, and the
finished table is the per-column concatenation of the frames.  One
request runs at a time per connection (the protocol is strictly
request/response); a new request on a connection with an unfinished
cursor first buffers the remaining frames so the cursor still completes
from memory.

Server-side errors arrive as one ERROR frame and re-raise here as the
originating :mod:`repro.errors` class with its attributes intact
(``ServerBusy.reason``, ``ParseError.line``/``column``, ...), plus the
server's request span under ``remote_span``.

The connection is **self-healing** (docs/REPLICATION.md):

* ``connect("graql://h1:p1,h2:p2")`` takes a comma-separated endpoint
  list and dials the first that answers;
* a transport fault (peer vanished, reset, corrupt frame) during an
  **idempotent** request — any script with no write statements, or a
  PREPARE — is retried on a fresh connection with capped exponential
  backoff plus jitter, walking the endpoint list.  Non-idempotent
  statements and exhausted retries poison the connection (every later
  call fails fast with :class:`~repro.errors.ClosedError`): a write
  interrupted mid-flight is ambiguous and must surface;
* a :class:`~repro.errors.NotPrimary` rejection (the endpoint is a
  read-only replica) is followed as a redirect — the statement never
  ran, so this is safe for writes too — re-dialing the primary the
  error names, or re-walking the endpoint list after a failover until
  a writable node answers;
* prepared statements survive reconnects: the server-side statement id
  dies with the session, so they transparently re-prepare on the new
  connection.

The one non-healing window is a cursor mid-stream: rows already handed
to the application cannot be glued to a retried stream, so the cursor's
consumer sees :class:`~repro.errors.ProtocolError` — but the
*connection* recovers on its next request instead of poisoning.

A ``RemoteConnection`` is not thread-safe — it is one socket carrying
one conversation.  Open one connection per thread; the server end
multiplexes them through its admission-controlled engine.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Callable, Iterator, Mapping, Optional, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.errors import ClosedError, GraQLError, NotPrimary, ProtocolError
from repro.net.frame import (
    FT_BYE,
    FT_COLUMNS,
    FT_DONE,
    FT_ERROR,
    FT_EXEC_PREPARED,
    FT_EXECUTE,
    FT_HELLO,
    FT_HELLO_OK,
    FT_PING,
    FT_PONG,
    FT_PREPARE,
    FT_PREPARED,
    FT_RESULT,
    FrameSocket,
    PROTOCOL_VERSION,
)
from repro.net.protocol import (
    decode_error,
    decode_result,
    encode_options,
    schema_from_meta,
)
from repro.obs.options import QueryOptions
from repro.query.executor import StatementResult
from repro.serve.connection import (
    BasePreparedStatement,
    Connection,
    CursorExec,
    DEFAULT_BATCH_ROWS,
)
from repro.storage.colcodec import decode_columns
from repro.storage.column import Column
from repro.storage.table import Row, Table

#: bounded-retry defaults for idempotent requests (docs/REPLICATION.md)
DEFAULT_RETRY_ATTEMPTS = 5
DEFAULT_MAX_REDIRECTS = 5
RETRY_BASE_DELAY = 0.05
RETRY_MAX_DELAY = 1.0


def parse_url(url: str) -> Tuple[str, int]:
    """``graql://host:port`` -> ``(host, port)`` (single endpoint)."""
    parts = urlsplit(url)
    if parts.scheme != "graql":
        raise ProtocolError(f"not a graql:// URL: {url!r}")
    if not parts.hostname or parts.port is None:
        raise ProtocolError(
            f"a graql:// URL needs host and port, got {url!r}"
        )
    return parts.hostname, parts.port


def parse_endpoints(url: str) -> list[Tuple[str, int]]:
    """``graql://h1:p1,h2:p2,...`` -> ordered ``(host, port)`` list.

    The multi-endpoint form names the nodes of one replicated
    deployment; the client dials them in order until one answers.
    """
    if not url.startswith("graql://"):
        raise ProtocolError(f"not a graql:// URL: {url!r}")
    netloc = url[len("graql://"):].split("/", 1)[0]
    endpoints = []
    for part in netloc.split(","):
        part = part.strip()
        if not part:
            continue
        endpoints.append(parse_url(f"graql://{part}"))
    if not endpoints:
        raise ProtocolError(f"a graql:// URL needs host and port, got {url!r}")
    return endpoints


def ping(url: str, *, timeout: float = 5.0) -> dict[str, Any]:
    """One PING/PONG exchange with the first answering endpoint.

    Served by the node without authentication or an admission-queue
    entry, so it answers even when the engine is saturated.  Returns
    the PONG payload — role, WAL position, replication epoch, primary
    URL and per-replica lag — plus the measured ``rtt_s`` and the
    ``endpoint`` that answered.
    """
    last: Optional[Exception] = None
    for host, port in parse_endpoints(url):
        t0 = time.perf_counter()
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as e:
            last = ProtocolError(f"cannot connect to graql://{host}:{port}: {e}")
            continue
        fs = FrameSocket(sock)
        try:
            sock.settimeout(timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            fs.send_magic()
            fs.send_frame(FT_PING, {})
            ftype, payload = fs.recv_frame()
            if ftype == FT_ERROR:
                raise decode_error(payload)
            if ftype != FT_PONG:
                raise ProtocolError(f"expected PONG, got frame type {ftype}")
            payload["rtt_s"] = round(time.perf_counter() - t0, 6)
            payload["endpoint"] = f"graql://{host}:{port}"
            return payload
        except (ProtocolError, socket.timeout) as e:
            last = e
            continue
        finally:
            fs.close()
    assert last is not None
    raise last


class RemoteConnection(Connection):
    """A TCP client session against a :class:`~repro.net.GraqlServer`."""

    def __init__(
        self,
        url: str,
        user: str = "admin",
        *,
        connect_timeout: float = 10.0,
        request_timeout: Optional[float] = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        retry_attempts: int = DEFAULT_RETRY_ATTEMPTS,
        max_redirects: int = DEFAULT_MAX_REDIRECTS,
    ) -> None:
        #: the deployment's endpoints, in dialing order; NotPrimary
        #: redirects push the named primary to the front
        self.endpoints = parse_endpoints(url)
        self.batch_rows = max(1, int(batch_rows))
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retry_attempts = max(0, int(retry_attempts))
        self.max_redirects = max(0, int(max_redirects))
        super().__init__(user)
        self._fs: Optional[FrameSocket] = None
        self._active: Optional[_ResultStream] = None
        self._broken = False
        #: bumped per successful dial; prepared statements re-prepare
        #: when their generation is stale
        self._generation = 0
        self.url = ""
        self._connect_once()

    # ------------------------------------------------------------------
    # Dialing / healing
    # ------------------------------------------------------------------
    def _connect_once(self) -> None:
        """One pass over the endpoint list; first success wins.

        Transport failures move on to the next endpoint; a typed server
        rejection (bad user, version mismatch) raises immediately — no
        other endpoint would answer differently.
        """
        last: Optional[Exception] = None
        for host, port in self.endpoints:
            try:
                self._dial(host, port)
                return
            except (ProtocolError, socket.timeout) as e:
                last = e
        assert last is not None
        raise last

    def _dial(self, host: str, port: int) -> None:
        try:
            sock = socket.create_connection(
                (host, port), timeout=self.connect_timeout
            )
        except OSError as e:
            raise ProtocolError(
                f"cannot connect to graql://{host}:{port}: {e}"
            ) from e
        sock.settimeout(self.request_timeout)
        # frames are small and the protocol is request/response: without
        # TCP_NODELAY, Nagle + delayed-ACK stalls every exchange ~40ms
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        fs = FrameSocket(sock)
        try:
            fs.send_magic()
            fs.send_frame(FT_HELLO, {"proto": PROTOCOL_VERSION, "user": self.user})
            ftype, payload = fs.recv_frame()
            if ftype == FT_ERROR:
                raise decode_error(payload)
            if ftype != FT_HELLO_OK:
                raise ProtocolError(
                    f"expected HELLO_OK to open the session, got frame type {ftype}"
                )
        except BaseException:
            fs.close()
            raise
        self._fs = fs
        self._broken = False
        self._active = None
        self._generation += 1
        self.url = f"graql://{host}:{port}"
        #: server-assigned connection id (appears in request spans)
        self.session_id = payload.get("session")
        #: the server's stream batch size (== DEFAULT_BATCH_ROWS unless
        #: the server was tuned)
        self.server_batch_rows = payload.get("batch_rows")

    def _reconnect(self) -> None:
        if self._fs is not None:
            self._fs.close()
        self._active = None
        self._connect_once()

    def _adopt_primary(self, primary_url: str) -> None:
        """A NotPrimary redirect named the primary: dial it first."""
        try:
            endpoint = parse_endpoints(primary_url)[0]
        except ProtocolError:
            return  # a malformed hint never breaks the endpoint list
        if endpoint in self.endpoints:
            self.endpoints.remove(endpoint)
        self.endpoints.insert(0, endpoint)

    def _rotate_endpoints(self) -> None:
        """No primary hint: try the endpoints in a different order."""
        if len(self.endpoints) > 1:
            self.endpoints.append(self.endpoints.pop(0))

    @staticmethod
    def _backoff(attempt: int) -> None:
        delay = min(RETRY_BASE_DELAY * (2 ** attempt), RETRY_MAX_DELAY)
        time.sleep(delay * (0.5 + random.random() / 2))  # full-ish jitter

    def _run_with_healing(
        self, fn: Callable[[], Any], *, idempotent: bool
    ) -> Any:
        """Run one request, healing the transport around it.

        Transport faults reconnect-and-retry (bounded, backed off) when
        *idempotent*; otherwise they poison.  NotPrimary redirects are
        followed for any statement — the server rejected it before
        executing, so nothing ran.
        """
        attempts = 0
        redirects = 0
        while True:
            try:
                self._check_open()
                if self._broken or self._fs is None:
                    self._reconnect()
                return fn()
            except NotPrimary as e:
                if redirects >= self.max_redirects:
                    raise
                redirects += 1
                if e.primary:
                    self._adopt_primary(e.primary)
                else:
                    # mid-failover: nobody claims the crown yet; back
                    # off and re-walk the deployment
                    self._rotate_endpoints()
                    self._backoff(redirects - 1)
                self._drop_transport()
            except (ProtocolError, socket.timeout):
                if not idempotent or attempts >= self.retry_attempts:
                    self._poison()
                    raise
                attempts += 1
                self._drop_transport()
                self._backoff(attempts - 1)

    def _drop_transport(self) -> None:
        """Mark the transport dead; the next attempt re-dials."""
        self._broken = True
        self._active = None
        if self._fs is not None:
            self._fs.close()

    @staticmethod
    def _source_is_write(source: str) -> bool:
        """Client-side idempotency classification: same rule as the
        server's admission (:func:`repro.serve.engine.script_is_write`).
        An unparseable script is classified read — nothing would ever
        execute, so retrying it is harmless."""
        from repro.graql.parser import parse_script
        from repro.serve.engine import script_is_write

        try:
            return script_is_write(parse_script(source))
        except GraQLError:
            return False

    # ------------------------------------------------------------------
    # Execution surface (Connection ABC)
    # ------------------------------------------------------------------
    def execute(
        self,
        source: str,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
        timeout_s: Optional[float] = None,
    ) -> list[StatementResult]:
        payload = self._execute_payload(
            source, params, options, timeout_s, self.batch_rows
        )

        def attempt() -> list[StatementResult]:
            stream = self._request_stream(FT_EXECUTE, payload)
            stream.drain()
            return stream.results

        return self._run_with_healing(
            attempt, idempotent=not self._source_is_write(source)
        )

    def prepare(self, source: str) -> "RemotePreparedStatement":
        # PREPARE only compiles — always safe to retry
        payload = self._run_with_healing(
            lambda: self._prepare_raw(source), idempotent=True
        )
        return RemotePreparedStatement(self, source, payload)

    def _prepare_raw(self, source: str) -> dict[str, Any]:
        self._check_open()
        self._settle()
        self._fs.send_frame(FT_PREPARE, {"source": source})
        ftype, payload = self._recv()
        if ftype == FT_ERROR:
            raise decode_error(payload)
        if ftype != FT_PREPARED:
            self._drop_transport()
            raise ProtocolError(f"expected PREPARED, got frame type {ftype}")
        return payload

    def _cursor_run(
        self,
        source: str,
        params: Optional[Mapping[str, Any]],
        options: Optional[QueryOptions],
        batch_size: int,
    ) -> CursorExec:
        payload = self._execute_payload(source, params, options, None, batch_size)
        # healing covers establishing the stream; a fault mid-cursor
        # surfaces to the consumer (rows already handed out cannot be
        # glued to a retried stream)
        stream = self._run_with_healing(
            lambda: self._request_stream(FT_EXECUTE, payload),
            idempotent=not self._source_is_write(source),
        )
        return stream.cursor_exec()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _execute_payload(source, params, options, timeout_s, batch_rows):
        payload: dict[str, Any] = {
            "source": source,
            "batch_rows": batch_rows,
        }
        if params:
            payload["params"] = dict(params)
        opts = encode_options(options)
        if opts is not None:
            payload["options"] = opts
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        return payload

    def _request_stream(self, ftype: int, payload: dict) -> "_ResultStream":
        self._check_open()
        self._settle()
        self._fs.send_frame(ftype, payload)
        rt, rp = self._recv()
        if rt == FT_ERROR:
            raise decode_error(rp)
        if rt != FT_RESULT:
            self._drop_transport()
            raise ProtocolError(f"expected RESULT, got frame type {rt}")
        stream = _ResultStream(self, rp)
        if not stream.done:
            self._active = stream
        return stream

    def _recv(self) -> Tuple[int, dict]:
        """One frame; a transport failure breaks (not poisons) the
        connection — the healing wrapper or the next request re-dials."""
        try:
            return self._fs.recv_frame()
        except (ProtocolError, socket.timeout):
            self._drop_transport()
            raise

    def _settle(self) -> None:
        """Buffer any unfinished stream so the socket is request-clean."""
        if self._active is not None:
            self._active.drain()

    def _poison(self) -> None:
        """Unrecoverable: a write died mid-flight or retries ran out."""
        self._closed = True
        self._active = None
        if self._fs is not None:
            self._fs.close()

    # ------------------------------------------------------------------
    def _do_close(self) -> None:
        try:
            if not self._broken and self._fs is not None:
                self._settle()
                self._fs.send_frame(FT_BYE, {})
        except (ProtocolError, OSError, socket.timeout):
            pass
        self._active = None
        if self._fs is not None:
            self._fs.close()

    def _abort(self) -> None:
        """Tear the socket down with no goodbye (tests use this to
        simulate a client dying mid-stream)."""
        self._closed = True
        self._active = None
        if self._fs is not None:
            self._fs.close()

    def __repr__(self) -> str:
        state = (
            "closed" if self._closed
            else "broken" if self._broken else "open"
        )
        return f"RemoteConnection({self.url}, user={self.user!r}, {state})"


class RemotePreparedStatement(BasePreparedStatement):
    """A statement compiled once inside the server's session.

    The client holds only the server-assigned id plus the metadata
    needed for parity with the in-process
    :class:`~repro.serve.connection.PreparedStatement`: ``param_names``
    (missing bindings raise :class:`~repro.errors.TypeCheckError`
    before any bytes move) and ``ir_size``.  The id is session-scoped,
    so after the connection heals onto a new session the statement
    re-prepares itself transparently (same source, new pid).
    """

    def __init__(self, connection: RemoteConnection, source: str, payload) -> None:
        self.connection = connection
        self.source = source
        self._load(payload)
        self._generation = connection._generation

    def _load(self, payload) -> None:
        self.pid = int(payload["pid"])
        self.param_names = tuple(payload.get("params") or ())
        #: binary IR bytes the server compiled for this statement
        self.ir_size = int(payload.get("ir_bytes", 0))
        self.num_statements = int(payload.get("statements", 0))

    def _refresh(self) -> None:
        """Re-prepare on the current session if ours died with an old
        connection (called inside the healing loop, so a reconnect
        mid-request re-prepares before the retry)."""
        conn = self.connection
        if self._generation != conn._generation:
            self._load(conn._prepare_raw(self.source))
            self._generation = conn._generation

    def _payload(self, params, options, batch_rows) -> dict[str, Any]:
        payload: dict[str, Any] = {"pid": self.pid, "batch_rows": batch_rows}
        if params:
            payload["params"] = dict(params)
        opts = encode_options(options)
        if opts is not None:
            payload["options"] = opts
        return payload

    def execute(
        self,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
    ) -> list[StatementResult]:
        conn = self.connection
        conn._check_open()
        self._require_params(params)

        def attempt() -> list[StatementResult]:
            self._refresh()
            stream = conn._request_stream(
                FT_EXEC_PREPARED,
                self._payload(params, options, conn.batch_rows),
            )
            stream.drain()
            return stream.results

        return self._run(attempt)

    def _cursor_exec(
        self,
        params: Optional[Mapping[str, Any]],
        options: Optional[QueryOptions],
        batch_size: int,
    ) -> CursorExec:
        conn = self.connection
        conn._check_open()
        self._require_params(params)

        def attempt() -> "_ResultStream":
            self._refresh()
            return conn._request_stream(
                FT_EXEC_PREPARED, self._payload(params, options, batch_size)
            )

        return self._run(attempt).cursor_exec()

    def _run(self, attempt):
        return self.connection._run_with_healing(
            attempt,
            idempotent=not self.connection._source_is_write(self.source),
        )

    def __repr__(self) -> str:
        return (
            f"RemotePreparedStatement(pid={self.pid}, "
            f"{self.num_statements} stmts, params={list(self.param_names)}, "
            f"ir={self.ir_size}B)"
        )


class _ResultStream:
    """One request's response: the RESULT header plus its column stream.

    Every COLUMNS frame is kept as one chunk of column arrays.  A cursor
    reads the chunks in order and gets each as a batch of ``Row``
    objects; :meth:`drain` builds none.  At DONE the streamed table is the
    per-column concatenation of the chunks, patched into its
    :class:`StatementResult` — after full consumption a remote result
    list is indistinguishable from a local one.
    """

    def __init__(self, conn: RemoteConnection, header: dict) -> None:
        self.conn = conn
        self.results = [decode_result(p) for p in header["results"]]
        self.stream = header.get("stream")
        self.done = False
        self._chunks: list[list[np.ndarray]] = []
        #: index of the next chunk a cursor has not yet been handed
        self._read = 0
        self._exec: Optional[CursorExec] = None
        if self.stream is not None:
            idx = int(self.stream["index"])
            self.meta = header["results"][idx]["table"]
            self.schema = schema_from_meta(self.meta)
            self._row_cls = Row.make_class(self.schema.names())
        else:
            self.meta = None
            # no table to stream: consume the DONE right away so the
            # conversation is immediately request-clean
            self._pull()

    # ------------------------------------------------------------------
    def _pull(self) -> None:
        """Read one stream frame: a chunk of columns, DONE or ERROR."""
        ftype, payload = self.conn._recv()
        if ftype == FT_COLUMNS and self.stream is not None:
            try:
                self._chunks.append(decode_columns(self.schema, payload))
            except ProtocolError:
                self.conn._drop_transport()
                raise
            return
        if ftype == FT_DONE:
            self._finish(payload)
            return
        if ftype == FT_ERROR:
            self.done = True
            self.conn._active = None
            raise decode_error(payload)
        self.conn._drop_transport()
        raise ProtocolError(
            f"expected COLUMNS/DONE/ERROR in a result stream, got type {ftype}"
        )

    def _finish(self, payload: dict) -> None:
        self.done = True
        if self.conn._active is self:
            self.conn._active = None
        if self.stream is None:
            return
        columns = [
            Column(c.dtype, np.concatenate([ch[i] for ch in self._chunks]))
            if self._chunks else Column.empty(c.dtype)
            for i, c in enumerate(self.schema)
        ]
        table = Table(str(self.meta["name"]), self.schema, columns)
        if table.num_rows != payload.get("rows"):
            self.conn._drop_transport()
            raise ProtocolError(
                f"result stream delivered {table.num_rows} rows, "
                f"DONE announced {payload.get('rows')!r}"
            )
        self.results[int(self.stream["index"])].table = table
        if self._exec is not None:
            self._exec.table = table

    def next_batch(self) -> Optional[list[Row]]:
        """The next unread chunk as ``Row`` objects (pulled off the
        socket when none is buffered); None once the stream is exhausted."""
        if self._read == len(self._chunks):
            if self.done:
                return None
            self._pull()
            if self._read == len(self._chunks):
                return None  # that frame was DONE
        chunk = self._chunks[self._read]
        self._read += 1
        return list(map(self._row_cls, zip(*[c.tolist() for c in chunk])))

    def drain(self) -> None:
        """Consume the stream to completion (materializes the table).
        Also how another request frees the socket: an attached cursor
        keeps reading the buffered chunks."""
        while not self.done:
            self._pull()

    # ------------------------------------------------------------------
    def _batches(self) -> Iterator[list[Row]]:
        while True:
            batch = self.next_batch()
            if batch is None:
                return
            yield batch

    def cursor_exec(self) -> CursorExec:
        if self.stream is None:
            return CursorExec(self.results, None, -1, None, None)
        description = [
            (str(name), str(ddl)) for name, ddl in self.meta["columns"]
        ]
        ex = CursorExec(
            self.results,
            None,  # patched in at DONE
            int(self.stream["num_rows"]),
            description,
            self._batches(),
            finish=self.drain,
        )
        self._exec = ex
        return ex
