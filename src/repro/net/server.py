"""The TCP serving layer: :class:`GraqlServer`.

The paper's Section III client/front-end split, made real: clients dial
a socket, authenticate as a server account, and ship statements that
the front-end checks and executes — every property of the in-process
server's statement pipeline (admission control, access rights, the
reader-writer catalog lock, the plan cache, durability, metrics) now
holds *across the wire* because requests run through the very same
:class:`~repro.engine.server.Server`.

Connection lifecycle (frames: :mod:`repro.net.frame`)::

    client                          server
    ------                          ------
    GRQLNET1 magic     ->
    HELLO {proto,user} ->           authenticate (AccessError over the
                       <- HELLO_OK  wire on unknown users)
    EXECUTE {source}   ->           admission -> submit -> results
                       <- RESULT    header (non-streamed results inline)
                       <- COLUMNS*  the last table's rows, batched
                       <- DONE      as column buffers (storage.colcodec)
    PREPARE {source}   ->           compile once, session-scoped id
                       <- PREPARED
    EXEC_PREPARED      ->           bind + execute
                       <- RESULT / COLUMNS* / DONE
    BYE                ->           orderly close

Failure semantics: any server-side exception crosses as one ERROR frame
(stable code + message + request span) and the conversation continues;
a malformed frame, an idle timeout, or a client that vanishes kills
*that* connection only.  ``shutdown(drain=True)`` stops accepting,
lets in-flight requests finish their response, then closes every
session — the SIGTERM path of ``graql serve`` (docs/NETWORK.md).
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import deque
from typing import Any, Mapping, Optional, Tuple

from repro.errors import (
    AccessError,
    ExecutionError,
    GraQLError,
    PromotionError,
    ProtocolError,
    ServerBusy,
    WalError,
)
from repro.net import frame
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
    FT_PROMOTE,
    FT_PROMOTED,
    FT_REPL_SUBSCRIBE,
    FT_RESULT,
    FrameSocket,
    PROTOCOL_VERSION,
)
from repro.net.protocol import (
    decode_options,
    encode_error,
    encode_results,
    error_code,
)
from repro.obs.trace import Span
from repro.serve.connection import DEFAULT_BATCH_ROWS, LocalConnection
from repro.storage.colcodec import encode_columns

#: sessions a server carries at once before refusing with ServerBusy
DEFAULT_MAX_CONNECTIONS = 64
#: seconds a connection may sit idle between requests before reaping
DEFAULT_IDLE_TIMEOUT = 300.0
#: seconds a fresh connection gets to complete the handshake
HANDSHAKE_TIMEOUT = 10.0


class GraqlServer:
    """A TCP front-end over an engine :class:`~repro.engine.server.Server`
    (or a :class:`~repro.engine.session.Database`, e.g. one opened over a
    durable store — ``graql serve HOST:PORT --db PATH``).

    One thread accepts, one thread per connection serves; all statement
    execution funnels through the shared server's pipeline, so the socket
    layer adds transport concerns only: framing, auth, streaming,
    deadlines, drain and reaping.
    """

    def __init__(
        self,
        target,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        replica=None,
    ) -> None:
        from repro.engine.session import Database

        #: the :class:`~repro.replication.Replica` this server fronts
        #: (``graql serve --replica-of``); None for a plain server
        self.replica = replica
        if replica is not None:
            target = replica.database
        if isinstance(target, Database):
            #: the Database whose engine is being served (None when a
            #: bare Server was passed); closed by ``graql serve`` on exit
            self.database: Optional[Database] = target
            self.app = target.server
        else:
            self.database = None
            self.app = target
        #: WAL-shipping manager (docs/REPLICATION.md); present whenever
        #: the served database is durable — a replica can chain-feed
        #: further replicas, and must stream as primary once promoted
        self.replication = None
        if self.database is not None and self.database.store is not None:
            from repro.replication.primary import PrimaryReplication

            self.replication = PrimaryReplication(self.database)
        self.host = host
        self.port = port
        self.batch_rows = max(1, int(batch_rows))
        self.idle_timeout = idle_timeout
        self.max_connections = max_connections
        self.metrics = self.app.metrics
        #: finished per-request spans (conn/req/user/kind attrs), newest
        #: last — the observability hook for "what is this server doing"
        self.recent_spans: deque[Span] = deque(maxlen=256)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions: dict[int, _Session] = {}
        self._sessions_lock = threading.Lock()
        self._conn_ids = itertools.count(1)
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, listen and start accepting; returns ``(host, port)``
        (the OS-assigned port when constructed with ``port=0``)."""
        if self._started:
            return (self.host, self.port)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        # closing a listener does NOT wake a thread blocked in accept();
        # a short accept timeout lets the loop notice shutdown promptly
        listener.settimeout(0.2)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        self._started = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="graql-net-accept", daemon=True
        )
        self._accept_thread.start()
        return (self.host, self.port)

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def url(self) -> str:
        return f"graql://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`shutdown` completes."""
        if not self._started:
            self.start()
        self._stopped.wait()

    def shutdown(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the server.  Idempotent.

        With ``drain`` (the default), in-flight requests finish writing
        their response before their connection closes — sessions stop
        *reading* immediately but may still write.  Without it, sockets
        are torn down outright.
        """
        if self._stopped.is_set():
            return
        self._draining.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for sess in sessions:
            sess.stop(drain)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
        for sess in sessions:
            if sess.thread is not None:
                sess.thread.join(timeout=timeout)
        self._stopped.set()

    close = shutdown

    def __enter__(self) -> "GraqlServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def active_connections(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # Accept loop
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._draining.is_set():
            try:
                csock, addr = self._listener.accept()
            except socket.timeout:
                continue  # poll the draining flag
            except OSError:
                break  # listener closed by shutdown
            csock.settimeout(None)
            # request/response with multi-frame responses: Nagle +
            # delayed-ACK would add ~40ms stalls per small write
            csock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._draining.is_set():
                _close_quietly(csock)
                break
            conn_id = next(self._conn_ids)
            with self._sessions_lock:
                active = len(self._sessions)
            if active >= self.max_connections:
                self._refuse(csock)
                continue
            self.metrics.counter(
                "graql_net_connections_total", "TCP connections accepted"
            ).inc()
            sess = _Session(self, csock, addr, conn_id)
            with self._sessions_lock:
                self._sessions[conn_id] = sess
            sess.thread = threading.Thread(
                target=sess.run, name=f"graql-net-conn-{conn_id}", daemon=True
            )
            sess.thread.start()

    def _refuse(self, csock: socket.socket) -> None:
        """Over capacity: finish the handshake far enough to deliver a
        typed :class:`~repro.errors.ServerBusy`, then hang up."""
        self.metrics.counter(
            "graql_net_connections_refused_total",
            "connections refused at the max_connections cap",
        ).inc()
        fs = FrameSocket(csock)
        try:
            csock.settimeout(HANDSHAKE_TIMEOUT)
            fs.expect_magic()
            fs.recv_frame()  # the HELLO, discarded
            fs.send_frame(
                FT_ERROR,
                encode_error(
                    ServerBusy(
                        f"server at its {self.max_connections}-connection cap",
                        reason="connections",
                    )
                ),
            )
        except (ProtocolError, OSError):
            pass
        finally:
            fs.close()

    # ------------------------------------------------------------------
    def _pong_payload(self) -> dict[str, Any]:
        """The PONG body: role, position, fence and subscriber lag —
        the whole replication health surface in one frame."""
        out: dict[str, Any] = {"role": "memory"}
        if self.replica is not None:
            out = self.replica.status()
        elif self.database is not None and self.database.store is not None:
            store = self.database.store
            out = {
                "role": "primary",
                "seq": store.seq,
                "repl_epoch": store.replication_epoch,
            }
        if self.replication is not None:
            out["replicas"] = self.replication.peers()
        return out

    # ------------------------------------------------------------------
    def _unregister(self, conn_id: int) -> None:
        with self._sessions_lock:
            self._sessions.pop(conn_id, None)

    def _record_span(self, span: Span) -> None:
        span.finish()
        self.recent_spans.append(span)

    def __repr__(self) -> str:
        state = (
            "stopped" if self._stopped.is_set()
            else "serving" if self._started else "unstarted"
        )
        return (
            f"GraqlServer({self.host}:{self.port}, {state}, "
            f"connections={self.active_connections})"
        )


class _Session:
    """One authenticated client connection, served by its own thread."""

    def __init__(
        self, server: GraqlServer, sock: socket.socket, addr, conn_id: int
    ) -> None:
        self.server = server
        self.sock = sock
        self.addr = addr
        self.conn_id = conn_id
        self.thread: Optional[threading.Thread] = None
        self.user: Optional[str] = None
        self._prepared: dict[int, Any] = {}
        self._pid_seq = itertools.count(1)
        self._flushed_sent = 0
        self._flushed_received = 0

    # ------------------------------------------------------------------
    def stop(self, drain: bool) -> None:
        """Called by :meth:`GraqlServer.shutdown` from another thread."""
        try:
            if drain:
                # stop reading: the in-flight request (if any) still
                # writes its response, then the loop sees EOF and exits
                self.sock.shutdown(socket.SHUT_RD)
            else:
                self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def run(self) -> None:
        srv = self.server
        fs = FrameSocket(self.sock)
        gauge = srv.metrics.gauge(
            "graql_net_connections_active", "currently-open client sessions"
        )
        gauge.inc()
        try:
            if self._handshake(fs):
                self._request_loop(fs)
        except (ProtocolError, OSError):
            # a vanished or misbehaving client takes down its own
            # session, never the server
            pass
        finally:
            gauge.dec()
            self._flush_byte_metrics(fs)
            srv._unregister(self.conn_id)
            fs.close()

    def _handshake(self, fs: FrameSocket) -> bool:
        srv = self.server
        self.sock.settimeout(HANDSHAKE_TIMEOUT)
        fs.expect_magic()
        ftype, hello = fs.recv_frame()
        while ftype == FT_PING:
            # health checks are answered before (and without) auth, and
            # never touch the admission queue — a wedged engine still
            # reports its role and position
            fs.send_frame(FT_PONG, srv._pong_payload())
            ftype, hello = fs.recv_frame()
        if ftype != FT_HELLO:
            fs.send_frame(
                FT_ERROR,
                encode_error(ProtocolError("expected HELLO to open the session")),
            )
            return False
        proto = hello.get("proto")
        if proto != PROTOCOL_VERSION:
            fs.send_frame(
                FT_ERROR,
                encode_error(
                    ProtocolError(
                        f"unsupported protocol version {proto!r} "
                        f"(server speaks {PROTOCOL_VERSION})"
                    )
                ),
            )
            return False
        user = str(hello.get("user", ""))
        try:
            srv.app._require(user, "reader")
        except AccessError as e:
            fs.send_frame(FT_ERROR, encode_error(e))
            return False
        self.user = user
        #: the server-side connection this session executes through
        #: (the server's one statement pipeline)
        self.conn = LocalConnection(srv.app, user)
        fs.send_frame(
            FT_HELLO_OK,
            {
                "proto": PROTOCOL_VERSION,
                "session": self.conn_id,
                "batch_rows": srv.batch_rows,
            },
        )
        return True

    def _request_loop(self, fs: FrameSocket) -> None:
        srv = self.server
        req = 0
        while True:
            self.sock.settimeout(srv.idle_timeout)
            try:
                ftype, payload = fs.recv_frame()
            except socket.timeout:
                srv.metrics.counter(
                    "graql_net_idle_reaped_total",
                    "sessions closed by the idle-connection reaper",
                ).inc()
                return
            if ftype == FT_BYE:
                return
            if ftype == FT_PING:
                # no admission-queue entry, no request accounting: pings
                # must answer even when the engine is saturated
                fs.send_frame(FT_PONG, srv._pong_payload())
                continue
            req += 1
            if ftype == FT_EXECUTE:
                self._serve_request(fs, req, "execute", payload)
            elif ftype == FT_PREPARE:
                self._handle_prepare(fs, req, payload)
            elif ftype == FT_EXEC_PREPARED:
                self._serve_request(fs, req, "exec_prepared", payload)
            elif ftype == FT_REPL_SUBSCRIBE:
                self._handle_subscribe(fs, req, payload)
                return  # the socket was dedicated to the stream
            elif ftype == FT_PROMOTE:
                self._handle_promote(fs, req)
            else:
                fs.send_frame(
                    FT_ERROR,
                    encode_error(
                        ProtocolError(f"unexpected frame type {ftype}"),
                        span=self._span_ctx(req),
                    ),
                )
                return
            self._flush_byte_metrics(fs)

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def _span_ctx(self, req: int) -> dict[str, Any]:
        return {"conn": self.conn_id, "req": req}

    def _serve_request(
        self, fs: FrameSocket, req: int, kind: str, payload: Mapping[str, Any]
    ) -> None:
        """Execute one statement request and stream its results."""
        srv = self.server
        span = Span(
            f"net.{kind}", {"conn": self.conn_id, "req": req, "user": self.user}
        )
        t0 = time.perf_counter()
        srv.metrics.counter(
            "graql_net_requests_total", "statement requests received",
            labels={"kind": kind},
        ).inc()
        batch_rows = max(1, int(payload.get("batch_rows") or srv.batch_rows))
        try:
            options = decode_options(payload.get("options"))
            params = payload.get("params") or None
            if kind == "execute":
                results = self.conn.execute(
                    str(payload.get("source", "")),
                    params,
                    options,
                    timeout_s=payload.get("timeout_s"),
                )
            else:
                pid = payload.get("pid")
                ps = self._prepared.get(pid)
                if ps is None:
                    raise ProtocolError(
                        f"unknown prepared statement id {pid!r} on this session"
                    )
                results = ps.execute(params, options)
        except Exception as e:  # noqa: BLE001 - every failure crosses typed
            span.set(error=error_code(e))
            srv._record_span(span)
            srv.metrics.counter(
                "graql_net_errors_total", "requests answered with an error",
                labels={"code": error_code(e)},
            ).inc()
            fs.send_frame(FT_ERROR, encode_error(e, span=self._span_ctx(req)))
            return
        rows = self._stream_results(fs, req, results, batch_rows)
        elapsed = time.perf_counter() - t0
        span.set(rows=rows, statements=len(results))
        srv._record_span(span)
        srv.metrics.histogram(
            "graql_net_request_seconds", "wall time per request",
        ).observe(elapsed)

    def _stream_results(
        self, fs: FrameSocket, req: int, results, batch_rows: int
    ) -> int:
        """RESULT header, then the last table's rows in COLUMNS frames.

        A batch whose frame would exceed the frame cap is split; a
        single row too large for any frame ends the stream with a typed
        ERROR (in place of DONE) and leaves the session usable."""
        srv = self.server
        header = encode_results(results)
        fs.send_frame(FT_RESULT, header)
        streamed = 0
        if header["stream"] is not None:
            table = results[header["stream"]["index"]].table
            n = table.num_rows
            for start in range(0, n, batch_rows):
                stop = min(start + batch_rows, n)
                try:
                    bodies = _fitted_bodies(table, start, stop)
                except ExecutionError as e:
                    srv.metrics.counter(
                        "graql_net_errors_total", "requests answered with an error",
                        labels={"code": error_code(e)},
                    ).inc()
                    fs.send_frame(FT_ERROR, encode_error(e, span=self._span_ctx(req)))
                    return streamed
                for body in bodies:
                    fs.send_frame(FT_COLUMNS, body)
                streamed += stop - start
        if streamed:
            # count before DONE: once the client has the acknowledgment,
            # the rows are visible in the server's metrics
            srv.metrics.counter(
                "graql_net_rows_streamed_total", "result rows streamed to clients"
            ).inc(streamed)
        fs.send_frame(FT_DONE, {"rows": streamed})
        return streamed

    def _handle_prepare(
        self, fs: FrameSocket, req: int, payload: Mapping[str, Any]
    ) -> None:
        srv = self.server
        srv.metrics.counter(
            "graql_net_requests_total", "statement requests received",
            labels={"kind": "prepare"},
        ).inc()
        span = Span(
            "net.prepare", {"conn": self.conn_id, "req": req, "user": self.user}
        )
        try:
            ps = self.conn.prepare(str(payload.get("source", "")))
        except Exception as e:  # noqa: BLE001
            span.set(error=error_code(e))
            srv._record_span(span)
            srv.metrics.counter(
                "graql_net_errors_total", "requests answered with an error",
                labels={"code": error_code(e)},
            ).inc()
            fs.send_frame(FT_ERROR, encode_error(e, span=self._span_ctx(req)))
            return
        pid = next(self._pid_seq)
        self._prepared[pid] = ps
        srv._record_span(span)
        fs.send_frame(
            FT_PREPARED,
            {
                "pid": pid,
                "params": list(ps.param_names),
                "ir_bytes": ps.ir_size,
                "statements": len(ps.script.statements),
            },
        )

    # ------------------------------------------------------------------
    # Replication handlers (docs/REPLICATION.md)
    # ------------------------------------------------------------------
    def _handle_subscribe(
        self, fs: FrameSocket, req: int, payload: Mapping[str, Any]
    ) -> None:
        """Hand this session's socket to the replication manager; owns
        the connection until the replica goes away."""
        srv = self.server
        span = Span(
            "net.repl_subscribe",
            {"conn": self.conn_id, "req": req, "user": self.user,
             "from_seq": int(payload.get("from_seq", 0))},
        )
        try:
            # the full WAL (accounts included) crosses the wire: admin only
            srv.app._require(self.user, "admin")
            if srv.replication is None:
                raise WalError(
                    "this server has no durable store; nothing to replicate"
                )
        except GraQLError as e:
            span.set(error=error_code(e))
            srv._record_span(span)
            fs.send_frame(FT_ERROR, encode_error(e, span=self._span_ctx(req)))
            return
        # a streaming subscription is never idle in the reaper's sense
        self.sock.settimeout(None)
        addr = f"{self.addr[0]}:{self.addr[1]}" if self.addr else "?"
        try:
            srv.replication.serve_subscription(
                fs, f"conn{self.conn_id}", addr, payload
            )
        except GraQLError as e:
            span.set(error=error_code(e))
            try:
                fs.send_frame(FT_ERROR, encode_error(e, span=self._span_ctx(req)))
            except (ProtocolError, OSError):
                pass
        srv._record_span(span)

    def _handle_promote(self, fs: FrameSocket, req: int) -> None:
        """PROMOTE: fence off the old primary and open for writes."""
        srv = self.server
        span = Span(
            "net.promote", {"conn": self.conn_id, "req": req, "user": self.user}
        )
        try:
            srv.app._require(self.user, "admin")
            if srv.replica is None:
                raise PromotionError(
                    "this node is not a replica; nothing to promote"
                )
            result = srv.replica.promote()
        except Exception as e:  # noqa: BLE001 - crosses typed
            span.set(error=error_code(e))
            srv._record_span(span)
            fs.send_frame(FT_ERROR, encode_error(e, span=self._span_ctx(req)))
            return
        span.set(**result)
        srv._record_span(span)
        # the replica's own replication.promote span carries the timing
        # of the fence bump; surface it on the same ring
        if srv.replica.last_promote_span is not None:
            srv.recent_spans.append(srv.replica.last_promote_span)
        fs.send_frame(FT_PROMOTED, result)

    # ------------------------------------------------------------------
    def _flush_byte_metrics(self, fs: FrameSocket) -> None:
        srv = self.server
        sent = fs.bytes_sent - self._flushed_sent
        received = fs.bytes_received - self._flushed_received
        if sent:
            srv.metrics.counter(
                "graql_net_bytes_sent_total", "wire bytes sent to clients"
            ).inc(sent)
            self._flushed_sent = fs.bytes_sent
        if received:
            srv.metrics.counter(
                "graql_net_bytes_received_total", "wire bytes received from clients"
            ).inc(received)
            self._flushed_received = fs.bytes_received


def _fitted_bodies(table, start: int, stop: int) -> list[bytes]:
    """Column bodies for rows ``[start, stop)``, halving the range until
    every body fits the frame cap.  A row that fits no frame is an
    ExecutionError: the statement ran, its result cannot be delivered —
    not a transport fault the client should heal by retrying."""
    body = encode_columns(table, start, stop)
    if len(body) <= frame.MAX_FRAME_BYTES:
        return [body]
    if stop - start == 1:
        raise ExecutionError(
            f"row {start} of result table {table.name!r} encodes to "
            f"{len(body)} bytes, over the {frame.MAX_FRAME_BYTES}-byte frame cap"
        )
    mid = (start + stop) // 2
    return _fitted_bodies(table, start, mid) + _fitted_bodies(table, mid, stop)


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass
