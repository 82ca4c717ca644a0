"""Replica-side replication: subscribe, apply, serve reads, promote.

A :class:`Replica` owns a read-only
:class:`~repro.engine.session.Database` and keeps it converged with a
primary by consuming its WAL stream (docs/REPLICATION.md):

* the **applier thread** dials the primary, performs the normal
  ``GRQLNET1`` handshake, sends ``REPL_SUBSCRIBE {from_seq,
  repl_epoch}`` and then applies whatever comes back — a snapshot
  install for catch-up, then one ``REPL_RECORD`` at a time through
  :meth:`~repro.durability.DurableStore.apply_replicated` (the recovery
  path, journal unhooked).  Each apply happens under the serving
  engine's *write* lock so readers always observe statement boundaries;
  the ``REPL_ACK`` is sent **after** the record is durable in the
  replica's own WAL and **outside** the lock (acknowledging before
  durability is the GDL021 defect; sending inside the lock is GDL010);
* **reads** are served normally — the engine is in read-only mode, so
  client writes fail fast with :class:`~repro.errors.NotPrimary`
  carrying the primary's URL for the client to follow;
* the subscription is **self-healing**: a lost primary means backoff
  and redial, not a dead replica.  Epoch-fence rejections
  (:class:`~repro.errors.ReplicaStale`) are fatal by design — they mean
  this node's history has diverged from the stream's;
* :meth:`promote` turns the replica into a primary: stop the applier,
  bump the persisted replication epoch (fencing off the old primary's
  future writes), and lift read-only mode.  Acknowledged writes are by
  definition in the replica's WAL, so nothing needs replaying beyond
  what the applier already did.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Optional

from repro.engine.session import Database
from repro.errors import (
    GraQLError,
    PromotionError,
    ProtocolError,
    ReplicaStale,
)
from repro.net.frame import (
    FT_BYE,
    FT_ERROR,
    FT_HELLO,
    FT_HELLO_OK,
    FT_REPL_ACK,
    FT_REPL_RECORD,
    FT_REPL_SNAPSHOT,
    FT_REPL_SUBSCRIBE,
    FrameSocket,
    PROTOCOL_VERSION,
)
from repro.net.protocol import decode_error
from repro.obs.profile import record_refresh_metrics
from repro.obs.replication import ReplicationMetrics
from repro.obs.trace import Span

#: reconnect backoff bounds (seconds)
RECONNECT_MIN = 0.05
RECONNECT_MAX = 2.0


class Replica:
    """A streaming replica of the primary at *primary_url*.

    Owns the :class:`Database` at *path* (opened here, closed by
    :meth:`close`).  ``start()`` begins streaming; ``promote()`` ends
    it and makes the node a writable primary.
    """

    def __init__(
        self,
        path: str,
        primary_url: str,
        *,
        user: str = "admin",
        durability: Optional[dict[str, Any]] = None,
        serving_opts: Optional[dict[str, Any]] = None,
    ) -> None:
        self.primary_url = primary_url
        self.user = user
        self.database = Database.open(
            path, serving_opts=serving_opts, **dict(durability or {})
        )
        if self.database.store is None:
            self.database.close()
            raise PromotionError("a replica requires a durable database path")
        self.database.server.set_read_only(primary_url)
        self.metrics = ReplicationMetrics(self.database.metrics)
        self.promoted = False
        #: message of the last subscription failure (health surface)
        self.last_error: Optional[str] = None
        #: the finished ``replication.promote`` span, once promoted
        self.last_promote_span: Optional[Span] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._fs: Optional[FrameSocket] = None
        self._fs_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Replica":
        if self._closed:
            raise PromotionError("replica is closed")
        if self.promoted:
            raise PromotionError("this node was promoted; it no longer streams")
        if self._thread is None:
            self._stop.clear()  # a stopped replica can resubscribe
            self._thread = threading.Thread(
                target=self._run, name="graql-repl-apply", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop streaming (the database stays open and read-only)."""
        self._stop.set()
        self._close_socket()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.stop()
        self.database.close()

    def __enter__(self) -> "Replica":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def connected(self) -> bool:
        with self._fs_lock:
            return self._fs is not None

    def status(self) -> dict[str, Any]:
        store = self.database.store
        return {
            "role": "primary" if self.promoted else "replica",
            "primary": None if self.promoted else self.primary_url,
            "seq": store.seq,
            "repl_epoch": store.replication_epoch,
            "connected": self.connected,
            "last_error": self.last_error,
        }

    # ------------------------------------------------------------------
    # Promotion (docs/REPLICATION.md runbook)
    # ------------------------------------------------------------------
    def promote(self) -> dict[str, Any]:
        """Become the primary: fence, then open for writes.

        Every acknowledged write is already durable in this node's WAL
        (acks are sent post-durability), so promotion is: stop the
        applier, bump the persisted replication epoch past everything
        this timeline has seen, lift read-only mode.  Returns
        ``{"repl_epoch", "seq"}`` for the PROMOTED frame.
        """
        if self.promoted:
            raise PromotionError("this node is already the primary")
        if self._closed:
            raise PromotionError("replica is closed")
        span = Span("replication.promote", {"primary": self.primary_url})
        self.stop()  # the applier finishes its in-flight record first
        store = self.database.store
        server = self.database.server
        with server.lock.write_locked():
            epoch = store.bump_replication_epoch()
        server.set_writable()
        self.promoted = True
        self.metrics.promoted()
        self.metrics.set_connected(False)
        span.set(repl_epoch=epoch, seq=store.seq)
        span.finish()
        #: the finished promotion span — ``graql promote`` over the wire
        #: also lands it on the serving node's ``recent_spans`` ring
        self.last_promote_span = span
        return {"repl_epoch": epoch, "seq": store.seq}

    # ------------------------------------------------------------------
    # Applier
    # ------------------------------------------------------------------
    def _run(self) -> None:
        delay = RECONNECT_MIN
        while not self._stop.is_set():
            try:
                fs = self._subscribe()
            except ReplicaStale as e:
                self.last_error = str(e)
                self.metrics.set_connected(False)
                return  # diverged timelines never reconverge by retry
            except (GraQLError, OSError) as e:
                self.last_error = str(e)
                self.metrics.set_connected(False)
                if self._stop.wait(delay):
                    return
                delay = min(delay * 2, RECONNECT_MAX)
                continue
            delay = RECONNECT_MIN
            self.last_error = None
            self.metrics.set_connected(True)
            try:
                self._apply_loop(fs)
            except ReplicaStale as e:
                self.last_error = str(e)
                self.metrics.set_connected(False)
                return
            except (GraQLError, OSError) as e:
                if not self._stop.is_set():  # a commanded stop is not a fault
                    self.last_error = str(e)
            finally:
                self._close_socket()
                self.metrics.set_connected(False)

    def _subscribe(self) -> FrameSocket:
        """Dial the primary and leave the socket subscribed (the first
        REPL_SNAPSHOT frame — resume or snapshot — already applied)."""
        from repro.net.client import parse_endpoints

        host, port = parse_endpoints(self.primary_url)[0]
        sock = socket.create_connection((host, port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        fs = FrameSocket(sock)
        try:
            fs.send_magic()
            fs.send_frame(
                FT_HELLO, {"proto": PROTOCOL_VERSION, "user": self.user}
            )
            ftype, payload = fs.recv_frame()
            if ftype == FT_ERROR:
                raise decode_error(payload)
            if ftype != FT_HELLO_OK:
                raise ProtocolError(f"expected HELLO_OK, got frame type {ftype}")
            store = self.database.store
            fs.send_frame(
                FT_REPL_SUBSCRIBE,
                {"from_seq": store.seq, "repl_epoch": store.replication_epoch},
            )
            sock.settimeout(None)
            ftype, payload = fs.recv_frame()
            if ftype == FT_ERROR:
                raise decode_error(payload)
            if ftype != FT_REPL_SNAPSHOT:
                raise ProtocolError(
                    f"expected REPL_SNAPSHOT to open the stream, "
                    f"got frame type {ftype}"
                )
            self._handle_snapshot(fs, payload)
        except BaseException:
            fs.close()
            raise
        with self._fs_lock:
            self._fs = fs
        return fs

    def _apply_loop(self, fs: FrameSocket) -> None:
        store = self.database.store
        while not self._stop.is_set():
            ftype, payload = fs.recv_frame()
            if ftype == FT_REPL_RECORD:
                record = payload["record"]
                seq = self._apply_record(record)
                # ack only after apply_replicated returned, i.e. the
                # record is durable in our own WAL — and outside the
                # serving lock, so a slow peer cannot stall readers
                fs.send_frame(FT_REPL_ACK, {"seq": seq})
            elif ftype == FT_REPL_SNAPSHOT:
                # mid-stream re-seed after the primary checkpointed past us
                self._handle_snapshot(fs, payload)
            elif ftype == FT_ERROR:
                raise decode_error(payload)
            elif ftype == FT_BYE:
                return
            else:
                raise ProtocolError(
                    f"unexpected frame type {ftype} on the replication stream"
                )

    def _handle_snapshot(self, fs: FrameSocket, payload: dict[str, Any]) -> None:
        if payload.get("resume"):
            store = self.database.store
            store.adopt_replication_epoch(
                int(payload.get("repl_epoch", 0)),
                history=payload.get("repl_history"),
            )
            return
        self._install_snapshot(payload["snapshot"])
        fs.send_frame(
            FT_REPL_ACK, {"seq": int(payload["snapshot"]["seq"])}
        )

    # ------------------------------------------------------------------
    def _apply_record(self, record: dict[str, Any]) -> int:
        db = self.database
        server = db.server
        with server.lock.write_locked():
            # an ingest touched what its view refresh reports; anything
            # else (DDL, results, accounts) re-derives the whole catalog
            seq, report = db.store.apply_replicated(record)
            db.catalog.absorb(db.db, report)
            if report is not None:
                record_refresh_metrics(db.metrics, report)
            self._sync_users()
            db.store.maybe_checkpoint()
        server.cache.invalidate()
        self.metrics.applied(1, len(str(record)))
        return seq

    def _install_snapshot(self, snapshot: dict[str, Any]) -> None:
        db = self.database
        server = db.server
        with server.lock.write_locked():
            db.store.install_snapshot(snapshot)
            db.catalog.refresh(db.db)
            self._sync_users()
        server.cache.invalidate()
        self.metrics.snapshot_installed()

    def _sync_users(self) -> None:
        """Mirror the store's replicated accounts into the engine server
        (the two are reconciled at open time; streamed CREATE/DROP USER
        records must keep them converged live)."""
        from repro.engine.server import ROLE_ADMIN, User

        server = self.database.server
        current = dict(self.database.store.users)
        for name, role in current.items():
            known = server.users.get(name)
            if known is None or known.role != role:
                server.users[name] = User(name, role)
        for name in list(server.users):
            if name not in current and name != "admin":
                del server.users[name]
        if "admin" not in current:
            # the bootstrap admin always exists locally
            server.users.setdefault("admin", User("admin", ROLE_ADMIN))

    # ------------------------------------------------------------------
    def _close_socket(self) -> None:
        with self._fs_lock:
            fs, self._fs = self._fs, None
        if fs is not None:
            try:
                fs.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            fs.close()

    def __repr__(self) -> str:
        role = "primary" if self.promoted else "replica"
        return (
            f"Replica({role}, seq={self.database.store.seq}, "
            f"primary={self.primary_url!r})"
        )
