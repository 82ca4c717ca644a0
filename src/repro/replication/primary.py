"""Primary-side replication: serve one WAL stream per subscribed replica.

A :class:`PrimaryReplication` manager lives on the serving node (one
per :class:`~repro.net.GraqlServer` with a durable store).  When a
replica sends ``REPL_SUBSCRIBE {from_seq, repl_epoch}``, the session
thread hands its socket over to :meth:`serve_subscription`, which owns
the conversation until the replica disconnects:

* decide **resume vs. snapshot** — if the subscriber's ``from_seq`` is
  still covered by the live WAL, answer ``REPL_SNAPSHOT {resume}`` and
  stream from there; if the WAL has rotated past it (or the subscriber
  is from a diverged timeline), take a consistent snapshot under the
  serving read lock and ship ``REPL_SNAPSHOT {snapshot}``;
* **stream** — tail the WAL with a
  :class:`~repro.replication.stream.WalTailer`, sending one
  ``REPL_RECORD`` per committed record, waking on the store's append
  feed rather than busy-polling;
* **account** — a small daemon reader thread consumes ``REPL_ACK``
  frames and the stream loop refreshes the per-peer lag gauges
  (records / bytes / seconds, docs/OBSERVABILITY.md) every iteration.

Epoch fencing at subscribe time: a subscriber whose replication epoch
is *ahead* of ours can only be (a replica of) a promoted node — we are
the deposed primary, and feeding it our stale history would fork the
dataset, so the subscription is refused with
:class:`~repro.errors.ReplicaStale`.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Mapping, Optional

from repro.errors import ProtocolError, ReplicaStale
from repro.net.frame import (
    FT_BYE,
    FT_REPL_ACK,
    FT_REPL_RECORD,
    FT_REPL_SNAPSHOT,
    FrameSocket,
)
from repro.obs.replication import ReplicationMetrics
from repro.replication.stream import WalTailer

#: how long the stream loop parks on the append feed before re-checking
#: the stop flag (seconds)
FEED_WAIT = 0.25


class ReplicaPeer:
    """Book-keeping for one subscribed replica (shown by ``graql ping``)."""

    def __init__(self, peer_id: str, addr: str, from_seq: int) -> None:
        self.peer_id = peer_id
        self.addr = addr
        self.from_seq = from_seq
        self.streamed_seq = from_seq
        self.ack_seq = from_seq
        self.ack_at = time.monotonic()
        self.snapshots_sent = 0

    def to_dict(self, store_seq: int) -> dict[str, Any]:
        lag = max(0, store_seq - self.ack_seq)
        return {
            "peer": self.peer_id,
            "addr": self.addr,
            "streamed_seq": self.streamed_seq,
            "ack_seq": self.ack_seq,
            "lag_records": lag,
            "lag_seconds": (
                round(time.monotonic() - self.ack_at, 3) if lag else 0.0
            ),
            "snapshots_sent": self.snapshots_sent,
        }


class PrimaryReplication:
    """Stream this database's WAL to subscribed replicas."""

    def __init__(self, database) -> None:
        self.database = database
        self.store = database.store
        self.metrics = ReplicationMetrics(database.metrics)
        self._peers: dict[str, ReplicaPeer] = {}
        self._peers_lock = threading.Lock()

    # ------------------------------------------------------------------
    def peers(self) -> list[dict[str, Any]]:
        """Current subscribers with their lag, for PONG / ``graql ping``."""
        seq = self.store.seq
        with self._peers_lock:
            return [p.to_dict(seq) for p in self._peers.values()]

    # ------------------------------------------------------------------
    def serve_subscription(
        self, fs: FrameSocket, peer_id: str, addr: str, payload: Mapping[str, Any]
    ) -> None:
        """Own *fs* until the replica goes away (called on the session
        thread; any send/recv failure simply ends the subscription)."""
        store = self.store
        from_seq = int(payload.get("from_seq", 0))
        sub_epoch = int(payload.get("repl_epoch", 0))
        if sub_epoch > store.replication_epoch:
            raise ReplicaStale(
                f"subscriber's replication epoch {sub_epoch} is ahead of this "
                f"node's {store.replication_epoch}; a deposed primary must "
                f"not stream its stale history",
                repl_epoch=store.replication_epoch,
            )

        peer = ReplicaPeer(peer_id, addr, from_seq)
        with self._peers_lock:
            self._peers[peer_id] = peer
        stop = threading.Event()
        ack_thread: Optional[threading.Thread] = None
        try:
            tailer = self._open_stream(fs, peer, from_seq, sub_epoch)
            ack_thread = threading.Thread(
                target=self._ack_loop,
                args=(fs, peer, stop),
                name=f"graql-repl-ack-{peer_id}",
                daemon=True,
            )
            ack_thread.start()
            self._stream_loop(fs, peer, tailer, stop)
        finally:
            stop.set()
            with self._peers_lock:
                self._peers.pop(peer_id, None)
            self.metrics.clear_lag(peer_id)
            # the ack thread exits when the session closes the socket
            # (it is parked in recv); daemon + event keeps it harmless
            # in the window between our return and that close

    # ------------------------------------------------------------------
    def _open_stream(
        self, fs: FrameSocket, peer: ReplicaPeer, from_seq: int, sub_epoch: int
    ) -> WalTailer:
        """Answer the subscribe: resume from the live WAL when possible,
        otherwise ship a snapshot; returns the positioned tailer."""
        store = self.store
        resumable = from_seq <= store.seq
        if resumable and sub_epoch < store.replication_epoch:
            # the subscriber's history ends inside an older epoch; it is
            # shared history only up to that epoch's fork point.  A
            # position past the boundary means the subscriber holds a
            # deposed primary's divergent writes — resuming would
            # silently merge forked timelines, so re-seed instead (the
            # snapshot install discards the divergent tail)
            resumable = from_seq <= store.epoch_boundary(sub_epoch)
        tailer = WalTailer(store.wal_path, from_seq)
        pending = None
        if resumable:
            first = tailer.poll()
            if not first.gap:
                fs.send_frame(
                    FT_REPL_SNAPSHOT,
                    {"resume": True, "seq": from_seq,
                     "repl_epoch": store.replication_epoch,
                     "repl_history": [list(x) for x in store.repl_history]},
                )
                pending = first.records
        if pending is None:
            tailer = self._send_snapshot(fs, peer)
            pending = []
        for record in pending:
            self._send_record(fs, peer, record)
        return tailer

    def _send_snapshot(self, fs: FrameSocket, peer: ReplicaPeer) -> WalTailer:
        """Take a statement-boundary snapshot and ship it; returns a
        tailer positioned just past it."""
        with self.database.server.lock.read_locked():
            snapshot = self.store.replication_snapshot()
        fs.send_frame(FT_REPL_SNAPSHOT, {"snapshot": snapshot})
        peer.snapshots_sent += 1
        peer.streamed_seq = int(snapshot["seq"])
        self.metrics.snapshot_sent()
        return WalTailer(self.store.wal_path, int(snapshot["seq"]))

    def _send_record(
        self, fs: FrameSocket, peer: ReplicaPeer, record: dict[str, Any]
    ) -> None:
        fs.send_frame(FT_REPL_RECORD, {"record": record})
        peer.streamed_seq = int(record["seq"])
        self.metrics.streamed()

    # ------------------------------------------------------------------
    def _stream_loop(
        self,
        fs: FrameSocket,
        peer: ReplicaPeer,
        tailer: WalTailer,
        stop: threading.Event,
    ) -> None:
        store = self.store
        while not stop.is_set():
            poll = tailer.poll()
            if poll.gap:
                # the WAL rotated past this subscriber: re-seed it
                tailer = self._send_snapshot(fs, peer)
                continue
            for record in poll.records:
                self._send_record(fs, peer, record)
            self._refresh_lag(peer, tailer)
            if not poll.records:
                # a torn tail parks here too: the feed fires again once
                # the store appends (i.e. after recovery repaired it)
                store.wait_for_seq(tailer.last_seq, timeout=FEED_WAIT)

    def _refresh_lag(self, peer: ReplicaPeer, tailer: WalTailer) -> None:
        store = self.store
        ack_seq = peer.ack_seq
        lag_records = max(0, store.seq - ack_seq)
        writer = store._writer
        lag_bytes = max(0, writer.size - tailer.offset) if writer is not None else 0
        lag_seconds = (time.monotonic() - peer.ack_at) if lag_records else 0.0
        self.metrics.set_lag(
            peer.peer_id,
            records=lag_records,
            bytes_=lag_bytes,
            seconds=lag_seconds,
        )

    # ------------------------------------------------------------------
    def _ack_loop(
        self, fs: FrameSocket, peer: ReplicaPeer, stop: threading.Event
    ) -> None:
        """Consume REPL_ACK frames until the replica hangs up."""
        while not stop.is_set():
            try:
                ftype, payload = fs.recv_frame()
            except (ProtocolError, OSError, socket.timeout):
                break
            if ftype == FT_BYE:
                break
            if ftype != FT_REPL_ACK:
                break  # a replica speaking anything else is broken
            peer.ack_seq = max(peer.ack_seq, int(payload.get("seq", 0)))
            peer.ack_at = time.monotonic()
            self.metrics.acked(peer.peer_id)
        stop.set()
