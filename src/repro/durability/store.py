"""The durable store: WAL + checkpoints + crash recovery, as one object.

A durable database is a directory::

    <path>/
        wal.log                     append-only write-ahead log
        checkpoint-000000000042.snap  snapshot through WAL seq 42
        checkpoint-000000000017.snap  previous snapshot (fallback)

:meth:`DurableStore.open` performs recovery — load the newest valid
snapshot, replay the WAL tail after its seq, stop cleanly at the first
torn or checksum-failing record, truncate the torn tail, re-arm the
writer — and returns a store whose ``db``/``users`` are exactly the
state produced by a prefix of the committed statements.

Once open, the store is the *journal* the engine writes through: the
``log_*`` methods are called by :class:`~repro.graph.graphdb.GraphDB`'s
mutation hooks (under the serving layer's write lock) and by the
server's user management.  Commit semantics are log-after-apply: the
in-memory mutation happens first, the record is appended (and fsynced
per policy) before the statement is acknowledged; a crash between the
two loses only the unacknowledged statement, which is precisely the
committed-prefix contract.

If an append or fsync raises, the store **poisons** itself: the failed
record may be half on disk, so acknowledging anything later would break
the prefix guarantee.  Every subsequent mutation raises
:class:`~repro.errors.WalError` until the path is re-opened (re-opening
truncates the torn tail).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Optional

from repro.durability import state as st
from repro.durability.checkpoint import (
    load_latest_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from repro.durability.faults import StorageFaultInjector
from repro.durability.wal import (
    FSYNC_ALWAYS,
    MAGIC,
    WalWriter,
    read_wal,
)
from repro.errors import ReplicaStale, WalError
from repro.graph.delta import RefreshReport
from repro.graph.graphdb import GraphDB
from repro.storage.atomic import fsync_dir, fsync_file, temp_path_for

WAL_NAME = "wal.log"
#: sidecar persisting the replication epoch fence (docs/REPLICATION.md)
REPLICATION_META_NAME = "replication.json"

#: default: checkpoint every this many WAL records
DEFAULT_CHECKPOINT_EVERY = 256


class RecoveryReport:
    """What :meth:`DurableStore.open` found and did."""

    def __init__(self) -> None:
        #: path of the snapshot restored, or None (started empty)
        self.snapshot_path: Optional[str] = None
        #: WAL seq the snapshot covered (0 when none)
        self.snapshot_seq = 0
        #: corrupt snapshots skipped while falling back
        self.snapshots_skipped: list[str] = []
        #: WAL records replayed after the snapshot
        self.records_replayed = 0
        #: why the WAL scan ended (END_* constant from repro.durability.wal)
        self.wal_end_reason = "clean-end"
        #: torn/corrupt bytes truncated from the WAL tail
        self.bytes_truncated = 0
        #: last applied WAL seq after recovery
        self.last_seq = 0
        #: wall-clock recovery time
        self.duration_ms = 0.0

    @property
    def clean(self) -> bool:
        return self.wal_end_reason == "clean-end" and not self.snapshots_skipped

    def to_dict(self) -> dict[str, Any]:
        return {
            "snapshot_path": self.snapshot_path,
            "snapshot_seq": self.snapshot_seq,
            "snapshots_skipped": list(self.snapshots_skipped),
            "records_replayed": self.records_replayed,
            "wal_end_reason": self.wal_end_reason,
            "bytes_truncated": self.bytes_truncated,
            "last_seq": self.last_seq,
            "duration_ms": round(self.duration_ms, 3),
            "clean": self.clean,
        }

    def __repr__(self) -> str:
        return (
            f"RecoveryReport(seq={self.last_seq}, "
            f"replayed={self.records_replayed}, {self.wal_end_reason})"
        )


class DurableStore:
    """One durable database directory: recovery, journal, checkpoints."""

    def __init__(
        self,
        path: str,
        *,
        fsync: str = FSYNC_ALWAYS,
        batch_records: int = 64,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        faults: Optional[StorageFaultInjector] = None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.path = path
        self.wal_path = os.path.join(path, WAL_NAME)
        self.fsync_policy = fsync
        self.batch_records = batch_records
        self.checkpoint_every = checkpoint_every
        self.faults = faults
        self.metrics = metrics
        self.tracer = tracer
        #: callable giving the catalog epoch stamped into each record;
        #: wired by the Database layer after construction
        self.epoch_provider: Optional[Callable[[], int]] = None
        self._lock = threading.Lock()
        #: append feed: notified after every committed record so WAL
        #: tailers (replication streams) wake promptly instead of polling
        self._feed = threading.Condition()
        self._poisoned: Optional[str] = None
        self._seq = 0
        #: highest catalog epoch seen in recovered records; the engine
        #: layer restarts its catalog epoch above this so plan-cache
        #: keys stay monotonic across restarts
        self.last_epoch = 0
        #: the replication epoch fence (docs/REPLICATION.md): stamped
        #: into every record; bumped (and persisted) at promotion so a
        #: deposed primary's records are rejected by ``apply_replicated``
        self.replication_epoch = 0
        #: timeline history: ``[epoch, boundary_seq]`` pairs meaning
        #: *epoch* began after *boundary_seq* — a record carrying an
        #: older epoch is legitimate pre-fork history iff its seq is at
        #: or below the boundary of the first newer epoch, and a
        #: deposed primary's post-fork write otherwise
        self.repl_history: list[list[int]] = []
        self._records_since_checkpoint = 0
        self.report = RecoveryReport()
        self.db: GraphDB = GraphDB()
        self.users: list[tuple[str, str]] = []
        self._writer: Optional[WalWriter] = None
        self._recover()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str, **kwargs: Any) -> "DurableStore":
        """Open (creating if needed) the durable database at *path*."""
        return cls(path, **kwargs)

    def _recover(self) -> None:
        t0 = time.perf_counter()
        try:
            os.makedirs(self.path, exist_ok=True)
        except OSError as e:
            raise WalError(f"cannot create database directory {self.path!r}: {e}") from e
        if not os.path.isdir(self.path):
            raise WalError(f"database path is not a directory: {self.path!r}")

        span_cm = (
            self.tracer.span("recovery", path=self.path)
            if self.tracer is not None
            else None
        )
        span = span_cm.__enter__() if span_cm is not None else None
        try:
            payload, snap_path, skipped = load_latest_checkpoint(self.path)
            self.report.snapshots_skipped = skipped
            self.replication_epoch, self.repl_history = (
                self._load_replication_meta()
            )
            if payload is not None:
                self.db, self.users = st.restore_snapshot(payload)
                self.report.snapshot_path = snap_path
                self.report.snapshot_seq = int(payload["seq"])
                self.last_epoch = int(payload.get("epoch", 0))
                self._observe_epoch(
                    int(payload.get("repl", 0)), int(payload["seq"])
                )
            else:
                self.db, self.users = GraphDB(), []

            scan = read_wal(self.wal_path, start_seq=self.report.snapshot_seq)
            dirty: set[str] = set()
            for record in scan.records:
                st.apply_record(self.db, self.users, record, dirty)
                self.last_epoch = max(self.last_epoch, int(record.get("epoch", 0)))
                self._observe_epoch(
                    int(record.get("repl", 0)), int(record.get("seq", 0))
                )
            self.db.refresh_dependents(dirty)
            self.report.records_replayed = len(scan.records)
            self.report.wal_end_reason = scan.reason
            self._seq = self.report.snapshot_seq + len(scan.records)
            self.report.last_seq = self._seq

            # drop the torn/corrupt tail before re-arming the writer: a
            # corrupt record is never replayed *and* never left where a
            # later append could bury it
            if os.path.exists(self.wal_path):
                size = os.path.getsize(self.wal_path)
                if not scan.clean and scan.valid_bytes < size:
                    self.report.bytes_truncated = size - scan.valid_bytes
                    self._truncate_wal(scan.valid_bytes)
            self._writer = WalWriter(
                self.wal_path,
                fsync=self.fsync_policy,
                batch_records=self.batch_records,
                faults=self.faults,
                metrics=self.metrics,
            )
        finally:
            self.report.duration_ms = (time.perf_counter() - t0) * 1000.0
            if span_cm is not None:
                if span is not None:
                    span.set(
                        snapshot_seq=self.report.snapshot_seq,
                        records_replayed=self.report.records_replayed,
                        wal_end_reason=self.report.wal_end_reason,
                        bytes_truncated=self.report.bytes_truncated,
                    )
                span_cm.__exit__(None, None, None)
        if self.metrics is not None:
            self.metrics.counter(
                "graql_recoveries_total", "database recoveries performed"
            ).inc()
            self.metrics.gauge(
                "graql_recovery_ms", "duration of the last recovery"
            ).set(self.report.duration_ms)
            self.metrics.gauge(
                "graql_recovery_replayed_records",
                "WAL records replayed by the last recovery",
            ).set(self.report.records_replayed)
            if self.report.bytes_truncated:
                self.metrics.counter(
                    "graql_wal_truncated_bytes_total",
                    "torn/corrupt WAL tail bytes dropped at recovery",
                ).inc(self.report.bytes_truncated)

    def _truncate_wal(self, valid_bytes: int) -> None:
        if valid_bytes == 0:
            # unreadable magic: the file is not ours / is garbage —
            # rebuild an empty log (recovered state stays whatever the
            # snapshot gave us; nothing in this file was replayable)
            with open(self.wal_path, "wb") as fh:
                fh.write(MAGIC)
                fsync_file(fh)
        else:
            with open(self.wal_path, "r+b") as fh:
                fh.truncate(valid_bytes)
                fsync_file(fh)
        fsync_dir(self.path)

    # ------------------------------------------------------------------
    # journal API (GraphDB hooks + server user management)
    # ------------------------------------------------------------------
    @property
    def seq(self) -> int:
        """Last committed WAL sequence number."""
        return self._seq

    @property
    def poisoned(self) -> Optional[str]:
        return self._poisoned

    @property
    def closed(self) -> bool:
        return self._writer is None or self._writer.closed

    def _epoch(self) -> int:
        return int(self.epoch_provider()) if self.epoch_provider is not None else 0

    def _append(self, kind: str, data: dict[str, Any]) -> int:
        with self._lock:
            if self._poisoned is not None:
                raise WalError(
                    f"store is poisoned after an earlier failure "
                    f"({self._poisoned}); re-open the database to resume"
                )
            if self._writer is None or self._writer.closed:
                raise WalError("WAL is closed")
            payload = {
                "seq": self._seq + 1,
                "epoch": self._epoch(),
                "repl": self.replication_epoch,
                "kind": kind,
                "data": data,
            }
            try:
                self._writer.append(payload)
            except WalError as e:
                self._poisoned = str(e)
                raise
            self._seq += 1
            self._records_since_checkpoint += 1
            seq = self._seq
        self._notify_feed()
        return seq

    # The four statement-path log methods run under the serving layer's
    # write lock, so it is safe for them to auto-checkpoint (the
    # snapshot sees no concurrent mutation).  User management runs
    # outside that lock and therefore never triggers one.

    def log_ddl(self, source: str) -> None:
        self._append(st.KIND_DDL, {"source": source})
        self.maybe_checkpoint()

    def log_ingest(self, table_name: str, csv_text: str) -> None:
        self._append(st.KIND_INGEST, {"table": table_name, "csv": csv_text})
        self.maybe_checkpoint()

    def log_result_table(self, name: str, schema_pairs: list, csv_text: str) -> None:
        self._append(
            st.KIND_RESULT_TABLE,
            {"name": name, "schema": schema_pairs, "csv": csv_text},
        )
        self.maybe_checkpoint()

    def log_subgraph(self, data: dict[str, Any]) -> None:
        self._append(st.KIND_SUBGRAPH, data)
        self.maybe_checkpoint()

    # GraphDB journal hooks (duck-typed; see GraphDB.journal).  Each
    # serializes the *effect* from the live object the mutation just
    # produced, so replay re-executes exactly what happened.

    def on_create_table(self, table) -> None:
        self.log_ddl(st.table_ddl(table))

    def on_create_vertex(self, vt) -> None:
        self.log_ddl(st.vertex_ddl(vt))

    def on_create_edge(self, et) -> None:
        self.log_ddl(st.edge_ddl(et))

    def on_create_index(self, gi) -> None:
        self.log_ddl(st.index_ddl(gi))

    def on_drop_index(self, name: str) -> None:
        self.log_ddl(f"drop index {name}")

    def on_ingest(self, table, start_row: int) -> None:
        self.log_ingest(table.name, st.table_csv(table, start=start_row))

    def on_result_table(self, table) -> None:
        self.log_result_table(
            table.name, st.schema_pairs(table.schema), st.table_csv(table)
        )

    def on_subgraph(self, sg) -> None:
        self.log_subgraph(st.subgraph_payload(sg))

    def log_create_user(self, name: str, role: str) -> None:
        self._append(st.KIND_CREATE_USER, {"name": name, "role": role})
        self.users.append((name, role))

    def log_drop_user(self, name: str) -> None:
        self._append(st.KIND_DROP_USER, {"name": name})
        self.users = [(n, r) for n, r in self.users if n != name]

    # ------------------------------------------------------------------
    # replication (docs/REPLICATION.md)
    # ------------------------------------------------------------------
    def _meta_path(self) -> str:
        return os.path.join(self.path, REPLICATION_META_NAME)

    def _load_replication_meta(self) -> "tuple[int, list[list[int]]]":
        try:
            with open(self._meta_path(), encoding="utf-8") as fh:
                meta = json.load(fh)
        except FileNotFoundError:
            return 0, []
        except (OSError, ValueError) as e:
            raise WalError(f"corrupt replication meta: {e}") from e
        epoch = int(meta.get("epoch", 0))
        history = [
            [int(e), int(b)] for e, b in meta.get("history", [])
        ]
        if epoch > 0 and not history:
            # a pre-history meta file: fence strictly (boundary 0 means
            # no older-epoch record is ever accepted)
            history = [[epoch, 0]]
        return epoch, history

    def _persist_replication_meta(self) -> None:
        """Durably record the epoch fence (caller holds ``self._lock``)."""
        tmp = temp_path_for(self._meta_path())
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "epoch": self.replication_epoch,
                        "history": self.repl_history,
                    }
                )
            )
            fh.flush()
            fsync_file(fh)
        os.replace(tmp, self._meta_path())
        fsync_dir(self.path)

    def _observe_epoch(self, repl: int, seq: int) -> None:
        """Raise the in-memory fence to an epoch seen in recovered
        state: the epoch began at or before *seq*, so everything below
        stays readable as pre-fork history."""
        if repl > self.replication_epoch:
            self.repl_history.append([repl, max(0, seq - 1)])
            self.replication_epoch = repl

    def epoch_boundary(self, repl: int) -> int:
        """The last seq that may legitimately carry an epoch <= *repl*
        (the fork point of the first newer epoch; -1 when the timeline
        is unknown, rejecting everything)."""
        for epoch, boundary in self.repl_history:
            if epoch > repl:
                return boundary
        return -1

    def bump_replication_epoch(self) -> int:
        """Promotion: advance the fence past every epoch ever observed
        and persist it before any new write is stamped.  The current seq
        becomes the fork boundary — history up to here stays valid, a
        deposed primary's writes past it are fenced.  Returns the new
        epoch."""
        with self._lock:
            self.replication_epoch += 1
            self.repl_history.append([self.replication_epoch, self._seq])
            self._persist_replication_meta()
            return self.replication_epoch

    def adopt_replication_epoch(
        self, epoch: int, history: "Optional[list[list[int]]]" = None
    ) -> None:
        """Adopt the fence (and its timeline history) learned from the
        primary at stream open.  No-op when nothing is newer — epochs
        only move forward."""
        with self._lock:
            changed = False
            if history is not None and len(history) > len(self.repl_history):
                self.repl_history = [[int(e), int(b)] for e, b in history]
                changed = True
            if epoch > self.replication_epoch:
                self.replication_epoch = epoch
                if self.epoch_boundary(epoch - 1) < 0:
                    # no fork point on record for this epoch: fence
                    # strictly rather than admit an unknown timeline
                    self.repl_history.append([epoch, self._seq])
                changed = True
            if changed:
                self._persist_replication_meta()

    def _notify_feed(self) -> None:
        with self._feed:
            self._feed.notify_all()

    def wait_for_seq(self, seq: int, timeout: float) -> bool:
        """Block until a record past *seq* commits (or *timeout* elapses).

        The replication stream's wakeup: tailers wait here instead of
        polling the WAL file.  Reads ``self._seq`` without the append
        mutex — a stale read only means one extra wait round.
        """
        with self._feed:
            if self._seq > seq:
                return True
            self._feed.wait(timeout)
            return self._seq > seq

    def replication_snapshot(self) -> dict[str, Any]:
        """The complete logical state for replica catch-up (REPL_SNAPSHOT).

        Call under the serving layer's read (or write) lock so the
        snapshot lands on a statement boundary.
        """
        with self._lock:
            payload = st.snapshot_payload(
                self.db, self.users, self._seq, self._epoch()
            )
            payload["repl"] = self.replication_epoch
            payload["repl_history"] = [list(x) for x in self.repl_history]
            return payload

    def apply_replicated(self, record: dict[str, Any]) -> tuple[int, Optional[RefreshReport]]:
        """Replica-side apply of one streamed WAL record.

        Returns the record's seq and, for an ingest, what its view
        refresh touched (None for any other kind: DDL, results and
        accounts can change anything in the catalog).

        The record is fenced (a replication epoch below the local fence
        is a deposed primary's write: :class:`~repro.errors.ReplicaStale`),
        appended verbatim to the replica's own WAL (durable per the
        fsync policy — the REPL_ACK the caller sends afterwards is the
        durability acknowledgment), then applied through the recovery
        path with the journal unhooked so the apply is not re-logged.
        Caller must hold the serving layer's write lock.
        """
        with self._lock:
            if self._poisoned is not None:
                raise WalError(
                    f"store is poisoned after an earlier failure "
                    f"({self._poisoned}); re-open the database to resume"
                )
            if self._writer is None or self._writer.closed:
                raise WalError("WAL is closed")
            seq = int(record.get("seq", -1))
            repl = int(record.get("repl", 0))
            if (
                repl < self.replication_epoch
                and seq > self.epoch_boundary(repl)
            ):
                # an older epoch is fine *before* the fork point (that
                # is shared history); past it, this is a deposed
                # primary's write and must never land
                raise ReplicaStale(
                    f"record seq {seq} carries replication epoch {repl} but "
                    f"the local fence is {self.replication_epoch}; rejecting "
                    f"a deposed primary's write",
                    seq=seq,
                    repl_epoch=repl,
                )
            if seq != self._seq + 1:
                raise WalError(
                    f"replication stream out of order: got seq {seq}, "
                    f"expected {self._seq + 1}"
                )
            try:
                self._writer.append(record)
            except WalError as e:
                self._poisoned = str(e)
                raise
            journal = getattr(self.db, "journal", None)
            self.db.journal = None
            dirty: set[str] = set()
            try:
                st.apply_record(self.db, self.users, record, dirty)
                report = self.db.refresh_dependents(dirty)
            except Exception as e:
                # the record is on disk but not in memory: recovery will
                # converge them, this process must stop acknowledging
                self._poisoned = f"replicated record {seq} failed to apply: {e}"
                raise
            finally:
                self.db.journal = journal
            if repl > self.replication_epoch:
                self.repl_history.append([repl, seq - 1])
                self.replication_epoch = repl
                self._persist_replication_meta()
            self._seq = seq
            self.last_epoch = max(self.last_epoch, int(record.get("epoch", 0)))
            self._records_since_checkpoint += 1
        self._notify_feed()
        return seq, report if record.get("kind") == st.KIND_INGEST else None

    def install_snapshot(self, payload: dict[str, Any]) -> None:
        """Replace the entire state from a streamed snapshot (catch-up).

        The resident :class:`GraphDB` object is rebuilt *in place* (its
        ``__dict__`` swapped) so every holder of the backend reference —
        catalog, server — observes the new state without
        rewiring.  The snapshot is persisted as a checkpoint and the WAL
        restarts empty, exactly like :meth:`checkpoint`.  Caller must
        hold the serving layer's write lock.
        """
        with self._lock:
            if self._poisoned is not None:
                raise WalError(
                    f"store is poisoned ({self._poisoned}); cannot install snapshot"
                )
            if self._writer is None or self._writer.closed:
                raise WalError("WAL is closed")
            repl = int(payload.get("repl", 0))
            if repl < self.replication_epoch:
                raise ReplicaStale(
                    f"snapshot carries replication epoch {repl} but the local "
                    f"fence is {self.replication_epoch}",
                    seq=int(payload.get("seq", 0)),
                    repl_epoch=repl,
                )
            new_db, users = st.restore_snapshot(payload)
            journal = getattr(self.db, "journal", None)
            self.db.__dict__.clear()
            self.db.__dict__.update(new_db.__dict__)
            self.db.journal = journal
            self.users = users
            self._seq = int(payload["seq"])
            self.last_epoch = max(self.last_epoch, int(payload.get("epoch", 0)))
            history = payload.get("repl_history")
            if history is not None and len(history) > len(self.repl_history):
                self.repl_history = [[int(e), int(b)] for e, b in history]
                self._persist_replication_meta()
            if repl > self.replication_epoch:
                self.replication_epoch = repl
                self._persist_replication_meta()
            write_checkpoint(self.path, payload, faults=self.faults)
            prune_checkpoints(self.path, keep=2)
            self._swap_fresh_wal()
        self._notify_feed()

    def _swap_fresh_wal(self) -> None:
        """Close the writer and restart the WAL empty (caller holds
        ``self._lock``; every covered record is already snapshotted)."""
        assert self._writer is not None
        self._writer.close()
        tmp = temp_path_for(self.wal_path)
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fsync_file(fh)
        os.replace(tmp, self.wal_path)
        fsync_dir(self.path)
        self._writer = WalWriter(
            self.wal_path,
            fsync=self.fsync_policy,
            batch_records=self.batch_records,
            faults=self.faults,
            metrics=self.metrics,
        )
        self._records_since_checkpoint = 0

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def maybe_checkpoint(self) -> Optional[str]:
        """Checkpoint when ``checkpoint_every`` records have accumulated."""
        if (
            self.checkpoint_every > 0
            and self._records_since_checkpoint >= self.checkpoint_every
        ):
            return self.checkpoint()
        return None

    def checkpoint(self) -> str:
        """Snapshot the current state and truncate the WAL.

        Order matters: flush the WAL (every record the snapshot covers
        must be durable first), install the snapshot atomically, *then*
        truncate the log.  A crash after install but before truncation
        is benign — recovery skips WAL records at or below the
        snapshot's seq.  Returns the snapshot path.
        """
        with self._lock:
            if self._poisoned is not None:
                raise WalError(
                    f"store is poisoned ({self._poisoned}); cannot checkpoint"
                )
            if self._writer is None or self._writer.closed:
                raise WalError("WAL is closed")
            t0 = time.perf_counter()
            try:
                self._writer.sync()
            except WalError as e:
                self._poisoned = str(e)
                raise
            payload = st.snapshot_payload(self.db, self.users, self._seq, self._epoch())
            payload["repl"] = self.replication_epoch
            path = write_checkpoint(self.path, payload, faults=self.faults)
            prune_checkpoints(self.path, keep=2)
            # truncate: swap in a fresh, magic-only log
            self._swap_fresh_wal()
            duration_ms = (time.perf_counter() - t0) * 1000.0
        # rotation is a tailer-visible event: wake streams so they
        # notice the swapped file promptly
        self._notify_feed()
        if self.metrics is not None:
            self.metrics.counter(
                "graql_checkpoints_total", "snapshot checkpoints written"
            ).inc()
            self.metrics.gauge(
                "graql_checkpoint_ms", "duration of the last checkpoint"
            ).set(duration_ms)
        if self.tracer is not None:
            with self.tracer.span("checkpoint", path=path) as span:
                span.set(seq=self._seq, duration_ms=round(duration_ms, 3))
        return path

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Force-flush the WAL regardless of policy."""
        with self._lock:
            if self._writer is not None and not self._writer.closed:
                try:
                    self._writer.sync()
                except WalError as e:
                    self._poisoned = str(e)
                    raise

    def close(self) -> None:
        """Flush and close the WAL; further mutations raise."""
        with self._lock:
            if self._writer is not None and not self._writer.closed:
                self._writer.close()

    def __repr__(self) -> str:
        return (
            f"DurableStore({self.path!r}, seq={self._seq}, "
            f"fsync={self.fsync_policy}, poisoned={self._poisoned is not None})"
        )
