"""Distributed set-frontier path queries: a partitioned driver over the
single-node step kernels.

:class:`DistFrontierExecutor` *is* a
:class:`~repro.query.frontier.FrontierExecutor`.  The sweep (unroll,
forward, cull, fold-back, labels), vertex filtering including the
index-seek anchor, the ``allowed`` edge set and the statement path
around them are inherited, so "bit-identical to single-node" holds by
construction.  Only the two data-movement primitives are overridden:

* ``_expand`` — split the frontier by owner, let every worker expand the
  slice it owns on its own forward (or reverse) :class:`EdgeShard`,
  bucket the discovered endpoints by owner and route the buckets through
  ``comm.alltoall`` (the messages and bytes the benchmarks report);
* ``_cull`` — the same exchange walked back from the surviving next-side
  vertices over the opposite shards, keeping edges that land in the
  previous frontier.

A frontier stays a global ``SetDict``: a worker's slice is a pure function
of the vid (``vid % n``), so in this in-process simulation scattering is
``split_by_owner`` and gathering is free — only the exchange is accounted.
A real transport plugs in behind ``Communicator.alltoall`` and keeps each
slice resident on its worker between the two primitives.

**Fault tolerance** (docs/RELIABILITY.md): one primitive call is one
superstep and the retry/checkpoint unit.  Its inputs are frontier state
the sweep already retains (``forward[i]``/``culled[i]``), so when a barrier
fails (a worker fail-stops, a message is dropped or corrupted) only that
superstep is re-run, with exponential backoff.  A fail-stopped worker's
partitions fail over to their replicas via the
:class:`~repro.dist.partition.Placement` before the retry; the retry
budget, backoff, and the failed attempts' extra traffic are tallied in
:class:`~repro.dist.recovery.RecoveryStats`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import numpy as np

from repro.errors import (
    BackendError,
    ExecutionError,
    QueryTimeout,
    WorkerFailed,
)
from repro.graph.graphdb import GraphDB
from repro.query.frontier import _EMPTY, FrontierExecutor, SetDict
from repro.storage import idsets
from repro.dist.comm import Communicator
from repro.dist.partition import EdgeShard, Partitioner, Placement
from repro.dist.recovery import RecoveryStats


def _cat_unique(parts: list[np.ndarray]) -> np.ndarray:
    return idsets.unique(np.concatenate(parts)) if parts else _EMPTY


class DistFrontierExecutor(FrontierExecutor):
    """:class:`FrontierExecutor` whose edge steps run as BSP exchanges over
    per-worker edge shards."""

    def __init__(
        self,
        db: GraphDB,
        shards: list[dict[str, EdgeShard]],
        partitioner: Partitioner,
        comm: Communicator,
        label_env: Optional[dict[str, SetDict]] = None,
        placement: Optional[Placement] = None,
        recovery: Optional[RecoveryStats] = None,
        max_retries: int = 5,
        backoff_base_s: float = 0.001,
        deadline: Optional[float] = None,
        profile=None,
    ) -> None:
        super().__init__(db, label_env, profile)
        self.shards = shards
        self.partitioner = partitioner
        self.comm = comm
        self.placement = placement
        self.recovery = recovery if recovery is not None else RecoveryStats()
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        #: absolute time.monotonic() deadline for the whole statement
        self.deadline = deadline
        #: per-worker count of edges expanded (load-balance metric)
        self.work_per_worker = np.zeros(partitioner.num_workers, dtype=np.int64)

    # ------------------------------------------------------------------
    # Fault handling: checkpointed superstep retry with failover
    # ------------------------------------------------------------------
    def _phys(self, partition: int) -> int:
        """Physical worker currently serving a logical partition."""
        if self.placement is None:
            return partition
        return self.placement.serving(partition)

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeout("statement exceeded its timeout budget")

    def _superstep(self, fn: Callable[[], object]) -> object:
        """Run one superstep, retrying retryable backend faults.

        The callable must be a pure function of already-checkpointed
        frontier state (everything in ``forward[]``/``culled[]``), which
        makes re-running it after a failure safe.  A fail-stopped worker
        is failed over to its replicas before the retry; the failed
        attempt's traffic is added to the recovery cost.  Retries back
        off exponentially; exhausting the budget escalates to a fatal
        :class:`WorkerFailed`, which the cluster's degradation policy
        turns into single-node fallback.
        """
        attempt = 0
        while True:
            self._check_deadline()
            msgs0 = self.comm.stats.messages
            bytes0 = self.comm.stats.bytes
            try:
                return fn()
            except BackendError as exc:
                self.recovery.extra_messages += self.comm.stats.messages - msgs0
                self.recovery.extra_bytes += self.comm.stats.bytes - bytes0
                if (
                    isinstance(exc, WorkerFailed)
                    and exc.retryable
                    and exc.worker is not None
                    and self.placement is not None
                ):
                    self.placement.fail(exc.worker)
                    self.recovery.failovers += 1
                if not exc.retryable:
                    raise
                attempt += 1
                if attempt > self.max_retries:
                    raise WorkerFailed(
                        f"superstep failed after {attempt} attempts: {exc}",
                        retryable=False,
                    ) from exc
                self.recovery.retries += 1
                backoff = self.backoff_base_s * (2 ** (attempt - 1))
                self.recovery.backoff_ms += backoff * 1000.0
                if backoff > 0:
                    time.sleep(backoff)

    @contextmanager
    def _profiled(self, phase: str) -> Iterator[Callable[[int], None]]:
        """Record one superstep's frontier/message/byte/retry deltas.

        Yields a ``done(frontier_size)`` callback the caller invokes once
        the post-barrier frontier is known; a no-op without a profile.
        """
        if self.profile is None:
            yield lambda size: None
            return
        msgs0 = self.comm.stats.messages
        bytes0 = self.comm.stats.bytes
        retr0 = self.recovery.retries
        size_box = [0]

        def done(size: int) -> None:
            size_box[0] = int(size)

        try:
            yield done
        finally:
            self.profile.record_superstep(
                phase,
                size_box[0],
                self.comm.stats.messages - msgs0,
                self.comm.stats.bytes - bytes0,
                self.recovery.retries - retr0,
            )

    # ------------------------------------------------------------------
    # The overridden data-movement primitives
    # ------------------------------------------------------------------
    def _expand(
        self, ename: str, along: bool, fr: np.ndarray, allowed: Optional[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._exchange("expand", ename, along, fr, allowed)

    def _cull(
        self,
        ename: str,
        along: bool,
        eids: np.ndarray,
        next_vids: np.ndarray,
        prev_vids: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        # walk back from the survivors over the opposite shards
        return self._exchange("cull", ename, not along, next_vids, eids, prev_vids)

    def _regex_closure(self, group, start, allowed_edges=None):
        raise ExecutionError(
            "unbounded path regular expressions are not supported on "
            "the distributed backend — run them single-node"
        )

    def _exchange(
        self,
        phase: str,
        ename: str,
        along: bool,
        fr: np.ndarray,
        allowed: Optional[np.ndarray],
        keep: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One superstep: local expand + alltoall exchange, retried on
        barrier faults.  Returns (endpoints reached, eids walked), both
        sorted unique; with *keep*, only endpoints inside it count."""

        def attempt() -> tuple[np.ndarray, np.ndarray]:
            n = self.partitioner.num_workers
            outboxes: list[list[Optional[np.ndarray]]] = [
                [None] * n for _ in range(n)
            ]
            walked: list[np.ndarray] = []
            for w, owned in enumerate(self.partitioner.split_by_owner(fr)):
                if len(owned) == 0:
                    continue
                shard = self.shards[w][ename]
                index = shard.forward if along else shard.reverse
                _, tgts, eids = index.expand_restricted(owned, allowed)
                self.work_per_worker[self._phys(w)] += len(eids)
                if keep is not None:
                    mask = idsets.in_sorted(tgts, keep)
                    tgts, eids = tgts[mask], eids[mask]
                if len(eids) == 0:
                    continue
                walked.append(eids)
                for dst, bucket in enumerate(self.partitioner.split_by_owner(tgts)):
                    if len(bucket):
                        outboxes[w][dst] = bucket
            inboxes = self.comm.alltoall(outboxes)
            received = [p for inbox in inboxes for p in inbox if p is not None]
            return _cat_unique(received), _cat_unique(walked)

        with self._profiled(phase) as done:
            tgts, eids = self._superstep(attempt)
            done(len(tgts))
        return tgts, eids
