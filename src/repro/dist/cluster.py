"""The simulated backend cluster.

    "the backend cluster supports the high-performance, massively
    parallel execution of graph and tabular queries over the database,
    which is primarily resident on the aggregated memory of the compute
    nodes." (Section III)

:class:`Cluster` wraps a fully-built :class:`~repro.graph.graphdb.GraphDB`
with *n* workers: hash-partitioned vertex ownership, per-worker
bidirectional edge-index shards, and a byte-accounting communicator.
It is the backend of the server's one statement pipeline: the front end
parses, checks and ships each statement, and :meth:`Cluster.run`
executes the checked resolution — set-semantics path queries with the
distributed BSP executor (``run_graph_select``), everything else on the
single-node engine, because the paper's design also keeps the front-end
free to choose where a query runs.

The cluster is fault-tolerant (docs/RELIABILITY.md): edge shards are
placed with *k*-replica chained declustering
(:class:`~repro.dist.partition.Placement`), a seeded
:class:`~repro.dist.faults.FaultInjector` can kill workers and
drop/corrupt/delay messages, failed supersteps are retried with
exponential backoff and replica failover, and a
:class:`~repro.dist.recovery.CircuitBreaker` degrades statements to
verified single-node execution when the cluster keeps failing — with
what-degraded-and-why surfaced on every ``StatementResult``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.catalog import Catalog
from repro.dist.comm import Communicator
from repro.dist.dist_query import DistFrontierExecutor
from repro.dist.faults import FaultInjector
from repro.dist.partition import Partitioner, Placement, build_edge_shards
from repro.dist.recovery import CircuitBreaker, RecoveryStats
from repro.errors import BackendError, DegradedMode
from repro.graph.graphdb import GraphDB
from repro.graql.ast import INTO_SUBGRAPH, Statement
from repro.graql.typecheck import CheckedGraphSelect
from repro.obs.options import QueryOptions, resolve_options
from repro.obs.profile import QueryProfile
from repro.obs.trace import Tracer
from repro.query.executor import (
    StatementResult,
    _execute_graph_select,
    execute_checked,
)


class Cluster:
    """A GraphDB partitioned over *num_workers* simulated nodes."""

    def __init__(
        self,
        db: GraphDB,
        num_workers: int,
        catalog: Optional[Catalog] = None,
        *,
        replication: int = 1,
        fault_injector: Optional[FaultInjector] = None,
        breaker: Optional[CircuitBreaker] = None,
        allow_degraded: bool = True,
        statement_timeout_s: Optional[float] = None,
        max_retries: int = 5,
        backoff_base_s: float = 0.001,
    ) -> None:
        self.db = db
        self.catalog = catalog or Catalog.from_db(db)
        self.partitioner = Partitioner(num_workers)
        self.placement = Placement(num_workers, replication)
        self.injector = fault_injector
        self.comm = Communicator(
            num_workers, placement=self.placement, injector=fault_injector
        )
        self.shards = build_edge_shards(db, self.partitioner)
        self.breaker = breaker or CircuitBreaker()
        self.allow_degraded = allow_degraded
        self.statement_timeout_s = statement_timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        #: statements that fell back to single-node because of faults
        self.degraded_statements = 0
        #: recovery cost accumulated across all statements
        self.recovery_totals = RecoveryStats()

    @property
    def num_workers(self) -> int:
        return self.partitioner.num_workers

    @property
    def replication(self) -> int:
        return self.placement.replication

    def rebuild(self) -> None:
        """Re-shard after ingest/DDL changed the graph.  The catalog is
        the statement path's to refresh (once, from the ingest delta)."""
        self.shards = build_edge_shards(self.db, self.partitioner)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        checked: "Statement | CheckedGraphSelect",
        opts: QueryOptions,
        timeout_s: Optional[float],
    ) -> StatementResult:
        """Execute one statement the front end has already substituted
        and checked: a set-semantics graph select is swept distributed,
        everything else runs on the single-node engine (re-sharding
        after a write).

        Degradation policy: the distributed attempt is breaker-gated,
        and a failed or refused one falls back to verified single-node
        execution ("the server is free to choose where a query runs" —
        under faults, it chooses the node that still works), or raises
        :class:`~repro.errors.DegradedMode` when fallback is disabled.
        """
        if not _sweeps_distributed(checked, opts):
            result = execute_checked(self.db, self.catalog, checked, opts)
            if result.kind.is_write:
                self.rebuild()
            return result
        if self.breaker.allow():
            try:
                result = self.run_graph_select(
                    checked, timeout_s=timeout_s, options=opts
                )
                self.breaker.record_success()
                return result
            except BackendError as exc:
                self.breaker.record_failure()
                reason = f"{type(exc).__name__}: {exc}"
        else:
            reason = "circuit breaker open"
        if not self.allow_degraded:
            raise DegradedMode(
                f"distributed execution unavailable ({reason}) and degraded "
                "single-node fallback is disabled"
            )
        self.degraded_statements += 1
        result = execute_checked(self.db, self.catalog, checked, opts)
        result.degraded = True
        result.degraded_reason = reason
        return result

    def run_graph_select(
        self,
        checked: CheckedGraphSelect,
        timeout_s: Optional[float] = None,
        options: Optional[QueryOptions] = None,
    ) -> StatementResult:
        """Distributed set-semantics execution of a graph select: the
        single-node statement path, swept on the partitioned driver."""
        opts = replace(resolve_options(options), strategy="set")
        profile = QueryProfile() if opts.profile else None
        tracer = Tracer() if (opts.trace and profile is not None) else None
        budget = timeout_s if timeout_s is not None else self.statement_timeout_s
        recovery = RecoveryStats()
        faults0 = self.fault_stats()
        fx = DistFrontierExecutor(
            self.db,
            self.shards,
            self.partitioner,
            self.comm,
            placement=self.placement,
            recovery=recovery,
            max_retries=self.max_retries,
            backoff_base_s=self.backoff_base_s,
            deadline=time.monotonic() + budget if budget is not None else None,
            profile=profile,
        )
        result = _execute_graph_select(
            self.db, self.catalog, checked, opts, profile, tracer, fx
        )
        self.recovery_totals.merge(recovery)
        result.recovery = recovery.snapshot()
        if profile is not None:
            d = profile.ensure_dist()
            for key in ("failovers", "backoff_ms", "extra_messages", "extra_bytes"):
                d[key] += result.recovery[key]
            d["faults"] = {
                k: v - faults0.get(k, 0)
                for k, v in self.fault_stats().items()
                if isinstance(v, (int, float)) and v - faults0.get(k, 0)
            }
        return result.attach_profile(profile, tracer)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def comm_stats(self) -> dict:
        return self.comm.stats.snapshot()

    def fault_stats(self) -> dict:
        """Injected-fault counters (empty when no injector is attached)."""
        return self.injector.stats.snapshot() if self.injector is not None else {}

    def reliability_stats(self) -> dict:
        """One roll-up of the whole fault story: placement, breaker,
        degradation counts, cumulative recovery cost, injected faults."""
        return {
            "replication": self.replication,
            "live_workers": len(self.placement.live),
            "failed_workers": self.placement.num_failed,
            "degraded_statements": self.degraded_statements,
            "breaker": self.breaker.snapshot(),
            "recovery": self.recovery_totals.snapshot(),
            "faults": self.fault_stats(),
        }

    def heal(self) -> None:
        """Start a fresh placement epoch: revive every worker, close the
        breaker.  (The injector keeps its stats; re-arm via its own
        ``reset``.)"""
        self.placement.restore_all()
        self.breaker.reset()

    def reset_stats(self) -> None:
        self.comm.reset()
        self.recovery_totals = RecoveryStats()
        self.degraded_statements = 0

    def edge_balance(self) -> dict:
        """Per-worker forward-edge counts and the max/mean imbalance."""
        counts = np.zeros(self.num_workers, dtype=np.int64)
        for w in range(self.num_workers):
            counts[w] = sum(s.num_forward_edges for s in self.shards[w].values())
        mean = counts.mean() if len(counts) else 0.0
        return {
            "per_worker": counts.tolist(),
            "imbalance": float(counts.max() / mean) if mean > 0 else 1.0,
        }

    def memory_per_worker(self, payload_only: bool = False) -> list[int]:
        """Bytes of edge-shard storage per worker (aggregated DRAM).

        The *payload* (neighbor/eid arrays) partitions with the edges and
        shrinks ~linearly with workers.  The CSR ``indptr`` arrays span
        the global vid range and are a fixed per-worker overhead of this
        shard layout; ``payload_only=True`` excludes them to expose the
        partitionable fraction (the aggregated-memory scaling argument).

        With ``replication=k`` each worker stores its primary shard plus
        copies of the k-1 partitions it replicates, so per-worker memory
        is ~k times the unreplicated cost — the price of surviving
        fail-stop without data loss.
        """
        out = []
        for w in range(self.num_workers):
            total = 0
            for p in self.placement.partitions_stored_by(w):
                for s in self.shards[p].values():
                    total += s.forward.neighbors.nbytes + s.forward.eids.nbytes
                    total += s.reverse.neighbors.nbytes + s.reverse.eids.nbytes
                    if not payload_only:
                        total += s.forward.indptr.nbytes + s.reverse.indptr.nbytes
            out.append(int(total))
        return out

    def __repr__(self) -> str:
        return f"Cluster(workers={self.num_workers}, {self.db!r})"


def _sweeps_distributed(checked, opts: QueryOptions) -> bool:
    """True for a graph select the set-frontier sweep can answer: no
    per-path bindings, regex closure or edge labels, and a subgraph (or
    no) ``into``."""
    if not isinstance(checked, CheckedGraphSelect) or opts.strategy == "bindings":
        return False
    pattern, into = checked.pattern, checked.stmt.into
    return (
        not (pattern.needs_bindings or pattern.has_regex or pattern.has_edge_labels)
        and (into is None or into.kind == INTO_SUBGRAPH)
    )
