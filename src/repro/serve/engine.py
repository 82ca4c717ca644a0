"""The shared-server execution core.

One :class:`ServingEngine` sits between every client connection and the
server's catalog + backend, and enforces the concurrency contract:

* **Admission** — a bounded number of submissions may be in flight
  (running + queued); the rest are rejected with
  :class:`~repro.errors.ServerBusy` before consuming any resources.
* **Scheduling** — synchronous submissions execute on the caller's
  thread (clients bring their own concurrency); asynchronous ones
  (:meth:`submit`, :meth:`submit_work`) run on a lazily-created
  ``ThreadPoolExecutor`` worker pool and return futures.  Both paths
  pass the same admission gate, so total in-flight work is bounded
  either way.
* **Isolation** — a writer-preferring :class:`~repro.serve.locks.RWLock`
  over the catalog+backend: scripts containing only reads (selects
  without ``into``) execute concurrently under the read lock; anything
  with effects (DDL, ingest, ``into`` results) holds the write lock
  exclusively.  Catalog epochs make the boundary observable: a reader
  sees either the catalog from before a concurrent DDL or after it,
  never a torn mix.
* **Caching** — pure-read submissions consult the
  :class:`~repro.serve.cache.PlanCache`; a hit skips the whole front-end
  pipeline and executes the cached resolution directly
  (:func:`repro.query.executor.execute_checked`), marked ``cache: hit``
  in the profile.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Mapping, Optional

from repro.graql.ast import (
    CreateEdge,
    CreateIndex,
    CreateTable,
    CreateVertex,
    DropIndex,
    GraphSelect,
    Ingest,
    Script,
    Statement,
    TableSelect,
)
from repro.errors import ClosedError, NotPrimary
from repro.graql.parser import parse_script
from repro.obs.options import QueryOptions, resolve_options
from repro.obs.profile import record_profile_metrics
from repro.query.executor import StatementResult, execute_checked
from repro.serve.admission import AdmissionController
from repro.serve.cache import PlanCache
from repro.serve.locks import RWLock

#: defaults for the serving layer; overridable per Server via
#: ``serving_opts``
DEFAULT_MAX_WORKERS = 8
DEFAULT_MAX_QUEUE = 32
DEFAULT_CACHE_CAPACITY = 128

#: a runner performs the transport-specific compile+execute work for a
#: parsed script and returns ``(results, cacheable_resolutions)``;
#: resolutions are ``None`` when the program must not be cached
Runner = Callable[[Script, QueryOptions, float], tuple]


def statement_is_write(stmt: Statement) -> bool:
    """True if *stmt* mutates the database or catalog.

    DDL and ingest obviously; selects ``into`` a table/subgraph also
    register durable result objects, so they serialize with writers.
    """
    if isinstance(
        stmt,
        (CreateTable, CreateVertex, CreateEdge, CreateIndex, DropIndex, Ingest),
    ):
        return True
    return (
        isinstance(stmt, (GraphSelect, TableSelect)) and stmt.into is not None
    )


def script_is_write(script: Script) -> bool:
    return any(statement_is_write(s) for s in script.statements)


class ServingEngine:
    """Admission + worker pool + RW catalog lock + plan cache.

    The engine is transport-agnostic: a *runner* callback does the
    actual compile-and-execute work (the Server's IR pipeline, or the
    in-process Database's parse-and-execute path) while the engine
    wraps it in admission, locking and caching.
    """

    def __init__(
        self,
        catalog,
        backend,
        metrics,
        *,
        max_workers: int = DEFAULT_MAX_WORKERS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        per_user_limit: Optional[int] = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        self.catalog = catalog
        self.backend = backend
        self.metrics = metrics
        self.max_workers = max_workers
        self.lock = RWLock()
        self.admission = AdmissionController(
            max_in_flight=max_workers + max_queue,
            per_user_limit=per_user_limit,
            metrics=metrics,
        )
        self.cache = PlanCache(capacity=cache_capacity, metrics=metrics)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False
        #: replica mode (docs/REPLICATION.md): writes are rejected with
        #: :class:`~repro.errors.NotPrimary` carrying the primary's URL
        self.read_only = False
        self.primary_url: Optional[str] = None

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Replica mode
    # ------------------------------------------------------------------
    def set_read_only(self, primary_url: Optional[str] = None) -> None:
        """Reject write submissions from now on (streaming replica).

        The replication applier bypasses this by taking ``self.lock``
        directly — only *client* writes are fenced."""
        self._check_open()
        self.read_only = True
        self.primary_url = primary_url

    def set_writable(self) -> None:
        """Lift replica mode (promotion)."""
        self._check_open()
        self.read_only = False
        self.primary_url = None

    def _reject_write(self) -> None:
        raise NotPrimary(
            "this node is a read-only replica; retry the write on the primary",
            primary=self.primary_url,
        )

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError(
                "serving engine is closed; no further statements accepted"
            )

    @property
    def pool(self) -> ThreadPoolExecutor:
        """The worker pool, created on first asynchronous submission
        (keeps short-lived in-process databases from spawning threads).

        Raises :class:`~repro.errors.ClosedError` once the engine is
        closed — recreating the pool after :meth:`close` drained it
        would leak a zombie executor no one shuts down.
        """
        self._check_open()
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="graql-serve",
                )
            return self._pool

    # ------------------------------------------------------------------
    # Script submissions
    # ------------------------------------------------------------------
    def run(
        self,
        user: str,
        source: str,
        params: Optional[Mapping[str, Any]],
        options: Optional[QueryOptions],
        runner: Runner,
    ) -> list[StatementResult]:
        """Admit and execute one script submission on this thread."""
        self._check_open()
        ticket = self.admission.admit(user)
        try:
            return self._process(source, params, options, runner)
        finally:
            self.admission.release(ticket)

    def submit(
        self,
        user: str,
        source: str,
        params: Optional[Mapping[str, Any]],
        options: Optional[QueryOptions],
        runner: Runner,
    ) -> "Future[list[StatementResult]]":
        """Asynchronous :meth:`run`: admit now, execute on the pool."""
        self._check_open()
        ticket = self.admission.admit(user)

        def job() -> list[StatementResult]:
            try:
                return self._process(source, params, options, runner)
            finally:
                self.admission.release(ticket)

        try:
            return self.pool.submit(job)
        except BaseException:
            self.admission.release(ticket)
            raise

    def _process(
        self,
        source: str,
        params: Optional[Mapping[str, Any]],
        options: Optional[QueryOptions],
        runner: Runner,
    ) -> list[StatementResult]:
        opts = resolve_options(options)
        t0 = time.perf_counter()
        script = parse_script(source)  # pure; classification needs the AST
        parse_ms = (time.perf_counter() - t0) * 1000.0
        if script_is_write(script):
            return self._write(lambda: runner(script, opts, parse_ms)[0])
        with self.lock.read_locked():
            key = self.cache.key(source, params, self.catalog.epoch)
            entry = self.cache.lookup(key)
            if entry is not None:
                return self._execute_cached(entry, opts, parse_ms)
            results, resolutions = runner(script, opts, parse_ms)
            if resolutions is not None:
                self.cache.store(key, resolutions)
            return results

    def _execute_cached(
        self, entry, opts: QueryOptions, parse_ms: float
    ) -> list[StatementResult]:
        results = []
        for checked in entry.checked:
            result = execute_checked(self.backend, self.catalog, checked, opts)
            if result.profile is not None:
                # the cache lookup replaced the whole front-end pipeline;
                # the parse needed for classification is all that remains
                result.profile.cache_hit = True
                result.profile.stages.insert(0, ("cache", parse_ms))
                record_profile_metrics(self.metrics, result.profile)
                self.metrics.counter(
                    "graql_statements_cached_total",
                    "statements answered from the plan cache",
                ).inc()
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # Pre-classified work (prepared statements, direct ingest)
    # ------------------------------------------------------------------
    def run_work(self, user: str, write: bool, fn: Callable[[], Any]) -> Any:
        """Admit and run *fn* under the read or write lock, this thread."""
        self._check_open()
        ticket = self.admission.admit(user)
        try:
            return self._locked(write, fn)
        finally:
            self.admission.release(ticket)

    def submit_work(
        self, user: str, write: bool, fn: Callable[[], Any]
    ) -> "Future[Any]":
        self._check_open()
        ticket = self.admission.admit(user)

        def job() -> Any:
            try:
                return self._locked(write, fn)
            finally:
                self.admission.release(ticket)

        try:
            return self.pool.submit(job)
        except BaseException:
            self.admission.release(ticket)
            raise

    def _locked(self, write: bool, fn: Callable[[], Any]) -> Any:
        if write:
            return self._write(fn)
        with self.lock.read_locked():
            return fn()

    def _write(self, fn: Callable[[], Any]) -> Any:
        if self.read_only:
            self._reject_write()
        with self.lock.write_locked():
            epoch = self.catalog.epoch
            out = fn()
            changed = self.catalog.epoch != epoch
        if changed:
            # old entries are unreachable by key — free their memory
            # too.  A write that changed nothing (a zero-row ingest, a
            # checkpoint) leaves the epoch and every cached plan alone.
            self.cache.invalidate()
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting submissions and drain the worker pool.

        In-flight work completes; afterwards every ``run``/``submit``/
        ``run_work``/``submit_work`` raises
        :class:`~repro.errors.ClosedError` instead of deadlocking on a
        shut-down pool.  Idempotent.
        """
        self._closed = True
        # swap the pool out under the lock, drain it outside: shutdown
        # blocks on in-flight work, and nothing that long may run under
        # _pool_lock (a concurrent pool-property access would stall
        # behind the whole drain)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"ServingEngine({self.admission!r}, {self.cache!r})"
