"""The GEMS front-end server (paper Section III, component 2).

    "the server centralizes access to the database system in order to
    provide access control, distinct user accounts, as well as a central
    metadata repository (catalog) of all existing database objects"

:class:`Server` owns the catalog and enforces a small role model:

* ``reader`` — may run selects;
* ``writer`` — additionally may ingest and create objects;
* ``admin``  — additionally may manage accounts.

Every script runs through **one statement pipeline** on the server,
whichever adapter submitted it — :meth:`Server.submit`, an in-process
:class:`~repro.serve.Connection` or cursor, a prepared statement, or a
:class:`~repro.net.GraqlServer` session:

1. parse (prepared statements parsed once, up front);
2. pure reads consult the plan cache, keyed on (canonical script,
   parameters, catalog epoch) — a hit executes the cached resolutions;
3. check every statement's access rights, substitute parameters and
   statically check the *whole* script against a scratch catalog, so an
   ill-typed script is rejected before any statement touches data —
   the paper's static-analysis placement;
4. execute each statement's resolution.  A statement is re-checked
   against the live catalog only once an earlier statement of the same
   script has moved the catalog epoch.  Under
   ``Database.execute_pipelined`` each fusable (graph select ->
   aggregation) pair runs as fused chunked steps instead
   (:mod:`repro.engine.pipeline`, Section III-B1).

With ``workers`` set the backend is the simulated cluster of
:mod:`repro.dist`, and step 4 ships each statement to it as binary IR
(encode, verify, decode on the backend: ``ir_bytes_shipped``,
``compile_ir``/``decode_ir`` profile stages); the cluster then runs the
statement's checked resolution, distributed where the set-frontier
strategy applies (:meth:`~repro.dist.Cluster.run`).

The server is *shared*: admission control with a bound on in-flight
submissions (:class:`~repro.errors.ServerBusy` on overload), a
writer-preferring reader-writer catalog lock (selects run concurrently,
DDL/ingest serialize), the plan cache and a replica read-only mode all
live here.  Every submission runs on the thread that made it; the server
starts no threads of its own.  Clients normally talk to it through
:func:`repro.connect` (docs/API.md).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Mapping, Optional

from repro.catalog import Catalog
from repro.engine.pipeline import Pipeline
from repro.errors import AccessError, ClosedError, NotPrimary
from repro.graph.graphdb import GraphDB
from repro.graql.ast import Script
from repro.analysis.verifier import verify_statement_ir
from repro.graql.ir import decode_statement, encode_statement
from repro.graql.params import substitute_statement
from repro.graql.parser import parse_script
from repro.graql.typecheck import check_script, check_statement
from repro.obs.metrics import MetricsRegistry
from repro.obs.options import QueryOptions, resolve_options
from repro.obs.profile import record_profile_metrics
from repro.query.executor import StatementResult, execute_checked
from repro.serve.admission import AdmissionController
from repro.serve.cache import PlanCache
from repro.serve.engine import script_is_write, statement_is_write
from repro.serve.locks import RWLock

ROLE_READER = "reader"
ROLE_WRITER = "writer"
ROLE_ADMIN = "admin"

_ROLE_RANK = {ROLE_READER: 0, ROLE_WRITER: 1, ROLE_ADMIN: 2}

#: defaults for the serving layer; overridable per Server via
#: ``serving_opts``
DEFAULT_MAX_IN_FLIGHT = 40
DEFAULT_CACHE_CAPACITY = 128


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


class User:
    """A server account."""

    def __init__(self, name: str, role: str = ROLE_READER) -> None:
        if role not in _ROLE_RANK:
            raise AccessError(f"unknown role {role!r}")
        self.name = name
        self.role = role

    def at_least(self, role: str) -> bool:
        return _ROLE_RANK[self.role] >= _ROLE_RANK[role]

    def __repr__(self) -> str:
        return f"User({self.name!r}, {self.role})"


class Server:
    """Front-end server: accounts + catalog + the statement pipeline.

    With ``workers`` set, the backend is the simulated cluster
    (:class:`repro.dist.Cluster`, built from ``cluster_opts``): each
    checked statement is shipped to it as IR and executes distributed
    where the set-frontier strategy applies, completing the paper's
    client -> server -> backend-cluster picture.

    ``serving_opts`` tunes the concurrency controls: ``max_in_flight``
    (submissions admitted at once, server-wide), ``per_user_limit``
    (in-flight submissions per user) and ``cache_capacity`` (plan-cache
    entries).
    """

    def __init__(
        self,
        backend: Optional[GraphDB] = None,
        workers: Optional[int] = None,
        cluster_opts: Optional[Mapping[str, Any]] = None,
        *,
        serving_opts: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.backend = backend or GraphDB()
        self.catalog = Catalog.from_db(self.backend)
        self.cluster = None
        if workers is not None:
            from repro.dist import Cluster

            self.cluster = Cluster(
                self.backend, workers, self.catalog, **dict(cluster_opts or {})
            )
        self.users: dict[str, User] = {"admin": User("admin", ROLE_ADMIN)}
        #: durability journal (a :class:`repro.durability.DurableStore`)
        #: wired by ``Database.open``; when set, account changes are
        #: logged to the WAL like any other mutation
        self.durability = None
        #: total IR bytes shipped to the backend cluster (measured,
        #: Section III); stays 0 without ``workers``
        self.ir_bytes_shipped = 0
        #: statements the cluster answered via single-node fallback
        self.degraded_statements = 0
        #: server-wide counters/histograms, fed from statement profiles
        self.metrics = MetricsRegistry()
        #: guards the plain counters above under concurrent submits
        self._counter_lock = threading.Lock()

        max_in_flight, per_user_limit, cache_capacity = _serving_config(
            **dict(serving_opts or {})
        )
        #: the writer-preferring catalog lock: pure reads share it,
        #: anything with effects holds it exclusively
        self.lock = RWLock()
        self.admission = AdmissionController(
            max_in_flight=max_in_flight,
            per_user_limit=per_user_limit,
            metrics=self.metrics,
        )
        self.cache = PlanCache(capacity=cache_capacity, metrics=self.metrics)
        self._closed = False
        #: replica mode (docs/REPLICATION.md): writes are rejected with
        #: :class:`~repro.errors.NotPrimary` carrying the primary's URL
        self.read_only = False
        self.primary_url: Optional[str] = None

    # ------------------------------------------------------------------
    # Account management
    # ------------------------------------------------------------------
    def create_user(self, admin: str, name: str, role: str) -> User:
        self._check_open()
        self._require(admin, ROLE_ADMIN)
        if name in self.users:
            raise AccessError(f"user {name!r} already exists")
        user = User(name, role)
        self.users[name] = user
        if self.durability is not None:
            try:
                self.durability.log_create_user(name, role)
            except Exception:
                # not durable -> not created: keep memory and disk agreed
                del self.users[name]
                raise
        return user

    def drop_user(self, admin: str, name: str) -> None:
        self._check_open()
        self._require(admin, ROLE_ADMIN)
        if name == "admin":
            raise AccessError("the admin account cannot be dropped")
        if name not in self.users:
            raise AccessError(f"unknown user {name!r}")
        dropped = self.users.pop(name)
        if self.durability is not None:
            try:
                self.durability.log_drop_user(name)
            except Exception:
                self.users[name] = dropped
                raise

    def _require(self, username: str, role: str) -> User:
        user = self.users.get(username)
        if user is None:
            raise AccessError(f"unknown user {username!r}")
        if not user.at_least(role):
            raise AccessError(
                f"user {username!r} (role {user.role}) lacks {role!r} rights"
            )
        return user

    def _check_rights(self, username: str, stmt) -> None:
        self._require(
            username, ROLE_WRITER if statement_is_write(stmt) else ROLE_READER
        )

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

    # ------------------------------------------------------------------
    # Script submission
    # ------------------------------------------------------------------
    def connect(self, user: str = "admin", *, transport: str = "ir"):
        """A :class:`~repro.serve.Connection` onto this server
        (``transport`` is accepted for compatibility and selects
        nothing: every connection runs the one pipeline)."""
        self._check_open()
        from repro.serve.connection import connect

        return connect(self, user, transport=transport)

    def submit(
        self,
        username: str,
        graql: str,
        params: Optional[Mapping[str, Any]] = None,
        timeout_s: Optional[float] = None,
        options: Optional[QueryOptions] = None,
    ) -> list[StatementResult]:
        """Run a script through the statement pipeline on this thread.

        ``timeout_s`` (or ``options.timeout``) is a per-statement
        wall-clock budget for the distributed backend; a statement that
        blows it degrades to single-node execution (or raises
        :class:`~repro.errors.DegradedMode` when fallback is disabled).
        Results answered degraded are counted in
        ``degraded_statements`` and flagged on the result itself.

        Admission control may raise :class:`~repro.errors.ServerBusy`;
        read-only scripts execute under the shared catalog lock (and may
        be answered from the plan cache, flagged ``cache: hit`` in the
        profile); anything with effects serializes.
        """
        return self._admitted(
            username, self._script_job(username, graql, params, timeout_s, options)
        )

    def run_work(self, user: str, write: bool, fn: Callable[[], Any]) -> Any:
        """Admit and run *fn* under the read or write lock, on this
        thread (direct ingest, checkpoints, prepared statements)."""
        return self._admitted(user, lambda: self._locked(write, fn))

    def _script_job(self, username, graql, params, timeout_s, options):
        # cheap pre-check so a cache hit cannot bypass access control;
        # per-statement write rights are checked before any statement
        # runs, and cached programs are always pure reads
        self._require(username, ROLE_READER)
        opts = resolve_options(options)
        if timeout_s is None:
            timeout_s = opts.timeout
        return lambda: self._run_script(username, graql, params, opts, timeout_s)

    # ------------------------------------------------------------------
    # Admission, locking
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("server is closed; no further statements accepted")

    @property
    def closed(self) -> bool:
        return self._closed

    def _admitted(self, user: str, fn: Callable[[], Any]) -> Any:
        self._check_open()
        ticket = self.admission.admit(user)
        try:
            return fn()
        finally:
            self.admission.release(ticket)

    def _locked(self, write: bool, fn: Callable[[], Any]) -> Any:
        if write:
            return self._write(fn)
        with self.lock.read_locked():
            return fn()

    def _write(self, fn: Callable[[], Any]) -> Any:
        if self.read_only:
            raise NotPrimary(
                "this node is a read-only replica; retry the write on the primary",
                primary=self.primary_url,
            )
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

    def close(self) -> None:
        """Stop accepting submissions.

        Submissions already admitted run to completion on their own
        threads; afterwards every submission raises
        :class:`~repro.errors.ClosedError`.  Idempotent.
        """
        self._closed = True

    # ------------------------------------------------------------------
    # The statement pipeline
    # ------------------------------------------------------------------
    def _run_script(
        self,
        username: str,
        source: str,
        params: Optional[Mapping[str, Any]],
        opts: QueryOptions,
        timeout_s: Optional[float],
    ) -> list[StatementResult]:
        script, parse = self._parse(source)
        if script_is_write(script):
            return self._write(
                lambda: self._execute(
                    username, script, params, opts, timeout_s, [parse]
                )[0]
            )
        with self.lock.read_locked():
            key = self.cache.key(source, params, self.catalog.epoch)
            entry = self.cache.lookup(key)
            if entry is not None:
                return self._execute_cached(entry.checked, opts, parse[1])
            results, checked = self._execute(
                username, script, params, opts, timeout_s, [parse]
            )
            if self.cluster is None:
                # a cache hit replays locally, bypassing the cluster
                self.cache.store(key, checked)
            return results

    @staticmethod
    def _parse(source: str) -> tuple[Script, tuple[str, float]]:
        """Parse *source*; returns the script and its ``parse`` stage."""
        t0 = time.perf_counter()
        script = parse_script(source)
        return script, ("parse", _ms_since(t0))

    def _execute(
        self,
        username: str,
        script: Script,
        params: Optional[Mapping[str, Any]],
        opts: QueryOptions,
        timeout_s: Optional[float] = None,
        stages: Optional[list] = None,
        pipeline: Optional[Pipeline] = None,
    ) -> tuple[list[StatementResult], list]:
        """Check and execute a parsed script under the caller's lock.

        Returns the results and each statement's resolution.  *stages*
        (the parse, when there was one) lead the first statement's
        profile, followed by the script-level substitute and typecheck.
        With a *pipeline*, the checked script's fusable pairs run as its
        fused steps (Section III-B1; single node only).
        """
        for stmt in script.statements:
            self._check_rights(username, stmt)
        stages = list(stages or ())
        statements = script.statements
        if params:
            t0 = time.perf_counter()
            statements = [substitute_statement(s, params) for s in statements]
            stages.append(("substitute", _ms_since(t0)))
        t0 = time.perf_counter()
        checked = check_script(Script(statements), self.catalog)
        stages.append(("typecheck", _ms_since(t0)))
        fused = pipeline.steps(statements, checked) if pipeline is not None else {}
        epoch = self.catalog.epoch
        results = []
        for i, stmt in enumerate(statements):
            if self.catalog.epoch != epoch:
                # an earlier statement moved the catalog: the scratch
                # resolution is stale, resolve against the live one
                t0 = time.perf_counter()
                checked[i] = check_statement(stmt, self.catalog)
                stages.append(("typecheck", _ms_since(t0)))
            if self.cluster is not None:
                result = self._ship(stmt, checked[i], opts, timeout_s, stages)
            else:
                run = fused.get(i, execute_checked)
                result = run(self.backend, self.catalog, checked[i], opts)
            self._record(result, stages)
            stages = []
            results.append(result)
        return results, checked

    def _ship(
        self,
        stmt,
        checked,
        opts: QueryOptions,
        timeout_s: Optional[float],
        stages: list,
    ) -> StatementResult:
        """Ship one checked statement to the backend cluster as binary IR.

        The backend executes the front end's resolution rather than
        re-checking the decoded copy: the verifier checks the bytes
        against the same catalog, and ``decode(encode(s)) == s``.
        """
        t0 = time.perf_counter()
        ir = encode_statement(stmt)
        # last line of defense before the backend decodes blindly:
        # reject corrupted/hand-crafted IR with a positioned IRError
        verify_statement_ir(ir, self.catalog)
        stages.append(("compile_ir", _ms_since(t0)))
        with self._counter_lock:
            self.ir_bytes_shipped += len(ir)
        t0 = time.perf_counter()
        decode_statement(ir)  # backend-side decode
        stages.append(("decode_ir", _ms_since(t0)))
        result = self.cluster.run(checked, opts, timeout_s)
        if result.degraded:
            with self._counter_lock:
                self.degraded_statements += 1
        if result.profile is not None:
            self.metrics.counter(
                "graql_ir_bytes_total", "IR bytes shipped to the backend cluster"
            ).inc(len(ir))
            if result.degraded:
                self.metrics.counter(
                    "graql_degraded_statements_total",
                    "statements answered via single-node fallback",
                ).inc()
        return result

    def _execute_cached(
        self, resolutions: list, opts: QueryOptions, parse_ms: float
    ) -> list[StatementResult]:
        results = []
        for checked in resolutions:
            result = execute_checked(self.backend, self.catalog, checked, opts)
            if result.profile is not None:
                # the cache lookup replaced the whole front-end pipeline;
                # the parse needed for classification is all that remains
                result.profile.cache_hit = True
                self._record(result, [("cache", parse_ms)])
                self.metrics.cached(
                    "statements_cached",
                    lambda: self.metrics.counter(
                        "graql_statements_cached_total",
                        "statements answered from the plan cache",
                    ),
                ).inc()
            results.append(result)
        return results

    def _record(self, result: StatementResult, stages: list) -> None:
        """Prepend the front-end *stages* and fold the profile into the
        server's metrics."""
        if result.profile is not None:
            result.profile.stages[:0] = stages
            record_profile_metrics(self.metrics, result.profile)

    def __repr__(self) -> str:
        return (
            f"Server(users={len(self.users)}, objects="
            f"{len(self.catalog.tables) + len(self.catalog.vertices) + len(self.catalog.edges)})"
        )


def _serving_config(
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    per_user_limit: Optional[int] = None,
    cache_capacity: int = DEFAULT_CACHE_CAPACITY,
) -> tuple:
    """Validate ``serving_opts`` keys (an unknown one is a TypeError)."""
    return max_in_flight, per_user_limit, cache_capacity
