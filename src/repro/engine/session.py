"""The in-process client API.

:class:`Database` is the public entry point of this library::

    from repro import Database

    db = Database()
    db.execute(open("schema.graql").read())
    db.execute("ingest table Products products.csv")
    result = db.query(
        "select y.id from graph "
        "ProductVtx (id = %Product1%) --feature--> FeatureVtx "
        "<--feature-- def y: ProductVtx into table T1",
        params={"Product1": "p42"},
    )

It wires together the full GEMS pipeline: parse -> parameter substitution
-> static analysis against the catalog -> plan -> execute, and keeps the
catalog statistics fresh across DDL and ingest.

Since the serving-layer redesign (docs/API.md), a ``Database`` is a thin
wrapper over one in-process :class:`~repro.serve.Connection` onto its own
:class:`~repro.engine.server.Server`: every ``execute``/``query`` runs
the server's one statement pipeline (admission control, reader-writer
catalog lock, plan cache, whole-script static check), so a ``Database``
is safe to share across threads — concurrent selects run in parallel,
DDL/ingest serialize, and an ill-typed script runs no statement.
``db.connect()`` hands out further connections (and cursors, and
prepared statements) onto the same engine.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.errors import ExecutionError
from repro.obs.options import QueryOptions, resolve_options
from repro.obs.profile import record_refresh_metrics
from repro.graph.subgraph import Subgraph
from repro.query.executor import StatementKind, StatementResult
from repro.storage.table import Table


class Database:
    """An in-memory attributed-graph database speaking GraQL.

    Return-shape contract (the two entry points differ on purpose):

    * :meth:`execute` returns ``list[StatementResult]`` — one result per
      statement in the script, in order, covering every statement kind
      (DDL, ingest, table and subgraph selects).  Each result carries a
      :class:`~repro.obs.QueryProfile` under ``.profile``.
    * :meth:`query` returns a bare :class:`~repro.storage.table.Table` —
      the *last* table result in the script — and raises
      :class:`~repro.errors.ExecutionError` when the script produced
      none.  :meth:`query_subgraph` is the subgraph analogue.

    Execution is tuned through :class:`~repro.obs.QueryOptions`::

        db.execute(q, options=QueryOptions(direction="backward", trace=True))

    and every statement folds its profile into ``db.metrics`` (a
    :class:`~repro.obs.MetricsRegistry`); ``db.render_metrics()`` emits
    the Prometheus text exposition.
    """

    def __init__(
        self,
        *,
        serving_opts: Optional[Mapping[str, Any]] = None,
        path: Optional[str] = None,
        durability: Optional[Mapping[str, Any]] = None,
    ) -> None:
        from repro.engine.server import Server, User
        from repro.serve.connection import connect

        self._closed = False
        self._store = None
        backend = None
        if path is not None:
            from repro.durability import DurableStore

            dura = dict(durability or {})
            self._store = DurableStore.open(path, **dura)
            backend = self._store.db

        self._server = Server(backend=backend, serving_opts=serving_opts)
        self.db = self._server.backend
        self.catalog = self._server.catalog
        #: process-wide counters/gauges/histograms for this database
        self.metrics = self._server.metrics
        #: the one in-process connection execute/query run through
        self._conn = connect(self._server, "admin")

        if self._store is not None:
            # arm the journal only now: recovery replays are not re-logged
            for name, role in self._store.users:
                if name not in self._server.users:
                    self._server.users[name] = User(name, role)
            # plan-cache keys embed the epoch; keep it monotonic across
            # restarts so a stale external cache could never alias
            self.catalog.epoch = max(self.catalog.epoch, self._store.last_epoch + 1)
            self._store.metrics = self.metrics
            if self._store._writer is not None:
                self._store._writer.metrics = self.metrics
            self._store.epoch_provider = lambda: self.catalog.epoch
            self._server.durability = self._store
            self.db.journal = self._store

    # ------------------------------------------------------------------
    # Durability (docs/DURABILITY.md)
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str, **kwargs: Any) -> "Database":
        """Open (creating if needed) a durable database at *path*.

        Opening *is* recovery: the newest valid checkpoint is restored,
        the WAL tail replayed (stopping cleanly before the first torn
        or checksum-failing record), and every subsequent mutation —
        DDL, ingest, ``into`` results, account changes — is appended to
        the WAL before the statement is acknowledged.  Keyword
        arguments besides ``serving_opts`` go to
        :class:`~repro.durability.DurableStore` (``fsync``,
        ``batch_records``, ``checkpoint_every``, ``faults``,
        ``tracer``).  What happened is in :attr:`recovery`.
        """
        serving_opts = kwargs.pop("serving_opts", None)
        return cls(serving_opts=serving_opts, path=path, durability=kwargs)

    @classmethod
    def recover(cls, path: str, **kwargs: Any) -> "Database":
        """Alias of :meth:`open` for supervisor restart flows — reads as
        intent ("recover whatever is at this path") at call sites."""
        return cls.open(path, **kwargs)

    @property
    def store(self):
        """The :class:`~repro.durability.DurableStore` backing this
        database, or None for a purely in-memory one."""
        return self._store

    @property
    def recovery(self):
        """The :class:`~repro.durability.RecoveryReport` from open time
        (None for in-memory databases)."""
        return self._store.report if self._store is not None else None

    def checkpoint(self) -> Optional[str]:
        """Snapshot the current state and truncate the WAL (under the
        write lock, so the snapshot is a statement boundary).  Returns
        the snapshot path, or None for an in-memory database."""
        if self._store is None:
            return None
        return self._server.run_work("admin", True, self._store.checkpoint)

    def close(self) -> None:
        """Shut down: drain the server's worker pool, flush and close the
        WAL.  Idempotent.  Afterwards every submission raises
        :class:`~repro.errors.ClosedError`."""
        if self._closed:
            return
        self._closed = True
        self._server.close()
        if self._store is not None:
            self._store.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    @property
    def server(self):
        """The in-process :class:`~repro.engine.server.Server` backing
        this database (shared catalog, metrics and concurrency controls)."""
        return self._server

    def connect(self, user: str = "admin", *, transport: str = "local"):
        """A new :class:`~repro.serve.Connection` onto this database's
        server.  ``transport`` is kept for compatibility and selects
        nothing: every connection runs the server's one pipeline."""
        from repro.serve.connection import connect

        return connect(self._server, user, transport=transport)

    def prepare(self, graql: str):
        """Parse/check/IR-encode once; bind parameters per execution
        (:class:`~repro.serve.PreparedStatement`)."""
        return self._conn.prepare(graql)

    def cursor(self, batch_size: Optional[int] = None):
        """A streaming :class:`~repro.serve.Cursor` on the in-process
        connection (default batch size:
        :data:`~repro.serve.DEFAULT_BATCH_ROWS`)."""
        from repro.serve.connection import DEFAULT_BATCH_ROWS

        return self._conn.cursor(batch_size=batch_size or DEFAULT_BATCH_ROWS)

    # ------------------------------------------------------------------
    # GraQL execution
    # ------------------------------------------------------------------
    def execute(
        self,
        graql: str,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
    ) -> list[StatementResult]:
        """Execute a GraQL script (one or more statements), in order.

        ``options`` is the typed execution API (docs/OBSERVABILITY.md).
        """
        return self._conn.execute(graql, params, options)

    def query(
        self,
        graql: str,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
    ) -> Table:
        """Execute a script and return the last statement's table result.

        Unlike :meth:`execute` (which returns every statement's
        :class:`StatementResult`), this unwraps straight to a
        :class:`Table` and raises ``ExecutionError`` if the script
        produced no table.
        """
        results = self.execute(graql, params, options)
        for r in reversed(results):
            if r.kind == StatementKind.TABLE and r.table is not None:
                return r.table
        raise ExecutionError("script produced no table result")

    def query_subgraph(
        self,
        graql: str,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
    ) -> Subgraph:
        """Execute a script and return the last subgraph result."""
        results = self.execute(graql, params, options)
        for r in reversed(results):
            if r.kind == StatementKind.SUBGRAPH and r.subgraph is not None:
                return r.subgraph
        raise ExecutionError("script produced no subgraph result")

    def execute_file(
        self,
        path: str,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
    ) -> list[StatementResult]:
        """Execute a GraQL script file."""
        with open(path, encoding="utf-8") as fh:
            return self.execute(fh.read(), params, options)

    # ------------------------------------------------------------------
    # Direct data access (bypassing CSV files)
    # ------------------------------------------------------------------
    def ingest_rows(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        """Append stored-form rows and bring dependent views up to date
        (atomic; serializes with concurrent statements via the write
        lock)."""
        return self._ingest(lambda: self.db.ingest_rows(table, rows))

    def ingest_text(self, table: str, csv_text: str) -> int:
        """Ingest CSV text (same semantics as ``ingest table``)."""
        return self._ingest(lambda: self.db.ingest_text(table, csv_text))

    def _ingest(self, ingest) -> int:
        def work() -> int:
            n, report = ingest()
            self.catalog.absorb(self.db, report)
            record_refresh_metrics(self.metrics, report)
            return n

        return self._server.run_work("admin", True, work)

    def table(self, name: str) -> Table:
        return self.db.table(name)

    def subgraph(self, name: str) -> Subgraph:
        return self.db.subgraph(name)

    def subgraph_tables(self, name: str, register: bool = False) -> dict[str, Table]:
        """Render a named subgraph back into per-type tables (the paper's
        table/graph duality).  With ``register=True`` the tables become
        queryable result tables named ``{subgraph}_{type}``."""
        from repro.query.duality import register_subgraph_tables, subgraph_tables

        sg = self.db.subgraph(name)
        if register:
            register_subgraph_tables(self.db, self.catalog, sg)
        return subgraph_tables(self.db, sg)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def analyze(self, graql: str, params: Optional[Mapping[str, Any]] = None):
        """Statically analyze a script without executing anything.

        Runs the multi-pass analyzer (collect-all typechecking, lint
        passes, IR verification) against the current catalog and returns
        an :class:`~repro.analysis.AnalysisResult` — every defect in one
        run, each with a stable ``GQL``/``GQW`` code and ``line:col``.
        """
        from repro.analysis import Analyzer

        return Analyzer(self.catalog).analyze(graql, params)

    def explain(
        self,
        graql: str,
        params: Optional[Mapping[str, Any]] = None,
        mode: str = "plan",
        options: Optional[QueryOptions] = None,
    ) -> "ExplainReport":
        """The plan the engine would execute, as a structured report.

        Returns an :class:`~repro.query.explain.ExplainReport` — a
        frozen tree of plan nodes.  ``str(report)`` /
        ``report.to_text()`` is the classic indented text;
        ``report.to_json()`` the machine-readable schema; ``in`` checks
        search the text.

        ``mode="plan"`` (default) is static: strategy choice, per-atom
        sweep directions with both directions' cost estimates, the
        anchor access path (``access: index-seek(I) est=...``), per-step
        cardinalities/selectivities, relational operator pipelines, and
        the script's dependence schedule.  ``mode="analyze"`` *executes*
        the script and attaches each statement's measured
        :class:`~repro.obs.QueryProfile` (stage timings, estimated vs.
        actual cardinalities, index hits, dist counters) to the report.
        ``options.explain`` set to ``"analyze"`` selects the same thing.
        A statement answered from the plan cache shows a ``cache: hit``
        line in its profile block.
        """
        from repro.query.explain import explain_analyze, explain_report

        if mode == "analyze" or (options is not None and options.wants_analyze):
            return explain_analyze(self, graql, params, options)
        hints = options.hints if options is not None else None
        return explain_report(graql, self.catalog, params, hints)

    def schema(self) -> "SchemaReport":
        """Typed snapshot of the catalog: tables, vertex/edge types,
        secondary indexes (with statistics freshness), subgraphs.

        Returns a frozen :class:`~repro.engine.introspect.SchemaReport`;
        ``str(report)`` renders the ``\\di``-style listing, and
        ``report.to_json()`` the machine form.
        """
        from repro.engine.introspect import schema_report

        return schema_report(self.catalog)

    def render_metrics(self) -> str:
        """Prometheus text exposition of everything this database counted."""
        return self.metrics.render_prometheus()

    def execute_pipelined(
        self,
        graql: str,
        params: Optional[Mapping[str, Any]] = None,
        num_chunks: int = 8,
        options: Optional[QueryOptions] = None,
    ):
        """:meth:`execute` with Section III-B1 pipelining: each dependent
        (graph select -> aggregation) pair runs fused, in up to
        *num_chunks* chunks, bounding intermediate materialization.
        The script takes the server's one statement pipeline (rights,
        whole-script check, lock, metrics) like every other adapter.
        Returns (results, one
        :class:`~repro.engine.pipeline.PipelineStats` per fused pair).
        """
        from repro.engine.pipeline import Pipeline
        from repro.serve.engine import script_is_write

        server = self._server
        script, parse = server._parse(graql)
        opts = resolve_options(options)
        pipeline = Pipeline(num_chunks)
        results = server.run_work(
            "admin",
            script_is_write(script),
            lambda: server._execute(
                "admin", script, params, opts, opts.timeout, [parse], pipeline
            )[0],
        )
        return results, pipeline.stats

    def vertex_count(self, type_name: str) -> int:
        return self.db.vertex_type(type_name).num_vertices

    def edge_count(self, type_name: str) -> int:
        return self.db.edge_type(type_name).num_edges

    def __repr__(self) -> str:
        return f"Database({self.db!r})"
