"""The client API: connections, cursors, prepared statements.

One driver-style surface, three transports (docs/API.md, docs/NETWORK.md)::

    from repro import connect

    conn = connect(server)                    # in-process, shared engine
    conn = connect("/path/to/shop.db")        # open a durable store
    conn = connect("graql://127.0.0.1:7687")  # dial a GraqlServer over TCP

    with conn.cursor() as cur:
        cur.execute("select name from People where age > %MinAge%",
                    params={"MinAge": 30})
        for row in cur:                 # streamed in batches
            print(row.name)

    ps = conn.prepare("select name from People where age > %MinAge%")
    ps.execute({"MinAge": 30})          # parse/typecheck/IR paid once

Every form returns the same :class:`Connection` ABC; cursors, prepared
statements and :class:`~repro.storage.table.Row` behave identically —
the only observable difference is where the statements execute.

In-process, every execution runs the server's one statement pipeline
(:class:`~repro.engine.server.Server`: admission control, reader-writer
catalog lock, plan cache, access rights, whole-script static check).
The ``transport=`` argument (``"ir"`` or ``"local"``) is accepted for
compatibility and selects nothing; binary IR is shipped only when the
server's backend is the cluster.  The network transport
(:class:`repro.net.RemoteConnection`) ships the same requests over a
checksummed binary wire protocol to a :class:`repro.net.GraqlServer`,
which runs them through the identical pipeline on the other side of the
socket.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.errors import ClosedError, TypeCheckError
from repro.graql.ir import encode_statement
from repro.graql.params import unbound_params
from repro.graql.parser import parse_script
from repro.graql.typecheck import check_script
from repro.obs.options import QueryOptions, resolve_options
from repro.query.executor import StatementKind, StatementResult
from repro.serve.engine import script_is_write
from repro.storage.expr import deferred_params
from repro.storage.table import Row, Table

#: the in-process ``transport=`` values, kept for compatibility: both
#: run the server's one statement pipeline
TRANSPORTS = ("ir", "local")

#: the one batch-size constant the whole driver shares: the default
#: ``Cursor.arraysize`` (``fetchmany`` size and local row-production
#: granularity) *and* the network server's result-stream batch size —
#: a remote cursor's batches line up with a local cursor's by
#: construction (docs/NETWORK.md).
DEFAULT_BATCH_ROWS = 1024

#: scheme prefix that makes :func:`connect` dial TCP
URL_SCHEME = "graql://"


def connect(target: Any = None, user: str = "admin", *,
            transport: Optional[str] = None, **kwargs: Any) -> "Connection":
    """Open a :class:`Connection` onto *target*, whatever it is.

    * ``connect("graql://host:port")`` — dial a running
      :class:`~repro.net.GraqlServer` over TCP and return a
      :class:`~repro.net.RemoteConnection`.  Extra kwargs
      (``connect_timeout``, ``request_timeout``, ``batch_rows``) go to
      the remote connection.
    * ``connect("/path/to.db")`` — open (creating/recovering if needed)
      the durable store at that path and return an in-process
      connection that **owns** the database: closing the connection
      closes the store and flushes its WAL.  Extra kwargs go to
      :meth:`~repro.engine.session.Database.open` (``fsync``, ...).
    * ``connect(db)`` — a new connection onto a
      :class:`~repro.engine.session.Database`'s shared engine.
    * ``connect(server)`` — a new connection onto a shared
      :class:`~repro.engine.server.Server` (the historical form).

    ``transport`` (``"ir"`` or ``"local"``) is kept for compatibility:
    every in-process connection runs the same pipeline, and an unknown
    value raises ``ValueError``.  It is ignored for TCP targets.
    """
    if isinstance(target, str):
        if target.startswith(URL_SCHEME):
            from repro.net.client import RemoteConnection

            return RemoteConnection(target, user=user, **kwargs)
        from repro.engine.session import Database

        db = Database.open(target, **kwargs)
        return LocalConnection(db.server, user, transport, owned_db=db)
    if kwargs:
        raise TypeError(
            f"unexpected keyword arguments for an in-process connection: "
            f"{', '.join(sorted(kwargs))}"
        )
    from repro.engine.session import Database

    if isinstance(target, Database):
        target = target.server
    if target is None:
        raise TypeError(
            "connect() needs a target: a graql:// URL, a database path, "
            "a Database, or a Server"
        )
    return LocalConnection(target, user, transport)


class CursorExec:
    """What one execution hands a :class:`Cursor` to stream from.

    ``batches`` yields lists of :class:`~repro.storage.table.Row`;
    ``table`` is the streamed result's :class:`Table` — present
    immediately for in-process execution, patched in by the network
    client once the stream has fully drained.  ``finish`` (optional)
    is called by :meth:`Cursor.close` to release transport resources
    (a remote cursor drains its pending frames so the connection stays
    usable).
    """

    __slots__ = ("results", "table", "rowcount", "description", "batches", "finish")

    def __init__(
        self,
        results: list[StatementResult],
        table: Optional[Table],
        rowcount: int,
        description: Optional[list[tuple]],
        batches: Optional[Iterator[list[Row]]],
        finish: Optional[Callable[[], None]] = None,
    ) -> None:
        self.results = results
        self.table = table
        self.rowcount = rowcount
        self.description = description
        self.batches = batches
        self.finish = finish

    @classmethod
    def from_results(
        cls, results: list[StatementResult], batch_size: int
    ) -> "CursorExec":
        """Stream the last table result of an in-process execution."""
        for r in reversed(results):
            if r.kind == StatementKind.TABLE and r.table is not None:
                return cls(
                    results,
                    r.table,
                    r.table.num_rows,
                    [(c.name, c.dtype.ddl()) for c in r.table.schema],
                    r.table.iter_batches(batch_size),
                )
        return cls(results, None, -1, None, None)


class Connection(abc.ABC):
    """A client's handle on a GraQL engine — local or remote.

    The ABC pins the driver surface every transport implements:
    :meth:`execute`, :meth:`prepare`, :meth:`cursor`, idempotent
    :meth:`close`, and context-manager use.  Concrete transports:
    :class:`LocalConnection` (in-process) and
    :class:`~repro.net.RemoteConnection` (TCP).
    """

    user: str

    def __init__(self, user: str) -> None:
        self.user = user
        self._closed = False

    # ------------------------------------------------------------------
    # Execution surface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def execute(
        self,
        source: str,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
        timeout_s: Optional[float] = None,
    ) -> list[StatementResult]:
        """Execute a GraQL script; one :class:`StatementResult` per
        statement, in order."""

    @abc.abstractmethod
    def prepare(self, source: str) -> "BasePreparedStatement":
        """Parse/typecheck/compile *source* once; bind values per
        execution."""

    def cursor(self, batch_size: int = DEFAULT_BATCH_ROWS) -> "Cursor":
        self._check_open()
        return Cursor(self, batch_size=batch_size)

    def _cursor_run(
        self,
        source: str,
        params: Optional[Mapping[str, Any]],
        options: Optional[QueryOptions],
        batch_size: int,
    ) -> CursorExec:
        """Execute for a cursor.  The default materializes via
        :meth:`execute`; the network transport overrides this to stream
        result batches straight off the socket."""
        return CursorExec.from_results(
            self.execute(source, params, options), batch_size
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the connection.  Idempotent on every transport."""
        if self._closed:
            return
        self._closed = True
        self._do_close()

    def _do_close(self) -> None:
        """Transport-specific teardown; runs at most once."""

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("connection is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalConnection(Connection):
    """An in-process handle on a shared server: every execution runs the
    server's statement pipeline (``transport`` selects nothing)."""

    def __init__(
        self,
        server,
        user: str,
        transport: Optional[str] = "ir",
        *,
        owned_db=None,
    ) -> None:
        if transport is not None and transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}")
        # surface unknown users at connect time, not first query
        server._require(user, "reader")
        super().__init__(user)
        self.server = server
        #: a Database this connection opened (connect(path)) and must
        #: close — None when the server is shared with other owners
        self._owned_db = owned_db

    # ------------------------------------------------------------------
    @property
    def catalog(self):
        return self.server.catalog

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        source: str,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
        timeout_s: Optional[float] = None,
    ) -> list[StatementResult]:
        self._check_open()
        return self.server.submit(
            self.user, source, params, timeout_s=timeout_s, options=options
        )

    def prepare(self, source: str) -> "PreparedStatement":
        """Parse, access-check, statically check and IR-encode *source*
        once.

        Unbound ``%Param%`` placeholders are allowed (they typecheck as
        the deferred wildcard type); each :meth:`PreparedStatement.execute`
        binds a fresh set of values.
        """
        self._check_open()
        return PreparedStatement(self, source)

    # ------------------------------------------------------------------
    def _do_close(self) -> None:
        if self._owned_db is not None:
            self._owned_db.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"LocalConnection(user={self.user!r}, {state})"


class BasePreparedStatement(abc.ABC):
    """A statement compiled once, executed many times with fresh bindings.

    The ABC is the cross-transport contract: ``param_names`` lists the
    ``%Param%`` placeholders that must be bound, :meth:`execute` runs
    with one binding, :meth:`cursor` streams the result.  Locally the
    compiled form lives in this process; remotely it lives in the
    server's session and is addressed by id — either way a missing
    parameter raises :class:`~repro.errors.TypeCheckError` before
    anything executes.
    """

    connection: Connection
    source: str
    #: parameter names the script needs bound at execution
    param_names: tuple

    def _require_params(self, params: Optional[Mapping[str, Any]]) -> None:
        missing = [p for p in self.param_names if p not in (params or {})]
        if missing:
            raise TypeCheckError(
                f"prepared statement is missing parameters: {', '.join(missing)}"
            )

    @abc.abstractmethod
    def execute(
        self,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
    ) -> list[StatementResult]:
        """Bind *params* and execute; returns one result per statement."""

    def _cursor_exec(
        self,
        params: Optional[Mapping[str, Any]],
        options: Optional[QueryOptions],
        batch_size: int,
    ) -> CursorExec:
        return CursorExec.from_results(self.execute(params, options), batch_size)

    def cursor(
        self,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
        batch_size: int = DEFAULT_BATCH_ROWS,
    ) -> "Cursor":
        """Execute with *params* and return a cursor over the results."""
        cur = Cursor(self.connection, batch_size=batch_size)
        cur._adopt(self._cursor_exec(params, options, batch_size))
        return cur


class PreparedStatement(BasePreparedStatement):
    """A script parsed, access-checked, statically checked and
    IR-encoded once.

    Execution binds a parameter mapping and runs the server's statement
    pipeline from substitution on — no parse and no plan cache; the
    whole-script check with values in hand is what validates the
    binding's types.
    """

    def __init__(self, connection: LocalConnection, source: str) -> None:
        self.connection = connection
        self.source = source
        self.script = parse_script(source)
        self.is_write = script_is_write(self.script)
        server = connection.server
        for stmt in self.script.statements:
            server._check_rights(connection.user, stmt)
        self.param_names = tuple(
            sorted({p for s in self.script.statements for p in unbound_params(s)})
        )

        def check() -> int:
            with deferred_params():
                check_script(self.script, server.catalog)
            return server.catalog.epoch

        #: catalog epoch the static checks ran against
        self.epoch = server.run_work(connection.user, False, check)
        #: binary IR per statement (Param nodes encode as-is)
        self.ir: tuple = tuple(
            encode_statement(s) for s in self.script.statements
        )

    @property
    def ir_size(self) -> int:
        return sum(len(b) for b in self.ir)

    def execute(
        self,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
    ) -> list[StatementResult]:
        self.connection._check_open()
        self._require_params(params)
        user, server = self.connection.user, self.connection.server
        opts = resolve_options(options)
        return server.run_work(
            user,
            self.is_write,
            lambda: server._execute(user, self.script, params, opts, opts.timeout)[0],
        )

    def __repr__(self) -> str:
        return (
            f"PreparedStatement({len(self.script.statements)} stmts, "
            f"params={list(self.param_names)}, ir={self.ir_size}B)"
        )


class Cursor:
    """Streaming consumption of a script's last table result.

    Rows are produced in batches as the consumer advances — ``fetchone``
    / ``fetchmany`` / iteration never materialize the full row list up
    front.  In-process, batches come from
    :meth:`~repro.storage.table.Table.iter_batches`; over TCP they are
    the server's streamed result frames, consumed off the socket on
    demand.  ``results`` exposes every statement's
    :class:`~repro.query.executor.StatementResult` for non-tabular needs
    (DDL messages, subgraphs, profiles).
    """

    def __init__(self, connection: Connection, batch_size: int = DEFAULT_BATCH_ROWS) -> None:
        self.connection = connection
        #: default fetchmany size and row-production batch size
        self.arraysize = batch_size
        self.results: Optional[list[StatementResult]] = None
        self._exec: Optional[CursorExec] = None
        self._batches: Optional[Iterator[list[Row]]] = None
        self._buffer: list[Row] = []
        self._pos = 0

    # ------------------------------------------------------------------
    def execute(
        self,
        source: "str | BasePreparedStatement",
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[QueryOptions] = None,
    ) -> "Cursor":
        """Run a script (or a prepared statement) and point the cursor at
        its last table result.  Returns ``self`` for chaining."""
        if isinstance(source, BasePreparedStatement):
            self._adopt(source._cursor_exec(params, options, self.arraysize))
        else:
            self._adopt(
                self.connection._cursor_run(
                    source, params, options, self.arraysize
                )
            )
        return self

    def _adopt(self, ex: CursorExec) -> None:
        self._exec = ex
        self.results = ex.results
        self._batches = ex.batches
        self._buffer = []
        self._pos = 0

    # ------------------------------------------------------------------
    # Result-set metadata
    # ------------------------------------------------------------------
    @property
    def description(self) -> Optional[list[tuple]]:
        """Per-column ``(name, type_ddl)`` of the current result set."""
        return self._exec.description if self._exec is not None else None

    @property
    def table(self) -> Optional[Table]:
        """The table the cursor is streaming (None without a table
        result).  A remote cursor's table materializes once its stream
        has fully drained; metadata (:attr:`description`,
        :attr:`rowcount`) is available immediately."""
        return self._exec.table if self._exec is not None else None

    @property
    def rowcount(self) -> int:
        return -1 if self._exec is None else self._exec.rowcount

    # ------------------------------------------------------------------
    # Streaming fetch API
    # ------------------------------------------------------------------
    def fetchone(self) -> Optional[Row]:
        """The next row, or ``None`` when the result set is exhausted."""
        if not self._fill():
            return None
        row = self._buffer[self._pos]
        self._pos += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> list[Row]:
        """Up to *size* rows (default ``arraysize``); ``[]`` at the end."""
        n = self.arraysize if size is None else size
        out: list[Row] = []
        while len(out) < n:
            if not self._fill():
                break
            take = min(n - len(out), len(self._buffer) - self._pos)
            out.extend(self._buffer[self._pos : self._pos + take])
            self._pos += take
        return out

    def fetchall(self) -> list[Row]:
        out: list[Row] = []
        while True:
            batch = self.fetchmany(self.arraysize)
            if not batch:
                return out
            out.extend(batch)

    def __iter__(self) -> Iterator[Row]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def _fill(self) -> bool:
        """Ensure the buffer has an unread row; False when exhausted."""
        if self._pos < len(self._buffer):
            return True
        if self._batches is None:
            if self.results is None:
                raise ClosedError("no query has been executed on this cursor")
            return False  # script produced no table result
        try:
            self._buffer = next(self._batches)
            self._pos = 0
            return bool(self._buffer)
        except StopIteration:
            self._batches = None
            self._buffer = []
            self._pos = 0
            return False

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._exec is not None and self._exec.finish is not None:
            self._exec.finish()
        self.results = None
        self._exec = None
        self._batches = None
        self._buffer = []
        self._pos = 0

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        n = self.rowcount
        return f"Cursor(rows={'?' if n < 0 else n}, arraysize={self.arraysize})"
