"""Exception hierarchy for the GraQL/GEMS reproduction.

Every error raised by the library derives from :class:`GraQLError` so
applications can catch one type.  The hierarchy mirrors the stages of the
GEMS pipeline described in Section III of the paper: lexing/parsing on the
client, static analysis on the front-end server (catalog-based type
checking), and execution on the backend cluster.
"""

from __future__ import annotations


class GraQLError(Exception):
    """Base class for all errors raised by this library.

    Every error may carry a stable diagnostic ``code`` (``GQL0xx``, see
    docs/ANALYSIS.md) and a 1-based source position (``line``/``column``,
    0 when unknown).  :meth:`with_pos` attaches a position after the fact
    without changing the exception type — the static analyzer uses it to
    point errors raised deep inside the typechecker at the offending
    token.
    """

    #: stable diagnostic code (docs/ANALYSIS.md); None when unassigned
    code: "str | None" = None

    def with_pos(self, line: int, column: int) -> "GraQLError":
        """Attach a source position, appending ``(line L, column C)`` to
        the message once.  A position already present wins."""
        if line and not getattr(self, "line", 0):
            self.line = line
            self.column = column
            self.args = (f"{self.args[0]} (line {line}, column {column})",) + self.args[1:]
        return self

    def with_code(self, code: str) -> "GraQLError":
        """Attach a diagnostic code (existing code wins)."""
        if self.code is None:
            self.code = code
        return self


class LexError(GraQLError):
    """Raised when the lexer encounters an invalid character sequence.

    Carries ``line`` and ``column`` (1-based) of the offending position.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(GraQLError):
    """Raised when the parser cannot build an AST from a token stream."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class TypeCheckError(GraQLError):
    """Raised by static query analysis (paper Section III-A).

    Examples: comparing a date to a float, using a table name where a
    vertex type is required, ill-formed path queries (vertex step followed
    by a vertex step), or referencing undeclared attributes.

    Carries an optional 1-based ``line``/``column`` (0 = unknown), same
    convention as :class:`ParseError`.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class CatalogError(GraQLError):
    """Raised for catalog violations: duplicate or unknown database objects."""


class IngestError(GraQLError):
    """Raised when CSV ingest fails (missing file, arity or type mismatch)."""


class ExecutionError(GraQLError):
    """Raised by the backend when a statically-valid query cannot execute."""


class PlanError(GraQLError):
    """Raised when the planner cannot produce a physical plan for a query."""


class IRError(GraQLError):
    """Raised when binary IR encoding, decoding or verification fails.

    ``offset`` positions the error at the offending byte of the IR
    stream (None when not applicable); ``instruction`` names the IR
    construct being decoded/verified when known.
    """

    def __init__(
        self,
        message: str,
        offset: "int | None" = None,
        instruction: "str | None" = None,
    ) -> None:
        where = ""
        if instruction is not None:
            where += f" in {instruction}"
        if offset is not None:
            where += f" at byte offset {offset}"
        super().__init__(f"{message}{where}" if where else message)
        self.offset = offset
        self.instruction = instruction


class AccessError(GraQLError):
    """Raised by the front-end server when a user lacks permission."""


class WalError(GraQLError):
    """Raised by the durable storage engine (docs/DURABILITY.md).

    Covers write-ahead-log append/fsync failures, unusable database
    directories, and corrupt files where corruption is *not* a normal
    recovery outcome (e.g. no valid checkpoint can be loaded at all).
    After an append or fsync failure the store poisons itself: the
    failed record may be torn on disk, so acknowledging later writes
    would break the committed-prefix guarantee — every subsequent
    mutation raises ``WalError`` until the database is re-opened
    (which truncates the torn tail).
    """


class ClosedError(ExecutionError):
    """Raised when a statement is submitted to a closed database.

    ``Database.close()`` (or leaving a ``with`` block) stops the server
    admitting submissions and flushes the WAL; afterwards every
    submission fails fast with this error instead of half-executing
    against a closed store.
    """


class ProtocolError(GraQLError):
    """Raised by the network layer (docs/NETWORK.md).

    Covers malformed wire frames (bad magic, oversized length prefix,
    checksum mismatch, undecodable payload), protocol-version mismatch,
    and a peer that vanished mid-conversation (EOF inside a frame, a
    reset connection).  A frame that fails its checksum is *rejected*,
    never partially applied — the framing discipline mirrors the WAL's:
    nothing past the first bad byte is ever interpreted.
    """


class ServerBusy(GraQLError):
    """Raised by the serving layer's admission controller.

    The statement was *not* executed: either the server-wide bounded
    queue is full or the submitting user already has their maximum
    number of statements in flight.  Clients should back off and retry;
    rejections are counted in the server's
    :class:`~repro.obs.MetricsRegistry`
    (``graql_admission_rejected_total``).

    ``reason`` is ``"queue_full"`` or ``"user_limit"``.
    """

    def __init__(self, message: str, reason: str = "queue_full") -> None:
        super().__init__(message)
        self.reason = reason


# ----------------------------------------------------------------------
# Replication taxonomy (docs/REPLICATION.md)
# ----------------------------------------------------------------------

class NotPrimary(GraQLError):
    """Raised when a write is submitted to a read-only replica.

    The statement was *not* executed.  ``primary`` carries the
    ``graql://`` URL of the node this replica streams from (None when
    the replica has lost track of its primary, e.g. mid-failover);
    :class:`~repro.net.RemoteConnection` follows it as a redirect and
    retries the write there — a NotPrimary rejection is always safe to
    retry because nothing ran.
    """

    def __init__(self, message: str, primary: "str | None" = None) -> None:
        if primary:
            message = f"{message} (primary: {primary})"
        super().__init__(message)
        self.primary = primary


class ReplicaStale(GraQLError):
    """Raised when a streamed WAL record fails the epoch fence.

    A promoted replica bumps the replication epoch; records stamped
    with a lower epoch can only come from a deposed primary that kept
    writing after the failover, and applying them would fork history.
    ``seq`` / ``repl_epoch`` identify the rejected record.
    """

    def __init__(
        self,
        message: str,
        seq: "int | None" = None,
        repl_epoch: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.seq = seq
        self.repl_epoch = repl_epoch


class PromotionError(GraQLError):
    """Raised when a node cannot be promoted to primary.

    Promotion requires a replica whose applier has replayed its tail;
    promoting a node that is already primary, has no durable store, or
    cannot persist the bumped epoch fails with this.
    """


# ----------------------------------------------------------------------
# Backend fault taxonomy (simulated cluster, docs/RELIABILITY.md)
# ----------------------------------------------------------------------

class BackendError(GraQLError):
    """Runtime failure of the (simulated) backend cluster.

    Carries ``retryable``: retryable failures (a lost message, a worker
    that fail-stopped but has live replicas) are handled by superstep
    retry; fatal ones (partition lost, timeout, retry budget exhausted)
    escalate to the degradation policy in :class:`repro.dist.Cluster`.
    """

    retryable = False

    def __init__(self, message: str, retryable: bool | None = None) -> None:
        super().__init__(message)
        if retryable is not None:
            self.retryable = retryable


class WorkerFailed(BackendError):
    """A worker fail-stopped (injected or simulated).

    ``worker`` is the failed rank when known; ``partition`` the logical
    partition that became unreachable (set when *all* replicas are dead,
    in which case the error is fatal: the data is gone).
    """

    retryable = True

    def __init__(
        self,
        message: str,
        worker: int | None = None,
        partition: int | None = None,
        retryable: bool | None = None,
    ) -> None:
        super().__init__(message, retryable)
        self.worker = worker
        self.partition = partition


class CommFailure(BackendError):
    """A message was dropped or arrived corrupted (checksum mismatch).

    Detected at the superstep barrier; always retryable — re-running the
    superstep resends the lost traffic.
    """

    retryable = True


class QueryTimeout(BackendError):
    """A statement exceeded its wall-clock timeout budget. Fatal for the
    distributed attempt; the degradation policy may still fall back."""

    retryable = False


class DegradedMode(BackendError):
    """Distributed execution is unavailable (circuit breaker open or a
    fatal backend error) and degraded single-node fallback is disabled."""

    retryable = False


def is_retryable(exc: BaseException) -> bool:
    """True when *exc* is a transient backend fault worth retrying."""
    return isinstance(exc, BackendError) and exc.retryable
