"""The concurrent serving layer (docs/API.md).

The paper's GEMS server is *shared*: many analysts submit scripts against
one catalog + backend.  This package provides the pieces that make that
safe and fast in-process:

* :func:`connect` / :class:`Connection` / :class:`Cursor` — the client
  API.  ``prepare()`` returns a :class:`PreparedStatement` that parses,
  type-checks and IR-encodes a script once and binds parameters per
  execution; cursors stream result rows in batches instead of
  materializing them eagerly.  Every in-process form runs the shared
  :class:`~repro.engine.server.Server`'s one statement pipeline.  :func:`connect` is transport-agnostic:
  a ``graql://host:port`` URL dials a :class:`~repro.net.GraqlServer`
  over TCP, a filesystem path opens a durable store, and a
  :class:`~repro.engine.session.Database` / engine ``Server`` wraps
  in-process — all returning the same :class:`Connection` ABC.
* :class:`RWLock` — the writer-preferring reader-writer catalog lock
  (selects run in parallel, DDL/ingest serialize), and
  :class:`AdmissionController` — a bound on in-flight submissions with
  per-user limits (:class:`~repro.errors.ServerBusy` on overload); the
  server owns one of each.  Every submission runs on the caller's
  thread.
* :class:`PlanCache` — statement cache keyed on (canonical script,
  parameter signature, catalog epoch); DDL/ingest bump the epoch, so
  stale plans can never execute.
"""

from repro.serve.admission import AdmissionController
from repro.serve.cache import PlanCache, canonical_script
from repro.serve.connection import (
    BasePreparedStatement,
    Connection,
    Cursor,
    CursorExec,
    DEFAULT_BATCH_ROWS,
    LocalConnection,
    PreparedStatement,
    connect,
)
from repro.serve.engine import statement_is_write
from repro.serve.locks import RWLock

__all__ = [
    "connect",
    "Connection",
    "LocalConnection",
    "Cursor",
    "CursorExec",
    "PreparedStatement",
    "BasePreparedStatement",
    "DEFAULT_BATCH_ROWS",
    "AdmissionController",
    "PlanCache",
    "RWLock",
    "canonical_script",
    "statement_is_write",
]
