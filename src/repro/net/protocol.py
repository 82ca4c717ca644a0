"""Message-level codecs: results, subgraphs, options, and errors.

The wire carries three shapes (framed by :mod:`repro.net.frame`):

* **Results** — a :class:`~repro.query.executor.StatementResult` list.
  Non-streamed tables travel inline (schema + stored-form rows, which
  are JSON-native: ints, floats, strings, booleans, date ordinals); the
  *last* table result of a script is streamed instead: the RESULT
  header carries only its schema and row count, then COLUMNS frames
  carry the rows as column buffers (:mod:`repro.storage.colcodec`),
  then DONE closes the stream.  Either way the client rebuilds the
  identical :class:`~repro.storage.table.Table`.
* **Options** — the non-default fields of a
  :class:`~repro.obs.QueryOptions`, reconstructed server-side.
* **Errors** — every server-side exception crosses as a *stable* error
  code + message + attribute dict + request span, and
  :func:`decode_error` re-raises it client-side as the originating
  :mod:`repro.errors` class — ``ServerBusy`` keeps its ``reason``,
  ``ParseError`` its ``line``/``column``, ``IRError`` its byte offset —
  never a bare ``RuntimeError`` (docs/NETWORK.md).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Mapping, Optional

from repro.dtypes import parse_type_name
from repro.errors import (
    AccessError,
    BackendError,
    CatalogError,
    ClosedError,
    CommFailure,
    DegradedMode,
    ExecutionError,
    GraQLError,
    IngestError,
    IRError,
    LexError,
    NotPrimary,
    ParseError,
    PlanError,
    PromotionError,
    ProtocolError,
    QueryTimeout,
    ReplicaStale,
    ServerBusy,
    TypeCheckError,
    WalError,
    WorkerFailed,
)
from repro.graph.subgraph import Subgraph
from repro.obs.options import QueryOptions
from repro.query.executor import StatementKind, StatementResult
from repro.storage.schema import ColumnDef, Schema
from repro.storage.table import Table

# ----------------------------------------------------------------------
# Error taxonomy (stable wire codes)
# ----------------------------------------------------------------------

#: wire code -> exception class.  Codes are part of the protocol:
#: renaming one is a breaking change (docs/NETWORK.md lists them).
ERROR_CLASSES: dict[str, type] = {
    "graql": GraQLError,
    "lex": LexError,
    "parse": ParseError,
    "typecheck": TypeCheckError,
    "catalog": CatalogError,
    "ingest": IngestError,
    "execution": ExecutionError,
    "closed": ClosedError,
    "plan": PlanError,
    "ir": IRError,
    "access": AccessError,
    "wal": WalError,
    "busy": ServerBusy,
    "backend": BackendError,
    "worker_failed": WorkerFailed,
    "comm": CommFailure,
    "timeout": QueryTimeout,
    "degraded": DegradedMode,
    "protocol": ProtocolError,
    "not_primary": NotPrimary,
    "replica_stale": ReplicaStale,
    "promotion": PromotionError,
}

_CODE_OF = {cls: code for code, cls in ERROR_CLASSES.items()}

#: exception attributes preserved across the wire, when present
_ERROR_ATTRS = (
    "line", "column", "reason", "retryable", "worker", "partition",
    "offset", "instruction", "code", "primary", "seq", "repl_epoch",
)


def error_code(exc: BaseException) -> str:
    """The most specific stable wire code for *exc*."""
    for cls in type(exc).__mro__:
        code = _CODE_OF.get(cls)
        if code is not None:
            return code
    return "graql"


def encode_error(
    exc: BaseException, span: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """Render *exc* as a wire payload.

    Anything outside the :class:`~repro.errors.GraQLError` hierarchy
    (a server bug) is reported as code ``"execution"`` so clients still
    get a typed exception, never the server's internal traceback class.
    """
    if isinstance(exc, GraQLError):
        code = error_code(exc)
        message = str(exc)
    else:
        code = "execution"
        message = f"internal server error: {type(exc).__name__}: {exc}"
    attrs: dict[str, Any] = {}
    for name in _ERROR_ATTRS:
        value = getattr(exc, name, None)
        if value is not None and isinstance(value, (str, int, float, bool)):
            attrs[name] = value
    payload: dict[str, Any] = {"code": code, "message": message, "attrs": attrs}
    if span is not None:
        payload["span"] = span
    return payload


def decode_error(payload: Mapping[str, Any]) -> GraQLError:
    """Rebuild the originating exception from a wire payload.

    The instance is constructed without re-running the class's
    ``__init__`` (which would re-append position suffixes already baked
    into the message); the preserved attributes are restored verbatim
    and the server-side request span is attached as ``remote_span``.
    """
    cls = ERROR_CLASSES.get(str(payload.get("code", "")), GraQLError)
    exc = cls.__new__(cls)
    Exception.__init__(exc, str(payload.get("message", "")))
    attrs = payload.get("attrs") or {}
    for name in _ERROR_ATTRS:
        if name in attrs:
            setattr(exc, name, attrs[name])
    #: the server-side span context ({"conn": ..., "req": ...}) of the
    #: request that failed; None when the error predates a request
    exc.remote_span = payload.get("span")
    return exc


# ----------------------------------------------------------------------
# QueryOptions
# ----------------------------------------------------------------------

def encode_options(options: Optional[QueryOptions]) -> Optional[dict[str, Any]]:
    """The non-default fields of *options* (None when all defaults)."""
    if options is None:
        return None
    out = {
        f.name: getattr(options, f.name)
        for f in dataclass_fields(options)
        if getattr(options, f.name) != f.default
    }
    if "hints" in out:
        out["hints"] = out["hints"].to_payload()
    return out or None


def decode_options(payload: Optional[Mapping[str, Any]]) -> Optional[QueryOptions]:
    if not payload:
        return None
    allowed = {f.name for f in dataclass_fields(QueryOptions)}
    unknown = set(payload) - allowed
    if unknown:
        raise ProtocolError(
            f"unknown query option(s) on the wire: {', '.join(sorted(unknown))}"
        )
    try:
        fields = dict(payload)
        if fields.get("hints") is not None:
            from repro.obs.options import Hints

            fields["hints"] = Hints(**dict(fields["hints"]))
        return QueryOptions(**fields)
    except (TypeError, ValueError) as e:
        raise ProtocolError(f"invalid query options on the wire: {e}") from None


# ----------------------------------------------------------------------
# Tables / subgraphs / results
# ----------------------------------------------------------------------

def table_meta(table: Table) -> dict[str, Any]:
    """Schema-level description of *table* (no rows)."""
    return {
        "name": table.name,
        "columns": [[c.name, c.dtype.ddl()] for c in table.schema],
        "num_rows": table.num_rows,
    }


def schema_from_meta(meta: Mapping[str, Any]) -> Schema:
    return Schema(
        ColumnDef(str(name), parse_type_name(str(ddl)))
        for name, ddl in meta["columns"]
    )


def table_from_meta(meta: Mapping[str, Any], rows: list) -> Table:
    """Rebuild a :class:`Table` from its meta + stored-form rows."""
    return Table.from_rows(str(meta["name"]), schema_from_meta(meta), rows)


def encode_table(table: Table) -> dict[str, Any]:
    """Meta + all rows inline (used for non-streamed table results)."""
    out = table_meta(table)
    out["rows"] = [list(r) for r in table.iter_rows()]
    return out


def decode_table(payload: Mapping[str, Any]) -> Table:
    return table_from_meta(payload, [tuple(r) for r in payload["rows"]])


def encode_subgraph(sg: Subgraph) -> dict[str, Any]:
    return {
        "name": sg.name,
        "vertices": {t: ids.tolist() for t, ids in sg.vertices.items()},
        "edges": {t: ids.tolist() for t, ids in sg.edges.items()},
    }


def decode_subgraph(payload: Mapping[str, Any]) -> Subgraph:
    import numpy as np

    return Subgraph(
        str(payload["name"]),
        {t: np.asarray(ids, dtype=np.int64)
         for t, ids in (payload.get("vertices") or {}).items()},
        {t: np.asarray(ids, dtype=np.int64)
         for t, ids in (payload.get("edges") or {}).items()},
    )


def encode_result(r: StatementResult, *, stream_table: bool = False) -> dict[str, Any]:
    """One statement result as a wire dict.

    With ``stream_table`` the table travels as meta only — the caller
    streams its rows in COLUMNS frames.  Profiles and plans are
    server-side observability and do not cross the wire (the server's
    metrics registry and spans hold them; docs/NETWORK.md).
    """
    out: dict[str, Any] = {
        "kind": r.kind.value,
        "message": r.message,
        "count": r.count,
    }
    if r.degraded:
        out["degraded"] = True
        out["degraded_reason"] = r.degraded_reason
    if r.recovery is not None:
        out["recovery"] = r.recovery
    if r.table is not None:
        out["table"] = table_meta(r.table) if stream_table else encode_table(r.table)
        out["table"]["streamed"] = stream_table
    if r.subgraph is not None:
        out["subgraph"] = encode_subgraph(r.subgraph)
    return out


def decode_result(payload: Mapping[str, Any]) -> StatementResult:
    """Rebuild a result; a streamed table decodes as ``table=None``
    until the owning stream patches the materialized table in."""
    table = None
    t = payload.get("table")
    if t is not None and not t.get("streamed"):
        table = decode_table(t)
    sg = payload.get("subgraph")
    return StatementResult(
        StatementKind(payload["kind"]),
        table=table,
        subgraph=decode_subgraph(sg) if sg is not None else None,
        message=str(payload.get("message", "")),
        count=int(payload.get("count", 0)),
        degraded=bool(payload.get("degraded", False)),
        degraded_reason=str(payload.get("degraded_reason", "")),
        recovery=payload.get("recovery"),
    )


def encode_results(results: list[StatementResult]) -> dict[str, Any]:
    """The RESULT header for a list of statement results.

    The last table result is marked for streaming; ``stream`` names its
    index and row count (null when the script produced no table).
    """
    stream_idx = None
    for i in range(len(results) - 1, -1, -1):
        r = results[i]
        if r.kind == StatementKind.TABLE and r.table is not None:
            stream_idx = i
            break
    encoded = [
        encode_result(r, stream_table=(i == stream_idx))
        for i, r in enumerate(results)
    ]
    header: dict[str, Any] = {"results": encoded, "stream": None}
    if stream_idx is not None:
        header["stream"] = {
            "index": stream_idx,
            "num_rows": results[stream_idx].table.num_rows,
        }
    return header
