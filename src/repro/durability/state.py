"""Logical state ↔ payload codecs for the durable storage engine.

Everything the WAL and checkpoints persist is *logical*, not a memory
dump: DDL is stored as GraQL source (rendered by
:func:`repro.graql.pretty.pretty_statement`, whose parse→print→parse
round-trip is property-tested), table rows as typed CSV text (the same
``DataType.format``/``parse`` pair CSV ingest/export uses), subgraphs as
per-type id lists.  Replaying a record therefore goes through the same
code paths as the original statement — recovery is re-execution of
effects, so a restored database is bit-for-bit the state the committed
statements produced.

Record kinds (the ``kind`` field of a WAL payload):

========================  ====================================================
``ddl``                   a ``create table|vertex|edge`` statement's source
``ingest``                rows appended to a base table (typed CSV text)
``result_table``          an ``into table`` result: schema + rows
``subgraph``              an ``into subgraph`` result: per-type id lists
``create_user``           a server account created
``drop_user``             a server account dropped
========================  ====================================================
"""

from __future__ import annotations

import csv
import io
from typing import Any, Optional

import numpy as np

from repro.dtypes.datatypes import parse_type_name
from repro.errors import WalError
from repro.graph.graphdb import GraphDB
from repro.graph.subgraph import Subgraph
from repro.graql.ast import (
    CreateEdge,
    CreateIndex,
    CreateTable,
    CreateVertex,
    DropIndex,
    VertexEndpoint,
)
from repro.graql.parser import parse_script
from repro.graql.pretty import pretty_statement
from repro.storage.schema import ColumnDef, Schema
from repro.storage.table import Table

SNAPSHOT_VERSION = 1

KIND_DDL = "ddl"
KIND_INGEST = "ingest"
KIND_RESULT_TABLE = "result_table"
KIND_SUBGRAPH = "subgraph"
KIND_CREATE_USER = "create_user"
KIND_DROP_USER = "drop_user"


# ----------------------------------------------------------------------
# Tables ↔ typed CSV text
# ----------------------------------------------------------------------

def table_csv(table: Table, start: int = 0) -> str:
    """Rows ``[start:]`` of *table* as CSV text with a header row.

    The header makes the payload self-describing and — because the
    ingest-side parser skips a first row equal to the column names —
    guards against a first *data* row that happens to spell them.
    """
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(table.schema.names())
    types = table.schema.types()
    for i in range(start, table.num_rows):
        w.writerow(
            dtype.format(col.value(i)) for dtype, col in zip(types, table.columns)
        )
    return buf.getvalue()


def parse_table_rows(schema: Schema, text: str) -> list[tuple[Any, ...]]:
    """Parse :func:`table_csv` output back into stored-form row tuples."""
    types = schema.types()
    width = len(schema)
    rows: list[tuple[Any, ...]] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    for lineno, fields in enumerate(reader):
        if lineno == 0:
            continue  # header
        if len(fields) != width:
            raise WalError(
                f"corrupt table payload: row {lineno} has {len(fields)} "
                f"fields, schema has {width}"
            )
        try:
            rows.append(tuple(t.parse(f) for t, f in zip(types, fields)))
        except ValueError as e:
            raise WalError(f"corrupt table payload: row {lineno}: {e}") from e
    return rows


def schema_pairs(schema: Schema) -> list[list[str]]:
    return [[c.name, c.dtype.ddl()] for c in schema]


def schema_from_pairs(pairs: list) -> Schema:
    try:
        return Schema(ColumnDef(name, parse_type_name(ddl)) for name, ddl in pairs)
    except ValueError as e:
        raise WalError(f"corrupt schema payload: {e}") from e


# ----------------------------------------------------------------------
# DDL ↔ GraQL source
# ----------------------------------------------------------------------

def table_ddl(table: Table) -> str:
    return pretty_statement(CreateTable(table.name, table.schema))


def vertex_ddl(vt) -> str:
    return pretty_statement(
        CreateVertex(vt.name, list(vt.key_cols), vt.table.name, vt.where)
    )


def edge_ddl(et) -> str:
    def endpoint(vt, ref: str) -> VertexEndpoint:
        return VertexEndpoint(vt.name, None if ref == vt.name else ref)

    return pretty_statement(
        CreateEdge(
            et.name,
            endpoint(et.source, et.source_ref),
            endpoint(et.target, et.target_ref),
            [t.name for t in et.from_tables],
            et.where,
        )
    )


def index_ddl(gi) -> str:
    return pretty_statement(CreateIndex(gi.name, gi.target_name, list(gi.attrs)))


def _parse_one(source: str):
    try:
        script = parse_script(source)
    except Exception as e:  # a checksummed record should never mis-parse
        raise WalError(f"corrupt DDL payload: {e}") from e
    if len(script.statements) != 1:
        raise WalError(
            f"corrupt DDL payload: expected 1 statement, got {len(script.statements)}"
        )
    return script.statements[0]


def apply_ddl(db: GraphDB, source: str) -> None:
    """Replay one logged DDL statement against *db* (no catalog work)."""
    stmt = _parse_one(source)
    if isinstance(stmt, CreateTable):
        db.create_table(stmt.name, stmt.schema)
    elif isinstance(stmt, CreateVertex):
        db.create_vertex(stmt.name, stmt.key_cols, stmt.table, stmt.where)
    elif isinstance(stmt, CreateEdge):
        db.create_edge(
            stmt.name,
            stmt.source.type_name,
            stmt.target.type_name,
            stmt.source.ref_name,
            stmt.target.ref_name,
            stmt.from_tables,
            stmt.where,
        )
    elif isinstance(stmt, CreateIndex):
        db.create_attr_index(stmt.name, stmt.target, stmt.attrs)
    elif isinstance(stmt, DropIndex):
        db.drop_attr_index(stmt.name)
    else:
        raise WalError(f"corrupt DDL payload: not a DDL statement: {source!r}")


# ----------------------------------------------------------------------
# Subgraphs ↔ id lists
# ----------------------------------------------------------------------

def subgraph_payload(sg: Subgraph) -> dict[str, Any]:
    return {
        "name": sg.name,
        "vertices": {t: [int(v) for v in ids] for t, ids in sg.vertices.items()},
        "edges": {t: [int(e) for e in ids] for t, ids in sg.edges.items()},
    }


def subgraph_from_payload(data: dict[str, Any]) -> Subgraph:
    return Subgraph(
        data["name"],
        {t: np.asarray(ids, dtype=np.int64) for t, ids in data["vertices"].items()},
        {t: np.asarray(ids, dtype=np.int64) for t, ids in data["edges"].items()},
    )


# ----------------------------------------------------------------------
# Snapshots (checkpoint payloads)
# ----------------------------------------------------------------------

def snapshot_payload(
    db: GraphDB, users: list[tuple[str, str]], seq: int, epoch: int
) -> dict[str, Any]:
    """The complete logical state as one JSON-able dict.

    DDL regenerates from the live objects in (tables, vertices, edges)
    order, which is always replayable: a vertex view only references a
    table, an edge view only vertex views and tables, and nothing
    references an edge view.
    """
    return {
        "version": SNAPSHOT_VERSION,
        "seq": seq,
        "epoch": epoch,
        "users": [[n, r] for n, r in users],
        "tables": [
            {
                "name": t.name,
                "schema": schema_pairs(t.schema),
                "csv": table_csv(t),
                "derived": name in db.derived_tables,
            }
            for name, t in db.tables.items()
        ],
        "vertices": [vertex_ddl(vt) for vt in db.vertex_types.values()],
        "edges": [edge_ddl(et) for et in db.edge_types.values()],
        "indexes": [index_ddl(gi) for gi in db.attr_indexes.values()],
        "subgraphs": [subgraph_payload(sg) for sg in db.subgraphs.values()],
    }


def restore_snapshot(payload: dict[str, Any]) -> tuple[GraphDB, list[tuple[str, str]]]:
    """Rebuild a :class:`GraphDB` (plus the user list) from a snapshot."""
    if payload.get("version") != SNAPSHOT_VERSION:
        raise WalError(
            f"unsupported snapshot version {payload.get('version')!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    db = GraphDB()
    users = [(n, r) for n, r in payload.get("users", [])]
    derived = []
    for spec in payload["tables"]:
        schema = schema_from_pairs(spec["schema"])
        rows = parse_table_rows(schema, spec["csv"])
        if spec["derived"]:
            derived.append((spec["name"], schema, rows))
        else:
            table = db.create_table(spec["name"], schema)
            if rows:
                table.append_rows(rows)
    for name, schema, rows in derived:
        db.register_result_table(name, Table.from_rows(name, schema, rows))
    for source in payload["vertices"]:
        apply_ddl(db, source)
    for source in payload["edges"]:
        apply_ddl(db, source)
    for source in payload.get("indexes", []):
        apply_ddl(db, source)
    for data in payload.get("subgraphs", []):
        db.register_subgraph(subgraph_from_payload(data))
    return db, users


# ----------------------------------------------------------------------
# WAL record replay
# ----------------------------------------------------------------------

def apply_record(
    db: GraphDB,
    users: list[tuple[str, str]],
    record: dict[str, Any],
    dirty: set[str],
) -> None:
    """Apply one WAL record to the recovering state.

    Ingest records only append rows and add the table to *dirty*; the
    dependent views catch up in one
    :meth:`~repro.graph.graphdb.GraphDB.refresh_dependents` call — the
    caller's, at the end of replay, or the one made here before a DDL
    record (view-building DDL must see fresh views).  The views keep
    watermarks, so that call consumes every batch appended since the
    last one in a single delta, and the canonical edge order makes the
    result the arrays the primary built batch by batch.
    """
    kind = record.get("kind")
    data = record.get("data", {})
    if kind == KIND_DDL:
        db.refresh_dependents(dirty)
        dirty.clear()
        apply_ddl(db, data["source"])
    elif kind == KIND_INGEST:
        table = db.table(data["table"])
        rows = parse_table_rows(table.schema, data["csv"])
        if rows:
            table.append_rows(rows)
            dirty.add(table.name)
    elif kind == KIND_RESULT_TABLE:
        schema = schema_from_pairs(data["schema"])
        rows = parse_table_rows(schema, data["csv"])
        db.register_result_table(
            data["name"], Table.from_rows(data["name"], schema, rows)
        )
    elif kind == KIND_SUBGRAPH:
        db.register_subgraph(subgraph_from_payload(data))
    elif kind == KIND_CREATE_USER:
        users.append((data["name"], data["role"]))
    elif kind == KIND_DROP_USER:
        users[:] = [(n, r) for n, r in users if n != data["name"]]
    else:
        raise WalError(f"unknown WAL record kind {kind!r}")


# ----------------------------------------------------------------------
# State fingerprints (verification + property tests)
# ----------------------------------------------------------------------

def state_fingerprint(
    db: GraphDB, users: Optional[list[tuple[str, str]]] = None
) -> dict[str, Any]:
    """A canonical, comparable rendering of the *complete* logical state.

    Covers raw table rows *and* the derived structures (view row
    selections and vids, endpoint vid arrays, the eid order of both CSR
    directions and of every attribute index), so two fingerprints only
    compare equal when storage and every delta-maintained structure
    agree array for array — the
    "recovered database equals a prefix of committed statements"
    invariant is asserted on this.
    """
    return {
        "users": sorted(users or []),
        "tables": {
            name: {
                "schema": schema_pairs(t.schema),
                "csv": table_csv(t),
                "derived": name in db.derived_tables,
            }
            for name, t in db.tables.items()
        },
        "vertices": {
            vt.name: {
                "ddl": vertex_ddl(vt),
                "rows": vt.rows.tolist(),
                "row_vids": vt.row_vids.tolist(),
            }
            for vt in db.vertex_types.values()
        },
        "edges": {
            et.name: {
                "ddl": edge_ddl(et),
                "src": et.src_vids.tolist(),
                "tgt": et.tgt_vids.tolist(),
                "assoc_rows": None if et.assoc_rows is None else et.assoc_rows.tolist(),
                "forward": db.indexes[et.name].forward.eids.tolist(),
                "reverse": db.indexes[et.name].reverse.eids.tolist(),
            }
            for et in db.edge_types.values()
        },
        "indexes": {
            gi.name: {"ddl": index_ddl(gi), "ids": gi.index.vids.tolist()}
            for gi in db.attr_indexes.values()
        },
        "subgraphs": {
            name: subgraph_payload(sg) for name, sg in db.subgraphs.items()
        },
    }
