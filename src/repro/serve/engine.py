"""Statement classification for the serving layer.

The shared server (:class:`~repro.engine.server.Server`) decides from a
parsed script whether it may run under the shared side of the catalog
lock and be answered from the plan cache (pure reads), or must hold the
lock exclusively (anything with effects).  The network client applies
the same rule to decide which requests are safe to retry.
"""

from __future__ import annotations

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
