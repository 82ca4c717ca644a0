"""The assembled attributed-graph database.

:class:`GraphDB` owns the tabular store plus every declared vertex/edge
view and their bidirectional edge indexes, and maintains the paper's
structural invariants:

* G = (V, E) with V = ∪ V_p and E = ∪ E_r, the types partitioning each
  (Section II-A1) — guaranteed by construction since ids are per-type;
* G is a directed multigraph (parallel edges allowed via ``from table``
  edge declarations);
* ``ingest`` is atomic and leaves every view current (Section II-A2):
  the append either fully succeeds or changes nothing, and *every*
  dependent vertex/edge view, CSR index and attribute index is brought up
  to date before the call returns — **delta-maintained**, not rebuilt.
  The views are select-project-join queries over append-only tables,
  hence monotone: the view over ``T ∪ ΔT`` is the old view plus a term
  driven by ``ΔT`` alone.  Each view keeps watermarks of the rows it has
  consumed; :meth:`GraphDB.refresh_dependents` — the one refresh path of
  live ingest, WAL recovery and replica apply — computes every delta
  from the rows past them, then publishes all of them by attribute
  assignment, or none.  Edges are kept in a canonical order (``(assoc
  row, src vid, tgt vid)``, or ``(src vid, tgt vid)`` for join-only
  edges), so the arrays are a function of the final tables, not of the
  batching; the eid/row order of an unordered select is not API.

This class is the single-node backend; the simulated cluster
(:mod:`repro.dist`) partitions one of these across workers.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np

from repro.errors import CatalogError
from repro.graph.attr_index import KIND_EDGE, KIND_VERTEX, GraphAttrIndex
from repro.graph.delta import RefreshReport
from repro.graph.edge import EdgeType
from repro.graph.edge_index import BidirectionalIndex
from repro.graph.subgraph import Subgraph
from repro.graph.vertex import VertexType
from repro.storage.csvio import read_csv_into, read_csv_text_into
from repro.storage.expr import Expr
from repro.storage.schema import Schema
from repro.storage.table import Table


class GraphDB:
    """Tables + vertex/edge views + indexes + named query results."""

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}
        self.vertex_types: dict[str, VertexType] = {}
        self.edge_types: dict[str, EdgeType] = {}
        self.indexes: dict[str, BidirectionalIndex] = {}
        #: named secondary attribute indexes (``create index`` DDL)
        self.attr_indexes: dict[str, GraphAttrIndex] = {}
        self.subgraphs: dict[str, Subgraph] = {}
        #: names of tables created by 'into table' (overwritable results)
        self.derived_tables: set[str] = set()
        #: durability journal (duck-typed, e.g.
        #: :class:`repro.durability.DurableStore`): when set, every
        #: mutation is logged *after* it applies, through its ``on_*``
        #: hooks.  None keeps the database purely in-memory with zero
        #: overhead.  This is the single choke point all transports
        #: (IR submission, local connections, prepared statements,
        #: pipelined scripts, direct ingest APIs) funnel through.
        self.journal = None

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, name: str, schema: Schema) -> Table:
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        if name in self.vertex_types or name in self.edge_types:
            raise CatalogError(f"name {name!r} already used by a graph type")
        table = Table(name, schema)
        self.tables[name] = table
        if self.journal is not None:
            self.journal.on_create_table(table)
        return table

    def create_vertex(
        self,
        name: str,
        key_cols: list[str],
        table_name: str,
        where: Optional[Expr] = None,
    ) -> VertexType:
        if name in self.vertex_types:
            raise CatalogError(f"vertex type {name!r} already exists")
        if name in self.tables or name in self.edge_types:
            raise CatalogError(f"name {name!r} already in use")
        table = self.table(table_name)
        vt = VertexType(name, key_cols, table, where)
        self.vertex_types[name] = vt
        if self.journal is not None:
            self.journal.on_create_vertex(vt)
        return vt

    def create_edge(
        self,
        name: str,
        source_type: str,
        target_type: str,
        source_ref: Optional[str] = None,
        target_ref: Optional[str] = None,
        from_tables: Optional[list[str]] = None,
        where: Optional[Expr] = None,
    ) -> EdgeType:
        if name in self.edge_types:
            raise CatalogError(f"edge type {name!r} already exists")
        if name in self.tables or name in self.vertex_types:
            raise CatalogError(f"name {name!r} already in use")
        src = self.vertex_type(source_type)
        tgt = self.vertex_type(target_type)
        tables = [self.table(t) for t in (from_tables or [])]
        et = EdgeType(
            name,
            src,
            tgt,
            source_ref or source_type,
            target_ref or target_type,
            tables,
            where,
            table_lookup=self.tables.get,
        )
        self.edge_types[name] = et
        self.indexes[name] = BidirectionalIndex(et)
        if self.journal is not None:
            self.journal.on_create_edge(et)
        return et

    def create_attr_index(self, name: str, target: str, attrs: list[str]) -> GraphAttrIndex:
        """Build a named secondary index over a vertex/edge type's attributes."""
        if name in self.attr_indexes:
            raise CatalogError(f"index {name!r} already exists")
        if name in self.tables or name in self.vertex_types or name in self.edge_types:
            raise CatalogError(f"name {name!r} already in use")
        if target in self.vertex_types:
            obj = self.vertex_types[target]
        elif target in self.edge_types:
            obj = self.edge_types[target]
        else:
            raise CatalogError(
                f"unknown vertex or edge type {target!r} to index"
            )
        for a in attrs:
            obj.attribute_type(a)  # raises with the view's own hint
        gi = GraphAttrIndex(name, obj, attrs)
        self.attr_indexes[name] = gi
        if self.journal is not None:
            self.journal.on_create_index(gi)
        return gi

    def drop_attr_index(self, name: str) -> None:
        if name not in self.attr_indexes:
            raise CatalogError(f"unknown index {name!r}")
        del self.attr_indexes[name]
        if self.journal is not None:
            self.journal.on_drop_index(name)

    def attr_index(self, name: str) -> GraphAttrIndex:
        try:
            return self.attr_indexes[name]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def vertex_type(self, name: str) -> VertexType:
        try:
            return self.vertex_types[name]
        except KeyError:
            raise CatalogError(f"unknown vertex type {name!r}") from None

    def edge_type(self, name: str) -> EdgeType:
        try:
            return self.edge_types[name]
        except KeyError:
            raise CatalogError(f"unknown edge type {name!r}") from None

    def index(self, edge_name: str) -> BidirectionalIndex:
        return self.indexes[edge_name]

    def subgraph(self, name: str) -> Subgraph:
        try:
            return self.subgraphs[name]
        except KeyError:
            raise CatalogError(f"unknown subgraph {name!r}") from None

    def edge_types_between(
        self, source_type: Optional[str], target_type: Optional[str]
    ) -> list[EdgeType]:
        """All edge types E_i(V_a, V_b) compatible with the given endpoint
        types — the union of Section II-B4's variant-step matching.  A None
        endpoint matches any type."""
        out = []
        for et in self.edge_types.values():
            if source_type is not None and et.source.name != source_type:
                continue
            if target_type is not None and et.target.name != target_type:
                continue
            out.append(et)
        return out

    # ------------------------------------------------------------------
    # Ingest (atomic, with delta maintenance of the dependent views)
    # ------------------------------------------------------------------
    # Each returns the number of rows appended and what the refresh they
    # caused touched: the caller's catalog re-derives the metadata of
    # exactly that, the metrics and ``graql profile`` report it.
    def ingest(self, table_name: str, path: str) -> tuple[int, RefreshReport]:
        return self._ingest(table_name, lambda table: read_csv_into(table, path))

    def ingest_text(self, table_name: str, text: str) -> tuple[int, RefreshReport]:
        """Ingest from CSV text (workload generators and tests)."""
        return self._ingest(table_name, lambda table: read_csv_text_into(table, text))

    def ingest_rows(self, table_name: str, rows) -> tuple[int, RefreshReport]:
        """Ingest stored-form rows directly (fast path for generators)."""

        def append(table: Table) -> int:
            table.append_rows(rows)
            return len(rows)

        return self._ingest(table_name, append)

    def _ingest(
        self, table_name: str, append: Callable[[Table], int]
    ) -> tuple[int, RefreshReport]:
        """Append, refresh the dependents, journal — all or nothing.

        *append* either appends every row or raises having changed
        nothing.  If a dependent then fails to refresh, the table is cut
        back to where it started; the views were never touched, because
        a refresh publishes only after everything was computed.  Zero
        rows refresh nothing and journal nothing.
        """
        table = self.table(table_name)
        start = table.num_rows
        count = append(table)
        try:
            report = self.refresh_dependents([table_name] if count else [])
        except BaseException:
            table.truncate(start)
            raise
        if self.journal is not None and count:
            # the *rows* are journaled, not the file path: replay must
            # not depend on the CSV still existing (or being unchanged)
            self.journal.on_ingest(table, start)
        return count, report

    def refresh_dependents(self, dirty_tables: Iterable[str]) -> RefreshReport:
        """Bring every view and index up to date with the tables that
        grew, from the appended rows only.

        The one refresh path: a live ingest, WAL recovery (many ingests,
        one call) and a replica's apply all come through here.  Every
        view keeps watermarks of what it has consumed, so the views are
        simply asked in dependency order — vertex types, then edge types
        (reading the pending vertex state) with their CSR indexes, then
        attribute indexes — and the ones with nothing new answer None.
        All deltas are computed before any is published: an exception
        leaves every view as it was.
        """
        t0 = time.perf_counter()
        report = RefreshReport(tables=set(dirty_tables))
        if not report:
            return report
        publish: list[Callable[[], None]] = []
        deltas: dict[str, object] = {}
        for vt in self.vertex_types.values():
            vd = vt.delta()
            if vd is not None:
                deltas[vt.name] = vd
                publish.append(partial(vt.publish, vd))
                report.views.append((vt.name, KIND_VERTEX, vd.rows_consumed))
        for et in self.edge_types.values():
            ed = et.delta(deltas)
            if ed is not None:
                deltas[et.name] = ed
                index = self.indexes[et.name]
                publish.append(partial(et.publish, ed))
                publish.append(partial(index.publish, index.merged(ed)))
                report.views.append((et.name, KIND_EDGE, ed.rows_consumed))
        for gi in self.attr_indexes.values():
            delta = deltas.get(gi.target_name)
            if delta is not None:
                self._check_still_indexable(gi, delta)
                publish.append(partial(setattr, gi, "index", gi.merged(delta)))
                report.indexes.add(gi.name)
        for assign in publish:
            assign()
        report.seconds = time.perf_counter() - t0
        return report

    def _check_still_indexable(self, gi: GraphAttrIndex, delta) -> None:
        """A one-to-one vertex view that a duplicate key turns
        many-to-one stops exposing its non-key attributes; an index over
        one of them would have nothing to index."""
        if gi.kind != KIND_VERTEX or delta.one_to_one:
            return
        vt = gi.target
        if all(a in vt.key_cols for a in gi.attrs):
            return
        appended = delta.rows[len(vt.rows):]
        row = int(appended[~np.isin(appended, delta.ids.source_rows)][0])
        key = tuple(vt.table.column(k).value(row) for k in vt.key_cols)
        cols = ", ".join(gi.attrs)
        raise CatalogError(
            f"ingest into {vt.table.name!r} rejected: duplicate key {key!r} "
            f"would make vertex type {vt.name!r} many-to-one, but index "
            f"{gi.name!r} on {vt.name}({cols}) needs its one-to-one "
            f"attributes — drop the index first"
        )

    # ------------------------------------------------------------------
    # Query results
    # ------------------------------------------------------------------
    def register_result_table(self, name: str, table: Table) -> None:
        """Bind an ``into table`` result; results may be overwritten but
        never shadow a declared base table."""
        if name in self.tables and name not in self.derived_tables:
            raise CatalogError(
                f"cannot overwrite base table {name!r} with a query result"
            )
        self.tables[name] = Table(name, table.schema, table.columns)
        self.derived_tables.add(name)
        if self.journal is not None:
            self.journal.on_result_table(self.tables[name])

    def register_subgraph(self, subgraph: Subgraph) -> None:
        self.subgraphs[subgraph.name] = subgraph
        if self.journal is not None:
            self.journal.on_subgraph(subgraph)

    # ------------------------------------------------------------------
    # Whole-graph statistics
    # ------------------------------------------------------------------
    def total_vertices(self) -> int:
        return sum(vt.num_vertices for vt in self.vertex_types.values())

    def total_edges(self) -> int:
        return sum(et.num_edges for et in self.edge_types.values())

    def check_partition_invariants(self) -> bool:
        """Verify Section II-A1: every edge endpoint is a valid vid of its
        declared endpoint type (types partition V/E by construction)."""
        for et in self.edge_types.values():
            if len(et.src_vids) == 0:
                continue
            if et.src_vids.min() < 0 or et.src_vids.max() >= et.source.num_vertices:
                return False
            if et.tgt_vids.min() < 0 or et.tgt_vids.max() >= et.target.num_vertices:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"GraphDB(tables={len(self.tables)}, "
            f"vertex_types={len(self.vertex_types)}, "
            f"edge_types={len(self.edge_types)}, "
            f"V={self.total_vertices()}, E={self.total_edges()})"
        )
