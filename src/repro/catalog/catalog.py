"""The metadata catalog: schemas, sizes, statistics — no row data.

A :class:`Catalog` is a *snapshot* of a :class:`~repro.graph.graphdb.GraphDB`'s
metadata, matching the paper's front-end/backend split: the front-end
server type-checks queries against the catalog alone (Section III-A), while
the data stays on the backend.  ``Catalog.refresh`` recomputes sizes and
statistics after DDL or ingest, mirroring the paper's "updated information
on the sizes of those objects (e.g. how many rows in table? how many
vertex instances of certain type?)".
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.catalog.stats import (
    STATS_STALENESS_FRAC,
    ColumnStats,
    DegreeStats,
    build_column_stats,
    distinct_count,
)
from repro.errors import CatalogError
from repro.storage.column import Column
from repro.storage.schema import Schema

if TYPE_CHECKING:
    from repro.graph.delta import RefreshReport


class TableMeta:
    """Metadata for one table."""

    def __init__(self, name: str, schema: Schema, num_rows: int, derived: bool) -> None:
        self.name = name
        self.schema = schema
        self.num_rows = num_rows
        self.derived = derived

    def __repr__(self) -> str:
        return f"TableMeta({self.name!r}, rows={self.num_rows})"


class VertexMeta:
    """Metadata for one vertex type (a view per Eq. 1)."""

    def __init__(
        self,
        name: str,
        key_cols: list[str],
        table: str,
        attr_schema: Schema,
        one_to_one: bool,
        num_vertices: int,
        distinct_counts: dict[str, int],
    ) -> None:
        self.name = name
        self.key_cols = key_cols
        self.table = table
        self.attr_schema = attr_schema
        self.one_to_one = one_to_one
        self.num_vertices = num_vertices
        #: per-attribute distinct-value counts for selectivity estimation
        self.distinct_counts = distinct_counts
        #: lazily-built per-attribute :class:`ColumnStats`; populated on
        #: first planner request and carried across refreshes while fresh
        self._stats_cache: dict[str, ColumnStats] = {}
        #: callable ``name -> (vid-aligned array, dtype)`` bound to the
        #: live vertex view at refresh time; None for scratch metas
        self._stats_provider = None

    def column_stats(self, attr: str) -> Optional[ColumnStats]:
        """Histogram statistics for one attribute, built on first use.

        Cached stats are reused until the vertex count has drifted past
        :data:`~repro.catalog.stats.STATS_STALENESS_FRAC` of the rows
        they were built over; then they are recollected from the live
        view.  Returns None when no live view is attached (scratch
        catalogs during static analysis).
        """
        cached = self._stats_cache.get(attr)
        if cached is not None:
            drift = abs(self.num_vertices - cached.built_rows)
            if drift <= STATS_STALENESS_FRAC * max(cached.built_rows, 1):
                return cached
        if self._stats_provider is None:
            return cached
        if not self.attr_schema.has(attr):
            return None
        arr, dtype = self._stats_provider(attr)
        stats = build_column_stats(arr, Column(dtype, arr).null_mask())
        self._stats_cache[attr] = stats
        return stats

    def all_column_stats(self) -> dict[str, ColumnStats]:
        """Stats for every attribute that already has them (no building)."""
        return dict(self._stats_cache)

    def stats_freshness(self) -> Optional[float]:
        """Largest row-count drift fraction across collected stats, or
        None when no stats have been collected yet (0.0 == fully fresh)."""
        if not self._stats_cache:
            return None
        return max(
            abs(self.num_vertices - cs.built_rows) / max(cs.built_rows, 1)
            for cs in self._stats_cache.values()
        )

    def __repr__(self) -> str:
        return f"VertexMeta({self.name!r}, n={self.num_vertices})"


class EdgeMeta:
    """Metadata for one edge type (a view per Eq. 2)."""

    def __init__(
        self,
        name: str,
        source_type: str,
        target_type: str,
        attr_schema: Schema,
        num_edges: int,
        degree_stats: DegreeStats,
    ) -> None:
        self.name = name
        self.source_type = source_type
        self.target_type = target_type
        self.attr_schema = attr_schema
        self.num_edges = num_edges
        self.degree_stats = degree_stats

    def __repr__(self) -> str:
        return f"EdgeMeta({self.name!r}, {self.source_type}->{self.target_type}, m={self.num_edges})"


class IndexMeta:
    """Metadata for one secondary attribute index (``create index``)."""

    def __init__(
        self,
        name: str,
        target: str,
        target_kind: str,
        attrs: tuple[str, ...],
        num_entries: int,
    ) -> None:
        self.name = name
        #: indexed vertex or edge type name
        self.target = target
        #: ``"vertex"`` or ``"edge"``
        self.target_kind = target_kind
        self.attrs = tuple(attrs)
        self.num_entries = num_entries

    def __repr__(self) -> str:
        cols = ", ".join(self.attrs)
        return f"IndexMeta({self.name!r} on {self.target}({cols}))"


class Catalog:
    """Snapshot of all database-object metadata."""

    #: attributes with at most this many rows get exact distinct counts;
    #: larger columns are sampled (keeps refresh cheap on big ingests)
    DISTINCT_SAMPLE = 100_000

    def __init__(self) -> None:
        self.tables: dict[str, TableMeta] = {}
        self.vertices: dict[str, VertexMeta] = {}
        self.edges: dict[str, EdgeMeta] = {}
        self.indexes: dict[str, IndexMeta] = {}
        self.subgraphs: dict[str, dict[str, int]] = {}
        #: monotonically increasing version, bumped on every metadata
        #: change (refresh or targeted registration).  The serving
        #: layer's plan cache keys on it: any entry compiled against an
        #: older epoch is stale and recompiles (docs/API.md).
        self.epoch: int = 0

    # ------------------------------------------------------------------
    # Refresh from a GraphDB
    # ------------------------------------------------------------------
    @classmethod
    def from_db(cls, db) -> "Catalog":
        cat = cls()
        cat.refresh(db)
        return cat

    def refresh(self, db, only=None) -> None:
        """Recompute the metadata — all of it, or with *only* (the
        :class:`~repro.graph.delta.RefreshReport` of an ingest) just the
        tables, views and indexes that refresh touched, carrying every
        other meta object forward by reference.  A report that touched
        nothing (a zero-row ingest) changes nothing: no epoch bump, no
        plan-cache invalidation.

        Builds into fresh dicts and swaps them in with single assignments,
        so concurrent readers (parallel scheduled statements) never observe
        a half-rebuilt catalog.
        """
        if only is not None and not only:
            return

        def derive(prev: dict, live: dict, touched, build) -> dict:
            return {
                name: build(name, obj)
                if only is None or name in touched or name not in prev
                else prev[name]
                for name, obj in live.items()
            }

        def vertex_meta(name: str, vt) -> VertexMeta:
            schema = vt.attribute_schema()
            distincts: dict[str, int] = {}
            for cdef in schema:
                arr, _ = vt.attribute_array(cdef.name)
                if len(arr) > self.DISTINCT_SAMPLE:
                    sample = arr[
                        np.linspace(0, len(arr) - 1, self.DISTINCT_SAMPLE).astype(np.int64)
                    ]
                    distincts[cdef.name] = max(
                        1, int(distinct_count(sample) * len(arr) / len(sample))
                    )
                else:
                    distincts[cdef.name] = distinct_count(arr)
            vm = VertexMeta(
                name,
                vt.key_cols,
                vt.table.name,
                schema,
                vt.one_to_one,
                vt.num_vertices,
                distincts,
            )
            vm._stats_provider = vt.attribute_array
            prev = self.vertices.get(name)
            if prev is not None:
                # carry collected stats forward; column_stats() drops any
                # entry whose row drift exceeds the staleness threshold
                vm._stats_cache = dict(prev._stats_cache)
            return vm

        def edge_meta(name: str, et) -> EdgeMeta:
            idx = db.indexes[name]
            return EdgeMeta(
                name,
                et.source.name,
                et.target.name,
                et.attribute_schema(),
                et.num_edges,
                DegreeStats.of_indexes(idx.forward, idx.reverse),
            )

        tables = derive(
            self.tables, db.tables, only.tables if only else (),
            lambda name, t: TableMeta(name, t.schema, t.num_rows, name in db.derived_tables),
        )
        vertices = derive(
            self.vertices, db.vertex_types, only.names("vertex") if only else (), vertex_meta
        )
        edges = derive(self.edges, db.edge_types, only.names("edge") if only else (), edge_meta)
        indexes = derive(
            self.indexes, getattr(db, "attr_indexes", {}), only.indexes if only else (),
            lambda name, gi: IndexMeta(
                name, gi.target_name, gi.kind, tuple(gi.attrs), gi.num_entries
            ),
        )
        subgraphs = self.subgraphs if only else {
            name: {k: len(v) for k, v in sg.vertices.items()}
            for name, sg in db.subgraphs.items()
        }
        # atomic swap: each assignment publishes a complete dict
        self.tables = tables
        self.vertices = vertices
        self.edges = edges
        self.indexes = indexes
        self.subgraphs = subgraphs
        self.epoch += 1

    def absorb(self, db, report: Optional[RefreshReport]) -> None:
        """Finish a view refresh: re-derive what *report* touched (all
        of it when None — a change other than an ingest) and add the time
        taken to ``report.seconds``, so that the refresh metric and the
        profile's ``refresh:`` line cover the catalog step too.  The one
        follow-up of ``GraphDB.refresh_dependents`` for live ingest,
        the ``ingest`` statement and replica apply."""
        t0 = time.perf_counter()
        self.refresh(db, report)
        if report is not None:
            report.seconds += time.perf_counter() - t0

    def scratch_copy(self) -> "Catalog":
        """A cheap copy for static analysis of a script.

        Script checking only *inserts* scratch entries for the script's
        own DDL — existing meta objects are never mutated — so fresh
        top-level dicts sharing the meta objects are enough.  This
        avoids deep-copying per-edge degree statistics on every check,
        which dominates type-checking time on catalogs of any size.

        Safe to call while the serving layer executes statements
        concurrently: every catalog mutation swaps in a freshly-built
        dict (never mutates one in place), so each ``dict(...)`` below
        copies a stable snapshot — iteration can never race an insert.
        """
        cat = Catalog()
        cat.tables = dict(self.tables)
        cat.vertices = dict(self.vertices)
        cat.edges = dict(self.edges)
        cat.indexes = dict(self.indexes)
        cat.subgraphs = {name: dict(v) for name, v in self.subgraphs.items()}
        cat.epoch = self.epoch
        return cat

    def register_result_table(self, name: str, table) -> None:
        """Targeted metadata update for an 'into table' result.

        Copy-on-write: builds a new dict and swaps it in, so concurrent
        readers (parallel statements, ``scratch_copy`` under the serving
        layer's read lock) never observe a dict mid-insert."""
        tables = dict(self.tables)
        tables[name] = TableMeta(name, table.schema, table.num_rows, True)
        self.tables = tables
        self.epoch += 1

    def register_subgraph(self, name: str, counts: dict[str, int]) -> None:
        """Targeted metadata update for an 'into subgraph' result
        (copy-on-write, same publication contract as
        :meth:`register_result_table`)."""
        subgraphs = dict(self.subgraphs)
        subgraphs[name] = counts
        self.subgraphs = subgraphs
        self.epoch += 1

    # ------------------------------------------------------------------
    # Lookups (raise CatalogError with III-A-style messages)
    # ------------------------------------------------------------------
    def table(self, name: str) -> TableMeta:
        if name not in self.tables:
            hint = ""
            if name in self.vertices:
                hint = " (it is a vertex type; a table name is required here)"
            elif name in self.edges:
                hint = " (it is an edge type; a table name is required here)"
            raise CatalogError(f"unknown table {name!r}{hint}")
        return self.tables[name]

    def vertex(self, name: str) -> VertexMeta:
        if name not in self.vertices:
            hint = ""
            if name in self.tables:
                hint = " (it is a table; a vertex type is required here)"
            elif name in self.edges:
                hint = " (it is an edge type; a vertex type is required here)"
            raise CatalogError(f"unknown vertex type {name!r}{hint}")
        return self.vertices[name]

    def edge(self, name: str) -> EdgeMeta:
        if name not in self.edges:
            hint = ""
            if name in self.tables:
                hint = " (it is a table; an edge type is required here)"
            elif name in self.vertices:
                hint = " (it is a vertex type; an edge type is required here)"
            raise CatalogError(f"unknown edge type {name!r}{hint}")
        return self.edges[name]

    def index(self, name: str) -> IndexMeta:
        if name not in self.indexes:
            existing = ", ".join(sorted(self.indexes)) or "none"
            raise CatalogError(
                f"unknown index {name!r} (existing indexes: {existing})"
            )
        return self.indexes[name]

    def indexes_on(self, target: str) -> list[IndexMeta]:
        """All secondary indexes over one vertex/edge type."""
        return [im for im in self.indexes.values() if im.target == target]

    def is_index(self, name: str) -> bool:
        return name in self.indexes

    def is_vertex(self, name: str) -> bool:
        return name in self.vertices

    def is_edge(self, name: str) -> bool:
        return name in self.edges

    def is_table(self, name: str) -> bool:
        return name in self.tables

    def edges_between(
        self, source_type: Optional[str], target_type: Optional[str]
    ) -> list[EdgeMeta]:
        """Edge types compatible with the endpoint types (variant steps)."""
        out = []
        for em in self.edges.values():
            if source_type is not None and em.source_type != source_type:
                continue
            if target_type is not None and em.target_type != target_type:
                continue
            out.append(em)
        return out

    def __repr__(self) -> str:
        return (
            f"Catalog(tables={len(self.tables)}, vertices={len(self.vertices)}, "
            f"edges={len(self.edges)})"
        )
