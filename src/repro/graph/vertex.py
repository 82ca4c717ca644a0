"""Vertex types: views over tables (Eq. 1 of the paper).

.. math::

   V(a_1, ..., a_k) = \\Pi_{a_1,...,a_k} \\, \\sigma_\\varphi(T)

Building a vertex type applies the declaration's ``where`` selection to the
source table, projects the key columns, and creates **one vertex instance
per distinct key combination**.  Vertex ids (vids) are dense ``0..n-1``
integers in first-occurrence order, so every per-type vertex set is just an
int64 array and every frontier a boolean mask — the flat-array layout the
GEMS backend relies on.

The view is *delta-maintained*: it remembers how many source rows it has
consumed and :meth:`VertexType.refresh` reads only the rows past that
watermark, resolving their keys against a sorted key -> vid lookup.
First-occurrence order is append-stable, so the result is the arrays a
build over the whole table would give; the initial build is the delta
from watermark 0.

One-to-one mappings (key unique per selected row, e.g. ``ProductVtx(id)``)
expose *every* source-table column as a vertex attribute.  Many-to-one
mappings (e.g. ``ProducerCountry(country)``) expose only the key columns,
since other attributes are not single-valued per vertex — exactly the
restriction Section II-A implies and the type checker enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.dtypes import DataType
from repro.errors import CatalogError, TypeCheckError
from repro.graph.delta import NO_IDS, IdDelta
from repro.storage.column import Column
from repro.storage.expr import Env, Expr, evaluate_predicate
from repro.storage.indexes import SortedIndex
from repro.storage.relops import group_rows
from repro.storage.schema import Schema
from repro.storage.table import Table


@dataclass(frozen=True)
class VertexDelta:
    """A vertex view's state after consuming more source rows: the
    complete new arrays, ready to be published by assignment.

    It names its fields as :class:`VertexType` does, so an edge view
    refreshing in the same round reads the pending state through it.
    """

    rows: np.ndarray
    row_vids: np.ndarray
    rep_rows: np.ndarray
    num_vertices: int
    #: source-table rows consumed so far (the new watermark)
    consumed: int
    #: key -> vid lookup including the new vertices (None: not built yet)
    lookup: Optional[SortedIndex]
    #: the vertices this delta added
    ids: IdDelta
    #: source rows read to compute it
    rows_consumed: int

    @property
    def one_to_one(self) -> bool:
        return self.num_vertices == len(self.rows)


class VertexType:
    """A built vertex view: declaration + materialized instance mapping."""

    def __init__(
        self,
        name: str,
        key_cols: list[str],
        table: Table,
        where: Optional[Expr] = None,
    ) -> None:
        for k in key_cols:
            if not table.schema.has(k):
                raise CatalogError(
                    f"vertex {name!r}: key column {k!r} not in table {table.name!r}"
                )
        self.name = name
        self.key_cols = list(key_cols)
        self.table = table
        self.where = where
        #: number of vertex instances
        self.num_vertices: int = 0
        #: vid of each *selected source row* (aligned with ``self.rows``)
        self.row_vids: np.ndarray = NO_IDS
        #: source-table row index of each selected row (ascending)
        self.rows: np.ndarray = NO_IDS
        #: representative source row per vid (first occurrence)
        self.rep_rows: np.ndarray = NO_IDS
        self.one_to_one: bool = True
        #: watermark: source-table rows already consumed
        self.consumed: int = 0
        #: key -> vid over the representative rows (all key columns);
        #: built by the first delta that meets a non-empty view
        self._lookup: Optional[SortedIndex] = None
        # key tuples per vid (materialized lazily)
        self._keys: Optional[list[tuple]] = None
        self._key_index: Optional[dict[tuple, int]] = None
        self.refresh()

    # ------------------------------------------------------------------
    # Construction and maintenance (Eq. 1)
    # ------------------------------------------------------------------
    def delta(self) -> Optional[VertexDelta]:
        """The view after the source rows past the watermark, or None
        when there are none.  Publishes nothing.

        Eq. 1 is monotone in the table: selection and the NULL-key drop
        are per row, and first-occurrence vids never move when rows are
        appended — an appended row either carries a known key (it joins
        that vid) or a new one (it gets the next vid).  The initial
        build is this delta from watermark 0.
        """
        start, stop = self.consumed, self.table.num_rows
        if start == stop:
            return None
        tail = self.table.slice(start)
        if self.where is not None:
            selected = np.flatnonzero(evaluate_predicate(self.where, Env.from_table(tail)))
        else:
            selected = np.arange(tail.num_rows)
        keys = tail.project(self.key_cols).take(selected)
        # drop rows whose key contains a NULL: a NULL key identifies nothing
        key_null = np.zeros(keys.num_rows, dtype=bool)
        for c in keys.columns:
            key_null |= c.null_mask()
        if key_null.any():
            selected = selected[~key_null]
            keys = keys.filter(~key_null)
        vids = self._resolve(keys)
        fresh = np.flatnonzero(vids < 0)
        _, first, inv = group_rows(keys.take(fresh), self.key_cols)
        order = np.argsort(first, kind="stable")  # first-occurrence order
        rank = np.empty(len(first), dtype=np.int64)
        rank[order] = np.arange(len(first))
        vids[fresh] = self.num_vertices + rank[inv]
        rows = selected + start
        new_reps = rows[fresh[first[order]]]
        new_vids = np.arange(self.num_vertices, self.num_vertices + len(new_reps))
        lookup = self._lookup
        if lookup is not None:
            lookup = lookup.extended(self._key_values(new_reps), new_vids)
        return VertexDelta(
            rows=np.concatenate([self.rows, rows]),
            row_vids=np.concatenate([self.row_vids, vids]),
            rep_rows=np.concatenate([self.rep_rows, new_reps]),
            num_vertices=self.num_vertices + len(new_reps),
            consumed=stop,
            lookup=lookup,
            ids=IdDelta(new_vids, new_reps),
            rows_consumed=stop - start,
        )

    def _key_values(self, rows: np.ndarray) -> list[np.ndarray]:
        cols = [self.table.column(k) for k in self.key_cols]
        return [Column(c.dtype, c.data[rows]).sort_key() for c in cols]

    def _resolve(self, keys: Table) -> np.ndarray:
        """The existing vid of each key row, -1 where the key is new."""
        vids = np.full(keys.num_rows, -1, dtype=np.int64)
        if self.num_vertices == 0 or keys.num_rows == 0:
            return vids
        if self._lookup is None:
            self._lookup = SortedIndex(self._key_values(self.rep_rows))
        found, at = self._lookup.lookup_many([c.sort_key() for c in keys.columns])
        vids[at] = found
        return vids

    def publish(self, delta: VertexDelta) -> None:
        """Make *delta* the view's state (plain assignments)."""
        self.rows = delta.rows
        self.row_vids = delta.row_vids
        self.rep_rows = delta.rep_rows
        self.num_vertices = delta.num_vertices
        self.one_to_one = delta.one_to_one
        self.consumed = delta.consumed
        self._lookup = delta.lookup
        self._keys = None
        self._key_index = None

    def refresh(self) -> None:
        """Consume the source rows appended since the last refresh."""
        delta = self.delta()
        if delta is not None:
            self.publish(delta)

    def snapshot(self) -> VertexDelta:
        """The current state as the delta from an empty view — what an
        index created now has to absorb."""
        return VertexDelta(
            self.rows, self.row_vids, self.rep_rows, self.num_vertices,
            self.consumed, self._lookup,
            IdDelta(np.arange(self.num_vertices), self.rep_rows), 0,
        )

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def key_schema(self) -> Schema:
        return self.table.schema.subset(self.key_cols)

    def attribute_schema(self) -> Schema:
        """The attributes visible in queries: all source columns for
        one-to-one views, just the key for many-to-one views."""
        if self.one_to_one:
            return self.table.schema
        return self.key_schema()

    def has_attribute(self, name: str) -> bool:
        return self.attribute_schema().has(name)

    def attribute_type(self, name: str) -> DataType:
        schema = self.attribute_schema()
        if not schema.has(name):
            extra = "" if self.one_to_one else " (many-to-one view: only key attributes)"
            raise TypeCheckError(
                f"vertex type {self.name!r} has no attribute {name!r}{extra}"
            )
        return schema.type_of(name)

    # ------------------------------------------------------------------
    # Attribute access, vid-aligned
    # ------------------------------------------------------------------
    def attribute_array(self, name: str) -> tuple[np.ndarray, DataType]:
        """The attribute values aligned with vids 0..n-1."""
        dtype = self.attribute_type(name)
        col = self.table.column(name)
        return col.data[self.rep_rows], dtype

    def key_tuples(self) -> list[tuple]:
        """Key tuple of each vid (cached)."""
        if self._keys is None:
            cols = [self.table.column(k) for k in self.key_cols]
            self._keys = [
                tuple(c.value(int(r)) for c in cols) for r in self.rep_rows
            ]
        return self._keys

    def key_of(self, vid: int) -> tuple:
        return self.key_tuples()[vid]

    def vid_of(self, key: tuple) -> Optional[int]:
        """The vid carrying *key*, or None."""
        if self._key_index is None:
            self._key_index = {k: i for i, k in enumerate(self.key_tuples())}
        return self._key_index.get(tuple(key))

    def attributes_of(self, vid: int) -> dict[str, Any]:
        """All visible attributes of one vertex (cold path)."""
        schema = self.attribute_schema()
        row = int(self.rep_rows[vid])
        return {c.name: self.table.column(c.name).value(row) for c in schema}

    # ------------------------------------------------------------------
    # Query-time selection (a vertex query step, Eq. 4)
    # ------------------------------------------------------------------
    def select(self, cond: Optional[Expr], candidates: Optional[np.ndarray] = None) -> np.ndarray:
        """vids satisfying *cond*, optionally restricted to *candidates*.

        This is the per-step selection sigma_phi(V) of Eq. 4: conditions are
        evaluated over the vid-aligned attribute arrays.
        """
        if candidates is None:
            candidates = np.arange(self.num_vertices)
        if cond is None or len(candidates) == 0:
            return candidates

        def resolver(qualifier: str | None, name: str):
            arr, dtype = self.attribute_array(name)
            return arr[candidates], dtype

        env = Env(resolver, len(candidates))
        mask = evaluate_predicate(cond, env)
        return candidates[mask]

    def __repr__(self) -> str:
        kind = "1:1" if self.one_to_one else "N:1"
        return (
            f"VertexType({self.name!r}, key={self.key_cols}, "
            f"table={self.table.name!r}, n={self.num_vertices}, {kind})"
        )
