"""Edge types: join-defined views over vertex types and tables (Eq. 2).

.. math::

   E(a_1,...,a_n) = (S \\bowtie (\\sigma_\\varphi A)) \\bowtie T

An edge declaration names a source and target vertex endpoint, optional
associated table(s) (``from table``), and a ``where`` clause.  The edge
type is *delta-maintained* (:meth:`EdgeType.delta`): it keeps a watermark
per relation and, for each relation that grew, executes a small join plan
starting from the new rows:

1. split the ``where`` clause into conjuncts; equality conjuncts between
   columns of *different* relations are join predicates, everything else
   is a filter, applied as soon as the relations it reads are joined;
2. start from the rows past the watermark (the initial build: all rows of
   the source endpoint's relation, i.e. its selected source rows with
   their vids) and greedily join in connected relations — the endpoints,
   declared ``from table`` relations, and any table mentioned only in the
   ``where`` clause (the paper's Fig. 3 ``feature`` edge does exactly
   that) — by probing their lookup indexes, never re-sorting them;
3. project the vid columns, deduplicate, and merge the result into the
   existing edges, which are kept in a canonical order so that the arrays
   do not depend on how the rows were batched.

Deduplication implements the paper's many-to-one semantics (Fig. 5): edges
declared *without* an associated table are identified by the (source vid,
target vid) pair — the four-way country join yields exactly two ``export``
edges.  Edges *with* ``from table`` create one edge per qualifying
associated row (Section II-A: "an edge is created for each table entry
satisfying the where clause"), so parallel edges with distinct attributes
survive, making G a multigraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.dtypes import DataType
from repro.errors import CatalogError, TypeCheckError
from repro.graph.delta import NO_IDS, IdDelta
from repro.graph.vertex import VertexType
from repro.storage.column import Column
from repro.storage.expr import (
    BinOp,
    ColRef,
    Env,
    Expr,
    col_refs,
    conjuncts,
    evaluate_predicate,
)
from repro.storage.indexes import lex_search, sorted_insert
from repro.storage.schema import Schema
from repro.storage.table import Table


class _Role:
    """One relation of an edge declaration at its current state: a
    table, or — for an endpoint — the selected rows of a vertex view.

    Rows are addressed by *position*: the row id of a table, the index
    into ``view.rows`` of an endpoint (whose vid is ``view.row_vids`` at
    the same index).  *view* is a :class:`VertexType` or, while a round
    of refreshes is being computed, its pending
    :class:`~repro.graph.vertex.VertexDelta`.
    """

    def __init__(self, ref: str, table: Table, view=None) -> None:
        self.ref = ref
        self.table = table
        self.view = view

    @property
    def size(self) -> int:
        return self.table.num_rows if self.view is None else len(self.view.rows)

    def column(self, name: str, pos: np.ndarray) -> Column:
        col = self.table.column(name)
        rows = pos if self.view is None else self.view.rows[pos]
        return Column(col.dtype, col.data[rows])

    def probe(
        self, names: Sequence[str], values: Sequence[Column]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Equi-join the value tuples (one column per name) against
        columns *names*: aligned ``(index into values, position here)``
        for every match.  NULLs never match."""
        keys = [v.sort_key() for v in values]
        null = values[0].null_mask()
        for v in values[1:]:
            null = null | v.null_mask()
        valid = np.flatnonzero(~null) if null.any() else None
        if valid is not None:
            keys = [k[valid] for k in keys]
        rows, at = self.table.lookup_index(names).lookup_many(keys)
        if valid is not None:
            at = valid[at]
        selected = None if self.view is None else self.view.rows
        if selected is None or len(selected) == self.table.num_rows:
            # no view, or one selecting every row: positions are rows
            return at, rows
        # table rows -> positions among the view's selected rows
        pos = np.minimum(np.searchsorted(selected, rows), len(selected) - 1)
        hit = selected[pos] == rows if len(selected) else np.zeros(len(rows), dtype=bool)
        return at[hit], pos[hit]


@dataclass(frozen=True)
class EdgeDelta:
    """An edge view's state after consuming more rows of its relations:
    the complete new arrays, ready to be published by assignment."""

    src_vids: np.ndarray
    tgt_vids: np.ndarray
    assoc_rows: Optional[np.ndarray]
    #: relation name -> rows consumed so far (the new watermarks)
    consumed: dict[str, int]
    #: the edges this delta added (and how the old eids moved)
    ids: IdDelta
    #: vertex counts of the endpoint types the vids index into
    num_sources: int
    num_targets: int
    #: relation rows read to compute it
    rows_consumed: int


class EdgeType:
    """A built edge view: source/target vid arrays plus optional attributes."""

    def __init__(
        self,
        name: str,
        source: VertexType,
        target: VertexType,
        source_ref: str,
        target_ref: str,
        from_tables: list[Table],
        where: Optional[Expr],
        table_lookup: Optional[Callable[[str], Optional[Table]]] = None,
    ) -> None:
        if source_ref == target_ref:
            raise CatalogError(
                f"edge {name!r}: endpoints must have distinct names — "
                f"alias one of them ('{source.name} as A')"
            )
        self.name = name
        self.source = source
        self.target = target
        self.source_ref = source_ref
        self.target_ref = target_ref
        self.from_tables = list(from_tables)
        self.where = where
        if len(self.from_tables) == 1:
            self.assoc_table: Optional[Table] = self.from_tables[0]
        else:
            self.assoc_table = None
        #: non-endpoint relations by name: the ``from table`` ones, then
        #: tables referenced only in the where clause
        self._tables: dict[str, Table] = {}
        for t in self.from_tables:
            if t.name in (source_ref, target_ref) or t.name in self._tables:
                raise CatalogError(
                    f"edge {self.name!r}: relation name {t.name!r} used twice"
                )
            self._tables[t.name] = t
        #: the where clause's conjuncts, each with the relations it reads
        #: and, for an equality of two relations' columns, those columns
        self._conjuncts: list[tuple[Expr, frozenset[str], Optional[tuple]]] = []
        lookup = table_lookup or (lambda _n: None)
        for cj in conjuncts(where):
            refs = col_refs(cj)
            for ref in refs:
                q = ref.qualifier
                if q is None:
                    raise TypeCheckError(
                        f"edge {self.name!r}: unqualified attribute "
                        f"{ref.name!r} in where clause — qualify it"
                    )
                if q not in (source_ref, target_ref) and q not in self._tables:
                    t = lookup(q)
                    if t is None:
                        raise TypeCheckError(
                            f"edge {self.name!r}: unknown relation {q!r} in "
                            f"where clause"
                        )
                    self._tables[q] = t
            self._conjuncts.append(
                (cj, frozenset(r.qualifier for r in refs), _as_join_predicate(cj))
            )
        self.src_vids: np.ndarray = NO_IDS
        self.tgt_vids: np.ndarray = NO_IDS
        self.assoc_rows: Optional[np.ndarray] = (
            NO_IDS if self.assoc_table is not None else None
        )
        self.num_edges: int = 0
        #: watermarks: relation name -> rows of it already joined in
        self._consumed: dict[str, int] = dict.fromkeys(
            [source_ref, target_ref, *self._tables], 0
        )
        self.refresh()

    # ------------------------------------------------------------------
    # Construction and maintenance (Eq. 2)
    # ------------------------------------------------------------------
    def _roles(self, views: Mapping[str, object]) -> dict[str, _Role]:
        """The relations at their newest state; *views* holds pending
        vertex deltas by vertex type name."""
        src, tgt = self.source, self.target
        roles = {
            self.source_ref: _Role(self.source_ref, src.table, views.get(src.name, src)),
            self.target_ref: _Role(self.target_ref, tgt.table, views.get(tgt.name, tgt)),
        }
        for ref, table in self._tables.items():
            roles[ref] = _Role(ref, table)
        return roles

    def delta(self, views: Optional[Mapping[str, object]] = None) -> Optional[EdgeDelta]:
        """The view after the relation rows past the watermarks, or None
        when no relation grew.  Publishes nothing.

        Eq. 2 is a select-project-join, monotone in every relation:
        ``E(R1 ∪ Δ1, ..., Rk ∪ Δk)`` is the old ``E`` plus, per grown
        relation *i*, the join of ``Δi`` with all the others at their new
        state.  Each term runs the greedy join plan starting *from the
        delta*, probing the other relations through their lookup
        indexes.  A relation consumed from watermark 0 makes its term
        the whole join, so it runs alone: the initial build is that one
        term, source endpoint first.

        Edges are kept in a canonical order — sorted by ``(assoc row,
        src vid, tgt vid)``, or ``(src vid, tgt vid)`` without an
        associated table — so the arrays depend on the final tables
        only, never on how the rows were batched: new associated rows
        append, anything else is a ``lex_search`` merge.
        """
        roles = self._roles(views or {})
        grown = [r for r in roles.values() if r.size > self._consumed[r.ref]]
        if not grown:
            return None
        bulk = next((r for r in grown if self._consumed[r.ref] == 0), None)
        src_view, tgt_view = roles[self.source_ref].view, roles[self.target_ref].view
        terms = []
        for start in [bulk] if bulk is not None else grown:
            pos = np.arange(self._consumed[start.ref], start.size)
            work = self._join(roles, start.ref, pos)
            terms.append(
                _order_cols(
                    src_view.row_vids[work[self.source_ref]],
                    tgt_view.row_vids[work[self.target_ref]],
                    work[self.assoc_table.name] if self.assoc_table is not None else None,
                )
            )
        found = _sorted_unique(
            terms[0] if len(terms) == 1 else [np.concatenate(c) for c in zip(*terms)]
        )
        old = _order_cols(self.src_vids, self.tgt_vids, self.assoc_rows)
        if len(found[0]) and self.num_edges and found[0][0] <= old[0][-1]:
            lo, hi = lex_search(old, found)
            new = lo == hi
            found = [f[new] for f in found]
            at = lo[new]  # insertion points in the old arrays, ascending
        else:
            # every edge found sorts after the old ones: an append
            at = np.full(len(found[0]), self.num_edges)
        *rows, src, tgt = sorted_insert(old, at, found)
        inserted = at + np.arange(len(at))
        renumber = None
        if len(at) and at[0] < self.num_edges:
            eids = np.arange(self.num_edges)
            renumber = eids + np.searchsorted(at, eids, side="right")
        assoc_rows = rows[0] if rows else None
        return EdgeDelta(
            src_vids=src,
            tgt_vids=tgt,
            assoc_rows=assoc_rows,
            consumed={ref: r.size for ref, r in roles.items()},
            ids=IdDelta(
                inserted, None if assoc_rows is None else assoc_rows[inserted], renumber
            ),
            num_sources=src_view.num_vertices,
            num_targets=tgt_view.num_vertices,
            rows_consumed=sum(r.size - self._consumed[r.ref] for r in grown),
        )

    def _join(
        self, roles: dict[str, _Role], start: str, pos: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Join rows *pos* of relation *start* with every other relation.

        Returns aligned position arrays, one per relation.  Greedy plan:
        of the relations an equality conjunct connects to the joined
        set, take the one with the most connecting conjuncts and probe
        it on all of them at once (a composite key, so a low-cardinality
        column never fans the intermediate result out); every other
        conjunct — residual filters, cycles in the join graph — applies
        as soon as all the relations it reads are joined; with no
        connecting conjunct, cross join.
        """
        work = {start: pos}
        todo = list(self._conjuncts)

        def resolver(qualifier: str | None, name: str):
            col = roles[qualifier].column(name, work[qualifier])
            return col.data, col.dtype

        def settle() -> None:
            nonlocal work
            for item in [c for c in todo if c[1] <= work.keys()]:
                todo.remove(item)
                mask = evaluate_predicate(item[0], Env(resolver, len(work[start])))
                work = {ref: p[mask] for ref, p in work.items()}

        settle()
        rest = [ref for ref in roles if ref != start]
        while rest:
            # equality conjuncts connecting the joined set to one relation
            links: dict[str, list] = {}
            for item in todo:
                pair = item[2]
                if pair is None:
                    continue
                for a, b in (pair, pair[::-1]):
                    if a[0] in work and b[0] in rest:
                        links.setdefault(b[0], []).append((a, b, item))
            if links:
                # the relation with the most predicates first (most
                # selective under equal cardinalities)
                q = max(links, key=lambda k: len(links[k]))
                # one probe column per column of q; a second equality on
                # the same column is left to settle() as a filter
                keys: dict[str, tuple] = {}
                for a, b, item in links[q]:
                    keys.setdefault(b[1], (a, item))
                names = sorted(keys)
                values = []
                for name in names:
                    a, item = keys[name]
                    todo.remove(item)
                    values.append(roles[a[0]].column(a[1], work[a[0]]))
                at, found = roles[q].probe(names, values)
                work = {ref: p[at] for ref, p in work.items()}
                work[q] = found
            else:
                # no connecting predicate: cross join (rare, but Eq. 2's
                # "tables of the vertex types are joined" permits it)
                q = rest[0]
                n, m = len(work[start]), roles[q].size
                work = {ref: np.repeat(p, m) for ref, p in work.items()}
                work[q] = np.tile(np.arange(m), n)
            rest.remove(q)
            settle()
        return work

    def publish(self, delta: EdgeDelta) -> None:
        """Make *delta* the view's state (plain assignments)."""
        self.src_vids = delta.src_vids
        self.tgt_vids = delta.tgt_vids
        self.assoc_rows = delta.assoc_rows
        self.num_edges = len(delta.src_vids)
        self._consumed = delta.consumed

    def refresh(self) -> None:
        """Consume the relation rows appended since the last refresh."""
        delta = self.delta()
        if delta is not None:
            self.publish(delta)

    def snapshot(self) -> EdgeDelta:
        """The current state as the delta from an empty view — what an
        index created now has to absorb."""
        return EdgeDelta(
            self.src_vids, self.tgt_vids, self.assoc_rows, self._consumed,
            IdDelta(np.arange(self.num_edges), self.assoc_rows),
            self.source.num_vertices, self.target.num_vertices, 0,
        )

    # ------------------------------------------------------------------
    # Attributes (from the associated table)
    # ------------------------------------------------------------------
    def attribute_schema(self) -> Schema:
        if self.assoc_table is None:
            return Schema([])
        return self.assoc_table.schema

    def has_attribute(self, name: str) -> bool:
        return self.assoc_table is not None and self.assoc_table.schema.has(name)

    def attribute_type(self, name: str) -> DataType:
        if not self.has_attribute(name):
            raise TypeCheckError(
                f"edge type {self.name!r} has no attribute {name!r}"
            )
        return self.assoc_table.schema.type_of(name)

    def attribute_array(self, name: str) -> tuple[np.ndarray, DataType]:
        """Attribute values aligned with eids 0..m-1."""
        dtype = self.attribute_type(name)
        col = self.assoc_table.column(name)
        return col.data[self.assoc_rows], dtype

    # ------------------------------------------------------------------
    # Query-time selection (an edge query step)
    # ------------------------------------------------------------------
    def select(self, cond: Optional[Expr], candidates: Optional[np.ndarray] = None) -> np.ndarray:
        """eids satisfying *cond*, optionally restricted to *candidates*."""
        if candidates is None:
            candidates = np.arange(self.num_edges)
        if cond is None or len(candidates) == 0:
            return candidates

        def resolver(qualifier: str | None, name: str):
            if qualifier not in (None, self.name):
                raise TypeCheckError(
                    f"cannot resolve qualifier {qualifier!r} on edge type "
                    f"{self.name!r}"
                )
            arr, dtype = self.attribute_array(name)
            return arr[candidates], dtype

        env = Env(resolver, len(candidates))
        mask = evaluate_predicate(cond, env)
        return candidates[mask]

    def endpoints_of(self, eid: int) -> tuple[int, int]:
        return int(self.src_vids[eid]), int(self.tgt_vids[eid])

    def __repr__(self) -> str:
        return (
            f"EdgeType({self.name!r}, {self.source.name} -> {self.target.name}, "
            f"m={self.num_edges})"
        )


def _as_join_predicate(expr: Expr):
    """If *expr* is ``a.x = b.y`` with qualified refs, return the pair."""
    if (
        isinstance(expr, BinOp)
        and expr.op == "="
        and isinstance(expr.left, ColRef)
        and isinstance(expr.right, ColRef)
        and expr.left.qualifier is not None
        and expr.right.qualifier is not None
    ):
        return (
            (expr.left.qualifier, expr.left.name),
            (expr.right.qualifier, expr.right.name),
        )
    return None


def _order_cols(
    src: np.ndarray, tgt: np.ndarray, rows: Optional[np.ndarray]
) -> list[np.ndarray]:
    """The columns of the canonical edge order, major first."""
    return [src, tgt] if rows is None else [rows, src, tgt]


def _sorted_unique(cols: list[np.ndarray]) -> list[np.ndarray]:
    """Distinct column tuples in lexicographic order (first column major)."""
    order = np.lexsort(tuple(reversed(cols)))
    cols = [c[order] for c in cols]
    # dup[i]: row i + 1 repeats row i
    dup = cols[0][1:] == cols[0][:-1]
    for c in cols[1:]:
        dup &= c[1:] == c[:-1]
    if not dup.any():
        return cols
    first = np.concatenate([[True], ~dup])
    return [c[first] for c in cols]
