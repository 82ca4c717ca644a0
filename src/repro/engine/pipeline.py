"""Pipelined execution of dependent statements (paper Section III-B1).

    "Pipelined execution of dependent query statements can also be
    considered to reduce the amount of space needed to materialize
    intermediate results."

The dominant GraQL idiom (Figs. 6-7) is a *pair*: a graph select
materializing a path table, immediately consumed by one relational
aggregation.  :func:`find_fusable_pairs` detects such pairs (the
intermediate table has exactly one reader, the next statement), and a
:class:`Pipeline` hands the server's one statement pipeline
(:meth:`~repro.engine.server.Server._execute`) a fused step for both
statements of every pair it can fuse; ``Database.execute_pipelined`` is
the entry point.

The graph select enumerates its paths in **chunks** of the sweep-entry
step's candidates, and each chunk's rows are filtered and partially
aggregated for the consumer on the spot
(:func:`~repro.storage.relops.partial_aggregates`), so the consumer's
aggregate sees one chunk at a time.  The producer still keeps every
chunk's path table and registers their union as the ``into`` table, so
every path is live at the end of the chunk loop.  The consumer
merges the partials (:func:`~repro.storage.relops.merge_aggregates`) and
finishes through the select tail a sequential run takes
(:func:`~repro.query.relational.select_from_groups`).  A chunk restricts
the entry step through the frontier executor's own pin set, so nothing
is registered for it; both statements register their ``into`` tables
exactly as a sequential run does, and the results are identical
(tested).

Pairs the fusion cannot handle (multi-atom patterns, path regexes,
non-decomposable consumers) run as ordinary statements.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.catalog import Catalog
from repro.graph.graphdb import GraphDB
from repro.graql.ast import (
    AggItem,
    AttrItem,
    GraphSelect,
    INTO_TABLE,
    LABEL_SET,
    Label,
    Script,
    Statement,
    TableSelect,
)
from repro.graql.typecheck import CheckedGraphSelect, RAtom, RVertexStep
from repro.obs.options import QueryOptions
from repro.obs.profile import QueryProfile
from repro.obs.trace import Tracer
from repro.query.bindings import BindingExecutor
from repro.query.executor import StatementResult, _stage
from repro.query.frontier import FrontierExecutor
from repro.query.planner import plan_graph_select
from repro.query.relational import (
    execute_table_select,
    select_aggregates,
    select_from_groups,
)
from repro.query.results import JoinedBindings, NameMap, table_from_bindings
from repro.storage import idsets, relops
from repro.storage.table import Table

#: the label a chunk pins when the entry step has none of its own (not
#: an identifier, so no user label can collide with it)
_CHUNK_LABEL = "<chunk>"


class PipelineStats:
    """Chunk counts for one fused pair.

    ``peak_partial_rows`` is the largest chunk fed to the partial
    aggregate.  It is not the pair's space: the registered ``into``
    table still holds all ``total_paths`` rows.
    """

    def __init__(self) -> None:
        self.chunks = 0
        self.total_paths = 0
        self.peak_partial_rows = 0

    def record_chunk(self, rows: int) -> None:
        self.chunks += 1
        self.total_paths += rows
        self.peak_partial_rows = max(self.peak_partial_rows, rows)

    def __repr__(self) -> str:
        return (
            f"PipelineStats(chunks={self.chunks}, paths={self.total_paths}, "
            f"peak={self.peak_partial_rows})"
        )


def find_fusable_pairs(script: Script) -> dict[int, int]:
    """Map graph-select index -> consuming table-select index.

    A pair (i, j) fuses when statement *i* is a graph select
    ``into table T``, statement *j* is the next statement, reads ``T``,
    and no other statement references ``T``.
    """
    pairs: dict[int, int] = {}
    stmts = script.statements
    for i, stmt in enumerate(stmts):
        if not isinstance(stmt, GraphSelect) or stmt.into is None:
            continue
        if stmt.into.kind != INTO_TABLE:
            continue
        name = stmt.into.name
        if i + 1 >= len(stmts):
            continue
        nxt = stmts[i + 1]
        if not isinstance(nxt, TableSelect) or nxt.source != name:
            continue
        # no later statement may reference the intermediate
        used_later = any(
            isinstance(s, TableSelect) and s.source == name
            for s in stmts[i + 2 :]
        )
        if not used_later:
            pairs[i] = i + 1
    return pairs


def _decomposable(stmt: TableSelect) -> bool:
    """True if the consumer is where + group-by + decomposable aggregates
    (+ order/top/distinct on the aggregated output)."""
    has_agg = any(isinstance(i, AggItem) for i in stmt.items)
    if not has_agg and not stmt.group_by:
        return False
    for item in stmt.items:
        if isinstance(item, AggItem):
            if item.func not in ("count", "sum", "min", "max", "avg"):
                return False
        elif isinstance(item, AttrItem):
            if item.ref.name not in stmt.group_by:
                return False
        else:
            return False
    return True


def _fusable(checked: object, consumer: TableSelect) -> bool:
    return (
        isinstance(checked, CheckedGraphSelect)
        and len(checked.pattern.atoms()) == 1
        and not checked.pattern.has_regex
        and _decomposable(consumer)
    )


class Pipeline:
    """Section III-B1 fusion for one script execution: each fused pair
    runs in up to ``num_chunks`` chunks and leaves its
    :class:`PipelineStats` in :attr:`stats`, in script order."""

    def __init__(self, num_chunks: int = 8) -> None:
        self.num_chunks = max(num_chunks, 1)
        self.stats: list[PipelineStats] = []

    def steps(self, statements: list[Statement], checked: list) -> dict[int, Callable]:
        """The fused steps, by statement index, of the pairs in the checked
        script that fuse.  Each step takes ``execute_checked``'s
        arguments: ``(db, catalog, checked statement, options)``."""
        out: dict[int, Callable] = {}
        for i, j in find_fusable_pairs(Script(statements)).items():
            if _fusable(checked[i], statements[j]):
                pair = _FusedPair(statements[j], self.num_chunks)
                self.stats.append(pair.stats)
                out[i], out[j] = pair.produce, pair.consume
        return out


class _FusedPair:
    """(graph select into T, aggregating table select from T), fused."""

    def __init__(self, consumer: TableSelect, num_chunks: int) -> None:
        self.aggs = select_aggregates(consumer)
        self.consumer = consumer
        self.num_chunks = num_chunks
        self.stats = PipelineStats()
        self.partials: list[Table] = []

    def produce(
        self,
        db: GraphDB,
        catalog: Catalog,
        checked: CheckedGraphSelect,
        opts: QueryOptions,
    ) -> StatementResult:
        """The graph select: enumerate chunk by chunk, partially aggregate
        each chunk for the consumer, register the whole path table."""
        profile, tracer = _profiling(opts)
        stmt = checked.stmt
        with _stage("plan", profile, tracer):
            plan = plan_graph_select(checked, catalog, opts.direction, None, opts.hints)
        atom = checked.pattern.atoms()[0]
        direction = plan.plan_for(atom).direction
        pinned, entry, label = _pinned_entry(atom, direction)
        name_map = NameMap()
        name_map.add_atom(0, atom)
        partial_specs = relops.partial_aggregates(self.aggs)
        parts = []
        with _stage("execute", profile, tracer):
            for chunk in self._chunks(db, entry):
                fx = FrontierExecutor(db)
                fx.pin_labels[label] = chunk
                res = BindingExecutor(db, catalog, frontier=fx).run_atom(pinned, direction)
                part = table_from_bindings(
                    stmt, JoinedBindings.from_result(0, res, atom), name_map,
                    stmt.into.name, db,
                )
                self.stats.record_chunk(part.num_rows)
                parts.append(part)
                working = relops.filter_table(part, self.consumer.where)
                if working.num_rows:
                    self.partials.append(
                        relops.group_by_aggregate(
                            working, self.consumer.group_by, partial_specs
                        )
                    )
        with _stage("materialize", profile, tracer):
            table = relops.union_all(parts, stmt.into.name)
        db.register_result_table(stmt.into.name, table)
        catalog.register_result_table(stmt.into.name, table)
        result = StatementResult("table", table=table, count=table.num_rows, plan=plan)
        return self._profiled(result, profile, tracer)

    def consume(
        self,
        db: GraphDB,
        catalog: Catalog,
        stmt: TableSelect,
        opts: QueryOptions,
    ) -> StatementResult:
        """The consumer: merge the chunks' partials, then finish as a
        sequential run does."""
        profile, tracer = _profiling(opts)
        with _stage("execute", profile, tracer):
            if self.partials:
                grouped = relops.merge_aggregates(
                    relops.union_all(self.partials), stmt.group_by, self.aggs,
                    stmt.source,
                )
                table = select_from_groups(stmt, grouped)
            else:
                # no path passed the where: nothing to merge, and the
                # sequential select over the registered path table is exact
                table = execute_table_select(db, stmt)
        if stmt.into is not None:
            db.register_result_table(stmt.into.name, table)
            catalog.register_result_table(stmt.into.name, table)
        result = StatementResult("table", table=table, count=table.num_rows)
        return self._profiled(result, profile, tracer)

    def _chunks(self, db: GraphDB, entry: RVertexStep) -> list[dict[str, np.ndarray]]:
        """The entry step's candidates per type, dealt round-robin into at
        most ``num_chunks`` non-empty pin sets (one empty set when there
        are no candidates, so the path table still gets its schema)."""
        per_type = {}
        for t in entry.types:
            # a cross-step condition is applied during enumeration
            cands = db.vertex_type(t).select(None if entry.cross_refs else entry.cond)
            if entry.seed is not None:
                cands = idsets.intersect(cands, db.subgraph(entry.seed).vertex_ids(t))
            per_type[t] = cands
        n = min(self.num_chunks, max(sum(map(len, per_type.values())), 1))
        chunks = [{t: v[c::n] for t, v in per_type.items()} for c in range(n)]
        return [ch for ch in chunks if any(map(len, ch.values()))] or chunks[:1]

    def _profiled(
        self,
        result: StatementResult,
        profile: Optional[QueryProfile],
        tracer: Optional[Tracer],
    ) -> StatementResult:
        if profile is not None:
            profile.pipeline = dict(vars(self.stats))
        return result.attach_profile(profile, tracer)


def _profiling(opts: QueryOptions) -> tuple[Optional[QueryProfile], Optional[Tracer]]:
    profile = QueryProfile() if opts.profile else None
    return profile, Tracer() if (opts.trace and profile is not None) else None


def _pinned_entry(atom: RAtom, direction: str) -> tuple[RAtom, RVertexStep, str]:
    """*atom* with a label on the step a sweep in *direction* enters by,
    that step, and the label's name: a chunk restricts the entry step by
    pinning the label's set."""
    idx = 0 if direction == "forward" else len(atom.steps) - 1
    entry = atom.steps[idx]
    if entry.label is not None:
        return atom, entry, entry.label.name
    steps = list(atom.steps)
    steps[idx] = RVertexStep(
        list(entry.types),
        entry.cond,
        Label(LABEL_SET, _CHUNK_LABEL),
        entry.label_ref,
        entry.seed,
        entry.is_variant,
        list(entry.cross_refs),
        entry.names,
    )
    return RAtom(steps), entry, _CHUNK_LABEL
