"""Pipelined execution of dependent statements (paper Section III-B1).

    "Pipelined execution of dependent query statements can also be
    considered to reduce the amount of space needed to materialize
    intermediate results."

The dominant GraQL idiom (Figs. 6-7) is a *pair*: a graph select
materializing a path table, immediately consumed by one relational
aggregation.  :func:`fuse_script` detects such pairs (the intermediate
table has exactly one reader and is never referenced again) and
:class:`PipelinedPair` executes them fused: the path enumeration runs in
**chunks** of the first step's candidates, each chunk's rows stream into
a decomposable partial aggregation (the same sum/count/min/max
decomposition the distributed backend uses), and only the per-group
partials survive between chunks.  Peak intermediate materialization drops
from *all paths* to *paths of one chunk* — exactly the space saving the
paper describes — and the final result is bit-identical to sequential
execution (tested).

Pairs the fusion cannot handle (multi-atom patterns, non-decomposable
consumers) transparently fall back to sequential execution.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from repro.catalog import Catalog
from repro.errors import ExecutionError
from repro.graph.graphdb import GraphDB
from repro.graph.subgraph import Subgraph
from repro.graql.ast import (
    AggItem,
    AttrItem,
    GraphSelect,
    INTO_TABLE,
    Script,
    Statement,
    TableSelect,
)
from repro.graql.params import substitute_statement
from repro.graql.typecheck import (
    CheckedGraphSelect,
    RAtom,
    RVertexStep,
    check_statement,
)
from repro.obs.options import QueryOptions, resolve_options
from repro.obs.profile import QueryProfile
from repro.query.bindings import BindingExecutor
from repro.query.executor import StatementResult, execute_statement
from repro.query.planner import plan_graph_select
from repro.query.relational import execute_table_select
from repro.query.results import JoinedBindings, NameMap, table_from_bindings
from repro.storage import idsets, relops
from repro.storage.relops import AggSpec
from repro.storage.table import Table


class PipelineStats:
    """Space accounting for one fused pair."""

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


class PipelinedPair:
    """Fused execution of (graph select into T, table select from T)."""

    def __init__(
        self,
        db: GraphDB,
        catalog: Catalog,
        graph_stmt: GraphSelect,
        table_stmt: TableSelect,
        num_chunks: int = 8,
    ) -> None:
        self.db = db
        self.catalog = catalog
        self.graph_stmt = graph_stmt
        self.table_stmt = table_stmt
        self.num_chunks = max(num_chunks, 1)
        self.stats = PipelineStats()

    # ------------------------------------------------------------------
    def supported(self, checked: CheckedGraphSelect) -> bool:
        if len(checked.pattern.atoms()) != 1:
            return False
        if checked.pattern.has_regex:
            return False
        return _decomposable(self.table_stmt)

    def run(self) -> tuple[StatementResult, StatementResult]:
        """Execute the fused pair; returns both statements' results.

        The intermediate table is still *registered* (script semantics:
        later sessions may inspect it) but is rebuilt from the streamed
        chunks only at the end — during execution, peak materialization
        is one chunk.
        """
        checked = check_statement(self.graph_stmt, self.catalog)
        assert isinstance(checked, CheckedGraphSelect)
        if not self.supported(checked):
            raise ExecutionError("pair is not fusable")
        plan = plan_graph_select(self.checked_for_plan(checked), self.catalog)
        atom = checked.pattern.atoms()[0]
        direction = plan.plan_for(atom).direction
        name_map = NameMap()
        name_map.add_atom(0, atom)
        chunks = self._chunk_steps(atom, direction)
        if not chunks:
            # entry step has no candidates: the pair is trivially empty;
            # sequential execution handles schema and registration exactly
            first = execute_statement(self.db, self.catalog, self.graph_stmt)
            second = execute_statement(self.db, self.catalog, self.table_stmt)
            return first, second
        partial_specs, merges = _decompose_consumer(self.table_stmt)
        partials: list[Table] = []
        chunk_tables: list[Table] = []
        bex = BindingExecutor(self.db, self.catalog)
        for chunk_atom in chunks:
            res = bex.run_atom(chunk_atom, direction)
            jb = JoinedBindings.from_result(0, res, chunk_atom)
            part = table_from_bindings(
                self.graph_stmt, jb, name_map, self.graph_stmt.into.name, self.db
            )
            self.stats.record_chunk(part.num_rows)
            chunk_tables.append(part)
            working = relops.filter_table(part, self.table_stmt.where)
            if working.num_rows:
                partials.append(
                    relops.group_by_aggregate(
                        working, self.table_stmt.group_by, partial_specs
                    )
                )
        final = _merge_partials(
            partials, self.table_stmt, merges, self.db, chunk_tables
        )
        # register the intermediate (script semantics) and the result
        intermediate = (
            relops.union_all(chunk_tables, self.graph_stmt.into.name)
            if chunk_tables
            else None
        )
        if intermediate is not None:
            self.db.register_result_table(self.graph_stmt.into.name, intermediate)
            self.catalog.register_result_table(
                self.graph_stmt.into.name, intermediate
            )
        if self.table_stmt.into is not None:
            self.db.register_result_table(self.table_stmt.into.name, final)
            self.catalog.register_result_table(self.table_stmt.into.name, final)
        first = StatementResult(
            "table",
            table=intermediate,
            count=intermediate.num_rows if intermediate is not None else 0,
        )
        second = StatementResult("table", table=final, count=final.num_rows)
        return first, second

    def checked_for_plan(self, checked: CheckedGraphSelect) -> CheckedGraphSelect:
        return checked

    # ------------------------------------------------------------------
    def _chunk_steps(self, atom: RAtom, direction: str) -> list[RAtom]:
        """Split the sweep-entry step's candidates into chunk subatoms.

        Chunking restricts the *first step in sweep order* via temporary
        seed subgraphs, so each chunk enumerates a disjoint slice of
        paths whose union is the full result.
        """
        entry_idx = 0 if direction == "forward" else len(atom.steps) - 1
        entry: RVertexStep = atom.steps[entry_idx]
        # candidate ids per type of the entry step
        per_type: dict[str, np.ndarray] = {}
        for t in entry.types:
            vt = self.db.vertex_type(t)
            cands = vt.select(entry.cond) if not entry.cross_refs else np.arange(vt.num_vertices)
            if entry.seed is not None:
                cands = idsets.intersect(
                    cands, self.db.subgraph(entry.seed).vertex_ids(t)
                )
            per_type[t] = cands
        total = sum(len(v) for v in per_type.values())
        n_chunks = min(self.num_chunks, max(total, 1))
        atoms = []
        for c in range(n_chunks):
            seed_name = f"__pipeline_chunk_{id(self)}_{c}"
            sg = Subgraph(
                seed_name,
                {t: v[c::n_chunks] for t, v in per_type.items() if len(v[c::n_chunks])},
                {},
            )
            if sg.num_vertices == 0:
                continue
            self.db.register_subgraph(sg)
            self.catalog.register_subgraph(
                seed_name, {k: len(v) for k, v in sg.vertices.items()}
            )
            new_entry = RVertexStep(
                list(entry.types),
                entry.cond,
                entry.label,
                entry.label_ref,
                seed_name,
                entry.is_variant,
                list(entry.cross_refs),
                entry.names,
            )
            steps = list(atom.steps)
            steps[entry_idx] = new_entry
            atoms.append(RAtom(steps))
        return atoms


def _decompose_consumer(stmt: TableSelect):
    aggs = []
    for item in stmt.items:
        if isinstance(item, AggItem):
            alias = item.alias or (
                f"{item.func}_{item.arg}" if item.arg else item.func
            )
            aggs.append(AggSpec(item.func, item.arg, alias))
    from repro.dist.dist_relops import _decompose

    return _decompose(aggs)


def _merge_partials(partials, stmt: TableSelect, merges, db, chunk_tables) -> Table:
    from repro.dtypes import FLOAT
    from repro.storage.column import Column
    from repro.storage.schema import ColumnDef

    if not partials:
        # empty input: run the consumer on an empty union for exact schema
        if chunk_tables:
            empty = chunk_tables[0].head(0)
            empty = Table(stmt.source, empty.schema, empty.columns)
            tmp_db_table = empty
            return _consumer_on(db, stmt, tmp_db_table)
        raise ExecutionError("pipeline produced no chunks")
    combined = relops.union_all(partials)
    merge_specs = []
    for palias, op, final in merges:
        if op == "avg":
            merge_specs.append(AggSpec("sum", palias, f"__ms_{final}"))
            merge_specs.append(
                AggSpec("sum", palias.replace("__ps_", "__pc_"), f"__mc_{final}")
            )
        else:
            merge_specs.append(AggSpec(op, palias, final))
    out = relops.group_by_aggregate(combined, stmt.group_by, merge_specs)
    for palias, op, final in merges:
        if op == "avg":
            sums = out.column(f"__ms_{final}").data.astype(np.float64)
            counts = out.column(f"__mc_{final}").data.astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                avg = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
            out = out.with_column(ColumnDef(final, FLOAT), Column(FLOAT, avg))
    # project in select-list order, then order/top/distinct
    names = []
    for item in stmt.items:
        if isinstance(item, AggItem):
            names.append(
                item.alias or (f"{item.func}_{item.arg}" if item.arg else item.func)
            )
        else:
            names.append(item.ref.name)
    out = out.project(names)
    renames = {
        i.ref.name: i.alias
        for i in stmt.items
        if isinstance(i, AttrItem) and i.alias
    }
    if renames:
        out = out.rename_columns(renames)
    if stmt.distinct:
        out = relops.distinct(out)
    if stmt.order_by:
        out = relops.order_by(out, [(k.column, k.ascending) for k in stmt.order_by])
    if stmt.top is not None:
        out = relops.top_n(out, stmt.top)
    name = stmt.into.name if stmt.into is not None else "result"
    return Table(name, out.schema, out.columns)


def _consumer_on(db, stmt: TableSelect, table: Table) -> Table:
    """Run the consumer statement against an in-memory table."""
    saved = db.tables.get(stmt.source)
    db.tables[stmt.source] = table
    try:
        return execute_table_select(db, stmt)
    finally:
        if saved is not None:
            db.tables[stmt.source] = saved
        else:
            db.tables.pop(stmt.source, None)


def run_pipelined(
    db: GraphDB,
    catalog: Catalog,
    script: Script,
    params: Optional[Mapping[str, Any]] = None,
    num_chunks: int = 8,
    options: Optional[QueryOptions] = None,
) -> tuple[list[StatementResult], list[PipelineStats]]:
    """Execute a script, fusing every eligible pair (III-B1 pipelining).

    Returns results in statement order plus the per-pair space stats.
    Ineligible statements (and pairs whose fusion preconditions fail at
    runtime) execute sequentially with identical semantics.  Fused
    statements carry a :class:`~repro.obs.QueryProfile` whose
    ``pipeline`` block holds the pair's chunk/space accounting.
    """
    opts = resolve_options(options)
    if params:
        script = Script(
            [substitute_statement(s, params) for s in script.statements]
        )
    pairs = find_fusable_pairs(script)
    results: list[Optional[StatementResult]] = [None] * len(script.statements)
    all_stats: list[PipelineStats] = []
    i = 0
    while i < len(script.statements):
        if i in pairs:
            graph_stmt = script.statements[i]
            table_stmt = script.statements[pairs[i]]
            pair = PipelinedPair(db, catalog, graph_stmt, table_stmt, num_chunks)
            checked = check_statement(graph_stmt, catalog)
            if isinstance(checked, CheckedGraphSelect) and pair.supported(checked):
                first, second = pair.run()
                if opts.profile:
                    for r in (first, second):
                        if r.profile is None:
                            r.profile = QueryProfile(kind=r.kind)
                            r.profile.rows_out = r.count
                        r.profile.pipeline = {
                            "chunks": pair.stats.chunks,
                            "total_paths": pair.stats.total_paths,
                            "peak_partial_rows": pair.stats.peak_partial_rows,
                        }
                results[i] = first
                results[pairs[i]] = second
                all_stats.append(pair.stats)
                i = pairs[i] + 1
                continue
        results[i] = execute_statement(
            db, catalog, script.statements[i], options=opts
        )
        i += 1
    return [r for r in results if r is not None], all_stats
