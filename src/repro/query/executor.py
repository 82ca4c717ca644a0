"""Top-level statement execution and pattern composition.

Dispatches every GraQL statement kind against a
:class:`~repro.graph.graphdb.GraphDB` + :class:`~repro.catalog.Catalog`
pair, and implements multi-path composition (Section II-B3):

* ``and`` — atoms share labels.  Under set semantics the atoms run
  left-to-right sharing a label environment, then a short fixpoint
  iteration re-culls each atom with the intersection of every label's
  defining and referencing sets (so a constraint discovered in the right
  path propagates back into the left path's matched subgraph).  Under
  binding semantics the atoms' path tables are equi-joined on the shared
  label columns.
* ``or`` — the union of the matched subgraphs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from enum import Enum
from typing import Any, Iterator, Mapping, Optional

import numpy as np

from repro.catalog import Catalog
from repro.errors import ExecutionError
from repro.graph.graphdb import GraphDB
from repro.graph.subgraph import Subgraph
from repro.graql.ast import (
    CreateEdge,
    CreateIndex,
    CreateTable,
    CreateVertex,
    DropIndex,
    GraphSelect,
    Ingest,
    INTO_SUBGRAPH,
    Script,
    Statement,
    TableSelect,
)
from repro.graql.params import substitute_statement
from repro.graql.typecheck import (
    CheckedGraphSelect,
    RAtom,
    REdgeStep,
    RRegex,
    RVertexStep,
    check_statement,
)
from repro.obs.options import QueryOptions, resolve_options
from repro.obs.profile import AtomProfile, QueryProfile, StepProfile
from repro.obs.trace import Tracer
from repro.query.bindings import BindingExecutor
from repro.query.frontier import AtomSets, FrontierExecutor
from repro.query.planner import AtomPlan, QueryPlan, plan_graph_select
from repro.query.relational import execute_table_select
from repro.query.results import (
    JoinedBindings,
    NameMap,
    subgraph_from_bindings,
    subgraph_from_sets,
    table_from_bindings,
)
from repro.storage import idsets
from repro.storage.table import Table

#: max and-composition refinement rounds under set semantics
MAX_REFINE_ROUNDS = 4


@contextmanager
def _stage(
    name: str, profile: Optional[QueryProfile], tracer: Optional[Tracer]
) -> Iterator[None]:
    """Time one pipeline stage into the profile (and span it if traced)."""
    if tracer is None:
        # hot path: two perf_counter calls and a list append
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if profile is not None:
                profile.add_stage(name, (time.perf_counter() - t0) * 1000.0)
    else:
        with tracer.span(name):
            t0 = time.perf_counter()
            try:
                yield
            finally:
                if profile is not None:
                    profile.add_stage(
                        name, (time.perf_counter() - t0) * 1000.0
                    )


class StatementKind(str, Enum):
    """Stable classification of a :class:`StatementResult`.

    A ``str`` subclass, so existing ``result.kind == "table"`` call sites
    keep working; new code can match on the enum members.  ``__str__``
    is pinned to the plain string form so f-strings render ``"table"``
    identically on every supported Python version.
    """

    DDL = "ddl"
    INGEST = "ingest"
    TABLE = "table"
    SUBGRAPH = "subgraph"

    __str__ = str.__str__

    @property
    def is_write(self) -> bool:
        """True for statements that mutate the database or catalog."""
        return self in (StatementKind.DDL, StatementKind.INGEST)


class StatementResult:
    """Outcome of executing one statement."""

    def __init__(
        self,
        kind: "str | StatementKind",
        table: Optional[Table] = None,
        subgraph: Optional[Subgraph] = None,
        message: str = "",
        count: int = 0,
        plan: Optional[QueryPlan] = None,
        degraded: bool = False,
        degraded_reason: str = "",
        recovery: Optional[dict] = None,
        profile: Optional[QueryProfile] = None,
    ) -> None:
        self.kind = StatementKind(kind)
        self.table = table
        self.subgraph = subgraph
        self.message = message
        self.count = count
        self.plan = plan
        #: True when the cluster fell back to single-node execution
        #: (circuit breaker open or fatal backend failure); the reason
        #: names what degraded (docs/RELIABILITY.md)
        self.degraded = degraded
        self.degraded_reason = degraded_reason
        #: per-statement fault-recovery cost (retries, failovers,
        #: backoff, extra messages/bytes) when run on the cluster
        self.recovery = recovery
        #: what execution measured (stage timings, estimated vs. actual
        #: cardinalities, index hits, dist counters) — attached to every
        #: result unless QueryOptions(profile=False); docs/OBSERVABILITY.md
        self.profile = profile

    def attach_profile(
        self, profile: Optional[QueryProfile], tracer: Optional[Tracer]
    ) -> "StatementResult":
        """Close out what execution measured and hang it on the result."""
        if profile is not None:
            profile.kind = self.kind
            profile.rows_out = self.count
            if tracer is not None and tracer.roots:
                profile.trace = tracer.roots[0] if len(tracer.roots) == 1 else None
                if profile.trace is None:
                    # several top-level spans: wrap them under a synthetic root
                    # spanning from the first child's start to the last's end
                    from repro.obs.trace import Span

                    root = Span("statement")
                    root.children = tracer.roots
                    root.start_s = tracer.roots[0].start_s
                    root.end_s = tracer.roots[-1].end_s
                    profile.trace = root
            self.profile = profile
        return self

    def __repr__(self) -> str:
        if self.kind == "table" and self.table is not None:
            return f"StatementResult(table {self.table.name!r}, rows={self.table.num_rows})"
        if self.kind == "subgraph" and self.subgraph is not None:
            return f"StatementResult({self.subgraph!r})"
        return f"StatementResult({self.kind}, {self.message!r})"


# ----------------------------------------------------------------------
# Statement dispatch
# ----------------------------------------------------------------------

def execute_statement(
    db: GraphDB,
    catalog: Catalog,
    stmt: Statement,
    params: Optional[Mapping[str, Any]] = None,
    options: Optional[QueryOptions] = None,
) -> StatementResult:
    """Type-check and execute one statement (parameters substituted first).

    ``options`` is the typed execution API
    (:class:`~repro.obs.QueryOptions`).  Unless ``options.profile`` is
    off, the returned result carries a :class:`~repro.obs.QueryProfile`.
    """
    opts = resolve_options(options)
    profile = QueryProfile() if opts.profile else None
    tracer = Tracer() if (opts.trace and profile is not None) else None
    result = _dispatch_statement(db, catalog, stmt, params, opts, profile, tracer)
    return result.attach_profile(profile, tracer)


def execute_checked(
    db: GraphDB,
    catalog: Catalog,
    checked: "Statement | CheckedGraphSelect",
    options: Optional[QueryOptions] = None,
) -> StatementResult:
    """Execute an already substituted and type-checked statement.

    The plan-cache fast path (:mod:`repro.serve`): on a cache hit the
    parse/substitute/typecheck stages are skipped entirely and the cached
    resolution (a :class:`~repro.graql.typecheck.CheckedGraphSelect` for
    graph queries, the statement itself otherwise) executes directly.
    Only valid while the catalog epoch the statement was checked against
    is current — the cache enforces that.
    """
    opts = resolve_options(options)
    profile = QueryProfile() if opts.profile else None
    tracer = Tracer() if (opts.trace and profile is not None) else None
    stmt = checked.stmt if isinstance(checked, CheckedGraphSelect) else checked
    result = _execute_resolved(db, catalog, stmt, checked, opts, profile, tracer)
    return result.attach_profile(profile, tracer)


def _dispatch_statement(
    db: GraphDB,
    catalog: Catalog,
    stmt: Statement,
    params: Optional[Mapping[str, Any]],
    opts: QueryOptions,
    profile: Optional[QueryProfile],
    tracer: Optional[Tracer],
) -> StatementResult:
    if params:
        with _stage("substitute", profile, tracer):
            stmt = substitute_statement(stmt, params)
    with _stage("typecheck", profile, tracer):
        checked = check_statement(stmt, catalog)
    return _execute_resolved(db, catalog, stmt, checked, opts, profile, tracer)


def _execute_resolved(
    db: GraphDB,
    catalog: Catalog,
    stmt: Statement,
    checked: "Statement | CheckedGraphSelect",
    opts: QueryOptions,
    profile: Optional[QueryProfile],
    tracer: Optional[Tracer],
) -> StatementResult:
    if isinstance(stmt, CreateTable):
        with _stage("execute", profile, tracer):
            db.create_table(stmt.name, stmt.schema)
            catalog.refresh(db)
        return StatementResult("ddl", message=f"created table {stmt.name}")
    if isinstance(stmt, CreateVertex):
        with _stage("execute", profile, tracer):
            vt = db.create_vertex(stmt.name, stmt.key_cols, stmt.table, stmt.where)
            catalog.refresh(db)
        return StatementResult(
            "ddl", message=f"created vertex {stmt.name}", count=vt.num_vertices
        )
    if isinstance(stmt, CreateEdge):
        with _stage("execute", profile, tracer):
            et = db.create_edge(
                stmt.name,
                stmt.source.type_name,
                stmt.target.type_name,
                stmt.source.ref_name,
                stmt.target.ref_name,
                stmt.from_tables,
                stmt.where,
            )
            catalog.refresh(db)
        return StatementResult(
            "ddl", message=f"created edge {stmt.name}", count=et.num_edges
        )
    if isinstance(stmt, CreateIndex):
        with _stage("execute", profile, tracer):
            gi = db.create_attr_index(stmt.name, stmt.target, stmt.attrs)
            catalog.refresh(db)
        return StatementResult(
            "ddl",
            message=f"created index {stmt.name} on {stmt.target}",
            count=gi.num_entries,
        )
    if isinstance(stmt, DropIndex):
        with _stage("execute", profile, tracer):
            db.drop_attr_index(stmt.name)
            catalog.refresh(db)
        return StatementResult("ddl", message=f"dropped index {stmt.name}")
    if isinstance(stmt, Ingest):
        with _stage("execute", profile, tracer):
            n, report = db.ingest(stmt.table, stmt.path)
            catalog.absorb(db, report)
        if profile is not None:
            profile.refresh = report
        return StatementResult(
            "ingest", message=f"ingested {n} rows into {stmt.table}", count=n
        )
    if isinstance(stmt, TableSelect):
        with _stage("execute", profile, tracer):
            table = execute_table_select(db, stmt)
        if stmt.into is not None:
            db.register_result_table(stmt.into.name, table)
            catalog.register_result_table(stmt.into.name, table)
        return StatementResult("table", table=table, count=table.num_rows)
    assert isinstance(checked, CheckedGraphSelect)
    return _execute_graph_select(db, catalog, checked, opts, profile, tracer)


# ----------------------------------------------------------------------
# Graph select execution
# ----------------------------------------------------------------------

def _execute_graph_select(
    db: GraphDB,
    catalog: Catalog,
    checked: CheckedGraphSelect,
    opts: QueryOptions,
    profile: Optional[QueryProfile] = None,
    tracer: Optional[Tracer] = None,
    fx: Optional[FrontierExecutor] = None,
) -> StatementResult:
    """Plan, run and materialise one graph select.

    *fx* is the frontier executor the set strategy sweeps on — the
    cluster passes its partitioned driver; None means a fresh
    single-node :class:`FrontierExecutor`.
    """
    stmt = checked.stmt
    with _stage("plan", profile, tracer):
        plan = plan_graph_select(
            checked, catalog, opts.direction, opts.strategy, opts.hints
        )
    atoms = checked.pattern.atoms()
    ordinals = {id(a): i for i, a in enumerate(atoms)}
    name_map = NameMap()
    for i, a in enumerate(atoms):
        name_map.add_atom(i, a)
    result_name = stmt.into.name if stmt.into is not None else "result"
    if profile is not None:
        profile.strategy = plan.strategy
        profile.atoms = [
            _atom_profile(i, a, plan.plan_for(a)) for i, a in enumerate(atoms)
        ]

    if plan.strategy == "set":
        with _stage("execute", profile, tracer):
            atom_results = _run_set(
                fx if fx is not None else FrontierExecutor(db, profile=profile),
                plan, atoms, ordinals, tracer,
            )
        if profile is not None:
            _fill_set_actuals(profile, atoms, atom_results)
        with _stage("materialize", profile, tracer):
            subgraph = subgraph_from_sets(
                stmt, [(a, atom_results[i]) for i, a in enumerate(atoms)], name_map, result_name
            )
        if stmt.into is not None and stmt.into.kind == INTO_SUBGRAPH:
            db.register_subgraph(subgraph)
            catalog.register_subgraph(
                subgraph.name, {k: len(v) for k, v in subgraph.vertices.items()}
            )
        return StatementResult(
            "subgraph", subgraph=subgraph, count=subgraph.num_vertices, plan=plan
        )

    # binding strategy
    with _stage("execute", profile, tracer):
        branches = _run_bindings(
            db, catalog, checked, plan, ordinals, profile, tracer
        )
    if profile is not None:
        _fill_bindings_actuals(profile, branches)
    if stmt.into is not None and stmt.into.kind == INTO_SUBGRAPH:
        with _stage("materialize", profile, tracer):
            subgraph = Subgraph(result_name)
            for jb in branches:
                subgraph = subgraph.union(
                    subgraph_from_bindings(stmt, jb, name_map, result_name, db),
                    result_name,
                )
        db.register_subgraph(subgraph)
        catalog.register_subgraph(
            subgraph.name, {k: len(v) for k, v in subgraph.vertices.items()}
        )
        return StatementResult(
            "subgraph", subgraph=subgraph, count=subgraph.num_vertices, plan=plan
        )
    if len(branches) != 1:
        raise ExecutionError("'or' composition cannot produce a table result")
    with _stage("materialize", profile, tracer):
        table = table_from_bindings(stmt, branches[0], name_map, result_name, db)
    if stmt.into is not None:
        db.register_result_table(stmt.into.name, table)
        catalog.register_result_table(stmt.into.name, table)
    return StatementResult("table", table=table, count=table.num_rows, plan=plan)


# ----------------------------------------------------------------------
# Profile construction
# ----------------------------------------------------------------------

def _step_detail(step) -> str:
    """A compact, deterministic one-token description of a step."""
    if isinstance(step, RVertexStep):
        if step.is_variant:
            return "any[" + "|".join(step.types) + "]"
        return step.types[0] if step.types else "?"
    if isinstance(step, REdgeStep):
        arrow = "-->" if step.direction == "out" else "<--"
        return arrow + (",".join(step.names) if step.names else "[]")
    assert isinstance(step, RRegex)
    op = {"star": "*", "plus": "+"}.get(step.op, f"{{{step.count}}}")
    return f"regex({len(step.pairs)}){op}"


def _atom_profile(index: int, atom: RAtom, ap: AtomPlan) -> AtomProfile:
    access = ap.access
    out = AtomProfile(
        index, ap.direction, ap.cost_forward, ap.cost_backward, ap.forced,
        access=access.describe() if access is not None else None,
        access_est=access.est_rows if access is not None else None,
        access_forced=access.forced if access is not None else None,
    )
    for i, step in enumerate(atom.steps):
        if isinstance(step, RVertexStep):
            kind = "vertex"
        elif isinstance(step, REdgeStep):
            kind = "edge"
        else:
            kind = "regex"
        out.steps.append(
            StepProfile(
                i,
                kind,
                _step_detail(step),
                est_forward=ap.step_est_forward.get(i),
                est_backward=ap.step_est_backward.get(i),
            )
        )
    return out


def _fill_set_actuals(
    profile: QueryProfile, atoms: list, atom_results: dict[int, AtomSets]
) -> None:
    """Actual per-step cardinalities from backward-culled set results."""
    for i, atom in enumerate(atoms):
        sets = atom_results.get(i)
        if sets is None or i >= len(profile.atoms):
            continue
        for sp in profile.atoms[i].steps:
            source = (
                sets.vertex_sets if sp.kind == "vertex" else sets.edge_sets
            )
            sp.actual = int(
                sum(len(v) for v in source.get(sp.index, {}).values())
            )


def _fill_bindings_actuals(
    profile: QueryProfile, branches: list["JoinedBindings"]
) -> None:
    """Actual per-step distinct cardinalities from enumerated paths."""
    acc: dict[tuple[int, int, str], list[np.ndarray]] = {}
    for jb in branches:
        for (aord, kind, pos), arr in jb.columns.items():
            if kind in ("v", "e"):
                acc.setdefault((aord, pos, kind), []).append(arr)
    for (aord, pos, _kind), arrs in acc.items():
        if aord < len(profile.atoms) and pos < len(profile.atoms[aord].steps):
            sp = profile.atoms[aord].steps[pos]
            joined = arrs[0] if len(arrs) == 1 else np.concatenate(arrs)
            # the sort-based dedup is cheap at every width
            sp.actual = len(idsets.unique(joined))


def _run_set(
    fx: FrontierExecutor, plan, atoms, ordinals, tracer=None
) -> dict[int, AtomSets]:
    """Run all atoms on *fx* under set semantics with and-composition
    refinement."""
    results: dict[int, AtomSets] = {}

    def run_all():
        for a in atoms:
            ap = plan.plan_for(a)
            direction, access = ap.direction, ap.access
            if tracer is not None:
                with tracer.span(
                    f"atom {ordinals[id(a)]}", direction=direction, strategy="set"
                ):
                    results[ordinals[id(a)]] = fx.run_atom(a, direction, access)
            else:
                results[ordinals[id(a)]] = fx.run_atom(a, direction, access)

    run_all()
    # refinement: intersect each label's defining set with every
    # referencing step's final set; rerun until stable
    pairs = _label_def_ref_pairs(atoms, ordinals)
    for _ in range(MAX_REFINE_ROUNDS):
        changed = False
        for label, (d_ord, d_pos), refs in pairs:
            def_sets = results[d_ord].vertex_sets.get(d_pos, {})
            refined = def_sets
            for r_ord, r_pos in refs:
                ref_sets = results[r_ord].vertex_sets.get(r_pos, {})
                refined = {
                    t: idsets.intersect(v, ref_sets.get(t, np.empty(0, dtype=np.int64)))
                    for t, v in refined.items()
                }
            refined = {t: v for t, v in refined.items() if len(v)}
            if _sizes(refined) != _sizes(def_sets):
                fx.pin_labels[label] = refined
                changed = True
        if not changed:
            break
        fx.label_env.clear()
        run_all()
    return results


def _sizes(sets) -> dict[str, int]:
    return {t: len(v) for t, v in sets.items()}


def _label_def_ref_pairs(atoms, ordinals):
    """[(label, (def_ord, def_pos), [(ref_ord, ref_pos), ...])]"""
    defs: dict[str, tuple[int, int]] = {}
    refs: dict[str, list[tuple[int, int]]] = {}
    for a in atoms:
        o = ordinals[id(a)]
        for pos, s in enumerate(a.steps):
            if isinstance(s, RVertexStep):
                if s.label is not None:
                    defs[s.label.name] = (o, pos)
                if s.label_ref is not None:
                    refs.setdefault(s.label_ref, []).append((o, pos))
    return [
        (label, loc, refs[label]) for label, loc in defs.items() if label in refs
    ]


def _run_bindings(
    db, catalog, checked, plan, ordinals, profile=None, tracer=None
) -> list[JoinedBindings]:
    """Run the composition tree under path enumeration.

    Returns one JoinedBindings per or-branch (a single element when the
    pattern has no 'or').
    """
    fx = FrontierExecutor(db, profile=profile)
    bex = BindingExecutor(db, catalog, frontier=fx, profile=profile)

    def run(node) -> list[JoinedBindings]:
        if isinstance(node, RAtom):
            o = ordinals[id(node)]
            ap = plan.plan_for(node)
            direction, access = ap.direction, ap.access
            if tracer is not None:
                with tracer.span(
                    f"atom {o}", direction=direction, strategy="bindings"
                ):
                    res = bex.run_atom(node, direction, access=access)
            else:
                res = bex.run_atom(node, direction, access=access)
            return [JoinedBindings.from_result(o, res, node)]
        op, left, right = node
        lbs = run(left)
        rbs = run(right)
        if op == "or":
            return lbs + rbs
        out = []
        for lb in lbs:
            for rb in rbs:
                pairs = _shared_label_pairs(lb, rb)
                out.append(lb.join(rb, pairs))
        return out

    return run(checked.pattern.root)


def _shared_label_pairs(lb: JoinedBindings, rb: JoinedBindings):
    """Join keys: (left def column, right ref column) per shared label."""
    left_defs: dict[str, tuple[int, str, int]] = {}
    for aord, steps in lb._steps.items():
        for pos, s in enumerate(steps):
            if isinstance(s, RVertexStep) and s.label is not None:
                left_defs[s.label.name] = (aord, "v", pos)
    pairs = []
    for aord, steps in rb._steps.items():
        for pos, s in enumerate(steps):
            if isinstance(s, RVertexStep) and s.label_ref in left_defs:
                pairs.append((left_defs[s.label_ref], (aord, "v", pos)))
    return pairs
