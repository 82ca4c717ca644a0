"""EXPLAIN: structured query plans with text and JSON renderings.

What the Section III-B machinery decided for a statement — the chosen
execution strategy, each atom's sweep direction with both cost
estimates, the anchor's access path (index-seek vs scan), per-step
candidate types with estimated cardinalities and selectivities, and —
for relational statements — the operator pipeline.

``Database.explain`` returns an :class:`ExplainReport`: a frozen tree of
:class:`PlanNode` objects.  ``report.to_text()`` (and ``str(report)``)
is the classic indented rendering; ``report.to_json()`` is the
machine-readable schema pinned by ``tests/query/test_explain.py``.  The
CLI and REPL render from the same object, so the two views can never
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.catalog import Catalog, estimate_selectivity
from repro.graql.ast import (
    AggItem,
    AttrItem,
    CreateEdge,
    CreateIndex,
    CreateTable,
    CreateVertex,
    DropIndex,
    GraphSelect,
    Ingest,
    StarItem,
    Statement,
    TableSelect,
)
from repro.graql.params import substitute_statement
from repro.graql.pretty import pretty_expr
from repro.graql.typecheck import (
    CheckedGraphSelect,
    RAtom,
    REdgeStep,
    RRegex,
    RVertexStep,
    check_statement,
)
from repro.query.planner import plan_graph_select


# ----------------------------------------------------------------------
# The structured plan tree
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlanNode:
    """One node of an explain tree.

    ``title`` is the node's rendered line (indentation is structural:
    each nesting level adds two spaces); ``attrs`` carries the
    machine-readable facts behind the line — costs, estimates, access
    paths — for ``to_json()``.
    """

    kind: str
    title: str
    attrs: Mapping[str, Any] = field(default_factory=dict)
    children: tuple["PlanNode", ...] = ()

    def to_text(self, depth: int = 0) -> str:
        lines = ["  " * depth + self.title]
        lines.extend(c.to_text(depth + 1) for c in self.children)
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "title": self.title,
            "attrs": dict(self.attrs),
            "children": [c.to_json() for c in self.children],
        }

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class StatementPlan:
    """One statement's plan, tagged with its schedule wave."""

    index: int
    wave: int
    root: PlanNode
    #: measured :class:`~repro.obs.QueryProfile` (analyze mode only)
    profile: Optional[Any] = None

    def to_json(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "wave": self.wave,
            "plan": self.root.to_json(),
            "profile": (
                self.profile.to_dict() if self.profile is not None else None
            ),
        }


@dataclass(frozen=True)
class ExplainReport:
    """The full explain result for a script.

    ``to_text()`` / ``str()`` reproduce the classic block rendering
    (statement plans, dependence schedule, analyze profiles);
    ``to_json()`` is the stable machine-readable schema.  ``in`` checks
    delegate to the text, so existing string-style assertions keep
    working against the structured object.
    """

    mode: str  # 'plan' | 'analyze'
    statements: tuple[StatementPlan, ...]
    num_waves: int
    max_parallelism: int

    def to_text(self) -> str:
        blocks = []
        for sp in self.statements:
            blocks.append(
                f"-- statement {sp.index} (wave {sp.wave}) " + "-" * 20
                + f"\n{sp.root.to_text()}"
            )
        blocks.append(
            f"-- schedule: {self.num_waves} wave(s), "
            f"max parallelism {self.max_parallelism}"
        )
        if self.mode == "analyze":
            for sp in self.statements:
                blocks.append(f"-- analyze statement {sp.index} " + "-" * 18)
                blocks.append(
                    sp.profile.render()
                    if sp.profile is not None
                    else "(no profile)"
                )
        return "\n".join(blocks)

    def to_json(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "statements": [sp.to_json() for sp in self.statements],
            "schedule": {
                "num_waves": self.num_waves,
                "max_parallelism": self.max_parallelism,
            },
        }

    def __str__(self) -> str:
        return self.to_text()

    def __contains__(self, item: str) -> bool:
        return item in self.to_text()


# ----------------------------------------------------------------------
# Per-statement plan builders
# ----------------------------------------------------------------------

def plan_statement(
    stmt: Statement,
    catalog: Catalog,
    params: Optional[Mapping[str, Any]] = None,
    hints=None,
) -> PlanNode:
    """One statement's plan as a :class:`PlanNode` tree."""
    if params:
        stmt = substitute_statement(stmt, params)
    if isinstance(stmt, CreateTable):
        return PlanNode(
            "create-table",
            f"CREATE TABLE {stmt.name} ({len(stmt.schema)} columns)",
            {"name": stmt.name, "columns": len(stmt.schema)},
        )
    if isinstance(stmt, CreateVertex):
        return PlanNode(
            "create-vertex",
            f"CREATE VERTEX {stmt.name} <- view over {stmt.table} "
            f"(key: {', '.join(stmt.key_cols)})",
            {"name": stmt.name, "table": stmt.table, "key": list(stmt.key_cols)},
        )
    if isinstance(stmt, CreateEdge):
        title = (
            f"CREATE EDGE {stmt.name}: {stmt.source.type_name} -> "
            f"{stmt.target.type_name}"
            + (f" via {', '.join(stmt.from_tables)}" if stmt.from_tables else "")
        )
        return PlanNode(
            "create-edge",
            title,
            {
                "name": stmt.name,
                "source": stmt.source.type_name,
                "target": stmt.target.type_name,
            },
        )
    if isinstance(stmt, CreateIndex):
        return PlanNode(
            "create-index",
            f"CREATE INDEX {stmt.name} on {stmt.target}"
            f"({', '.join(stmt.attrs)}) [sorted attribute index]",
            {"name": stmt.name, "target": stmt.target, "attrs": list(stmt.attrs)},
        )
    if isinstance(stmt, DropIndex):
        return PlanNode(
            "drop-index", f"DROP INDEX {stmt.name}", {"name": stmt.name}
        )
    if isinstance(stmt, Ingest):
        return PlanNode(
            "ingest",
            f"INGEST {stmt.path} -> {stmt.table} (atomic view rebuild)",
            {"path": stmt.path, "table": stmt.table},
        )
    if isinstance(stmt, TableSelect):
        check_statement(stmt, catalog)  # surface static errors in explain
        return _plan_table_select(stmt, catalog)
    assert isinstance(stmt, GraphSelect)
    checked = check_statement(stmt, catalog)
    assert isinstance(checked, CheckedGraphSelect)
    return _plan_graph_select(checked, catalog, hints)


def _plan_table_select(stmt: TableSelect, catalog: Catalog) -> PlanNode:
    children = []
    meta = catalog.tables.get(stmt.source)
    if meta is not None:
        children.append(
            PlanNode(
                "scan",
                f"scan {stmt.source} ({meta.num_rows} rows)",
                {"table": stmt.source, "rows": meta.num_rows},
            )
        )
    if stmt.where is not None:
        sel = estimate_selectivity(stmt.where)
        children.append(
            PlanNode(
                "filter",
                f"filter {pretty_expr(stmt.where)} (est. selectivity {sel:.3f})",
                {"predicate": pretty_expr(stmt.where), "selectivity": sel},
            )
        )
    if stmt.group_by or any(isinstance(i, AggItem) for i in stmt.items):
        aggs = [
            f"{i.func}({i.arg or '*'})"
            for i in stmt.items
            if isinstance(i, AggItem)
        ]
        keys = ", ".join(stmt.group_by) or "<all rows>"
        children.append(
            PlanNode(
                "aggregate",
                f"aggregate [{', '.join(aggs)}] group by {keys}",
                {"aggregates": aggs, "group_by": list(stmt.group_by)},
            )
        )
    else:
        cols = [
            i.ref.name for i in stmt.items if isinstance(i, AttrItem)
        ] or ["*"]
        children.append(
            PlanNode("project", f"project [{', '.join(cols)}]", {"columns": cols})
        )
    if stmt.distinct:
        children.append(PlanNode("distinct", "distinct"))
    if stmt.order_by:
        keys = ", ".join(
            f"{k.column} {'asc' if k.ascending else 'desc'}" for k in stmt.order_by
        )
        children.append(PlanNode("sort", f"sort by {keys}"))
    if stmt.top is not None:
        children.append(PlanNode("top", f"top {stmt.top}", {"n": stmt.top}))
    if stmt.into is not None:
        children.append(
            PlanNode(
                "into",
                f"-> into table {stmt.into.name}",
                {"kind": "table", "name": stmt.into.name},
            )
        )
    return PlanNode(
        "table-select",
        f"TABLE SELECT from {stmt.source}",
        {"source": stmt.source},
        tuple(children),
    )


def _plan_graph_select(
    checked: CheckedGraphSelect, catalog: Catalog, hints=None
) -> PlanNode:
    stmt = checked.stmt
    plan = plan_graph_select(checked, catalog, hints=hints)
    children = []
    if checked.pattern.needs_bindings:
        reasons = []
        if any(
            s.label is not None and s.label.kind == "foreach"
            for a in checked.pattern.atoms()
            for s in a.steps
            if isinstance(s, RVertexStep)
        ):
            reasons.append("foreach label")
        if any(
            s.cross_refs
            for a in checked.pattern.atoms()
            for s in a.steps
            if isinstance(s, RVertexStep)
        ):
            reasons.append("cross-step condition")
        if stmt.into is None or stmt.into.kind == "table":
            reasons.append("table output (row per path)")
        children.append(
            PlanNode(
                "bindings-reasons",
                f"bindings needed: {', '.join(reasons)}",
                {"reasons": reasons},
            )
        )
    for n, atom in enumerate(checked.pattern.atoms()):
        ap = plan.plan_for(atom)
        forced = f", forced by {ap.forced}" if ap.forced else ""
        steps = []
        access = ap.access
        if access is not None:
            steps.append(
                PlanNode(
                    "access",
                    f"access: {access.describe()} est={access.est_rows:.1f}"
                    + (f" (forced by {access.forced})" if access.forced else ""),
                    {
                        "path": access.describe(),
                        "kind": access.kind,
                        "index": access.index,
                        "est_rows": access.est_rows,
                        "forced": access.forced,
                    },
                )
            )
        for pos, step in enumerate(atom.steps):
            steps.append(_plan_step(step, catalog, ap, pos))
        children.append(
            PlanNode(
                "atom",
                f"atom {n}: sweep {ap.direction} "
                f"(cost fwd={ap.cost_forward:.1f}, bwd={ap.cost_backward:.1f}"
                f"{forced})",
                {
                    "index": n,
                    "direction": ap.direction,
                    "cost_forward": ap.cost_forward,
                    "cost_backward": ap.cost_backward,
                    "forced": ap.forced,
                },
                tuple(steps),
            )
        )
    if stmt.into is not None:
        children.append(
            PlanNode(
                "into",
                f"-> into {stmt.into.kind} {stmt.into.name}",
                {"kind": stmt.into.kind, "name": stmt.into.name},
            )
        )
    return PlanNode(
        "graph-select",
        f"GRAPH SELECT (strategy: {plan.strategy})",
        {"strategy": plan.strategy},
        tuple(children),
    )


def _both_direction_est(ap, pos) -> str:
    """Both directions' frontier estimates for one step position.

    Variant and regex steps have no single catalog cardinality to show,
    so the plan's own per-direction estimates are the only way to see
    what each sweep order would cost through them — show both, not just
    the winner's.
    """
    if ap is None or pos is None:
        return ""
    ef = ap.step_est_forward.get(pos)
    eb = ap.step_est_backward.get(pos)
    if ef is None and eb is None:
        return ""
    ef_txt = f"{ef:.1f}" if ef is not None else "?"
    eb_txt = f"{eb:.1f}" if eb is not None else "?"
    return f" (est fwd={ef_txt}, bwd={eb_txt})"


def _plan_step(step, catalog: Catalog, ap=None, pos=None) -> PlanNode:
    attrs: dict[str, Any] = {"position": pos}
    if isinstance(step, RVertexStep):
        parts = []
        if step.label is not None:
            parts.append(f"{step.label.kind} {step.label.name}:")
        if step.is_variant:
            parts.append(
                f"[any of {len(step.types)} vertex types]"
                + _both_direction_est(ap, pos)
            )
        else:
            t = step.types[0] if step.types else "?"
            meta = catalog.vertices.get(t)
            card = meta.num_vertices if meta else "?"
            parts.append(f"vertex {t} ({card} instances)")
        if step.seed is not None:
            parts.append(f"seeded by subgraph {step.seed}")
        if step.label_ref is not None:
            parts.append(f"member of label {step.label_ref}")
        if step.cond is not None:
            distincts = (
                catalog.vertices[step.types[0]].distinct_counts
                if len(step.types) == 1 and step.types[0] in catalog.vertices
                else None
            )
            sel = estimate_selectivity(step.cond, distincts)
            parts.append(
                f"where {pretty_expr(step.cond)} (est. sel {sel:.3f})"
            )
            attrs["selectivity"] = sel
        attrs["types"] = list(step.types)
        return PlanNode("vertex-step", " ".join(parts), attrs)
    if isinstance(step, REdgeStep):
        arrow = "-->" if step.direction == "out" else "<--"
        names = ", ".join(step.names) if step.names else "[]"
        extras = ""
        if step.cond is not None:
            extras = f" where {pretty_expr(step.cond)}"
        attrs["names"] = list(step.names)
        attrs["direction"] = step.direction
        return PlanNode("edge-step", f"edge {arrow} {names}{extras}", attrs)
    assert isinstance(step, RRegex)
    op = {"star": "*", "plus": "+"}.get(step.op, f"{{{step.count}}}")
    attrs["op"] = step.op
    return PlanNode(
        "regex-step",
        f"regex group ({len(step.pairs)} pair(s)){op} [fixpoint closure]"
        + _both_direction_est(ap, pos),
        attrs,
    )


# ----------------------------------------------------------------------
# Script-level reports
# ----------------------------------------------------------------------

def explain_report(
    source: str,
    catalog: Catalog,
    params: Optional[Mapping[str, Any]] = None,
    hints=None,
) -> ExplainReport:
    """Plan every statement of a script, plus its dependence schedule."""
    from repro.engine.scheduler import build_schedule
    from repro.graql.parser import parse_script
    from repro.graql.typecheck import _apply_ddl_to_catalog

    script = parse_script(source)
    schedule = build_schedule(script, catalog)
    scratch = catalog.scratch_copy()
    plans = []
    for i, stmt in enumerate(script.statements):
        wave = next(w for w, idx in enumerate(schedule.waves) if i in idx)
        root = plan_statement(stmt, scratch, params, hints)
        plans.append(StatementPlan(i, wave, root))
        if params:
            stmt = substitute_statement(stmt, params)
        _apply_ddl_to_catalog(stmt, scratch)
    return ExplainReport(
        "plan", tuple(plans), schedule.num_waves, schedule.max_parallelism
    )


def explain_analyze(
    database,
    source: str,
    params: Optional[Mapping[str, Any]] = None,
    options=None,
) -> ExplainReport:
    """EXPLAIN ANALYZE: the static plan, then the measured reality.

    Executes the script on the given :class:`~repro.engine.Database`
    (side effects included — DDL and ``into`` registrations happen) and
    attaches each statement's :class:`~repro.obs.QueryProfile` to its
    :class:`StatementPlan`, so estimated frontier sizes sit next to the
    cardinalities the executors actually produced.
    """
    from dataclasses import replace as dc_replace

    from repro.obs.options import DEFAULT_OPTIONS

    opts = options if options is not None else DEFAULT_OPTIONS
    report = explain_report(source, database.catalog, params, opts.hints)
    if not opts.profile:
        opts = dc_replace(opts, profile=True)
    results = database.execute(source, params, opts)
    profiled = tuple(
        dc_replace(sp, profile=r.profile)
        for sp, r in zip(report.statements, results)
    )
    return ExplainReport(
        "analyze", profiled, report.num_waves, report.max_parallelism
    )
