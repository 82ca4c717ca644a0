"""Lint passes of the GraQL semantic analyzer.

Each pass takes the parsed script (plus, where useful, the collect-mode
typecheck results and the catalog) and returns warnings — ``GQW1xx``
diagnostics for statements that will *execute* but are probably wrong:
predicates that can never hold, labels nothing reads, results that get
overwritten unread, and traversals the catalog statistics say will blow
up.  Passes never raise; a statement too broken to lint is skipped (its
errors were already collected by the typechecker).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import Diagnostic
from repro.catalog import Catalog
from repro.errors import GraQLError
from repro.graql.ast import (
    AttrItem,
    CreateEdge,
    CreateVertex,
    EdgeStep,
    GraphSelect,
    Ingest,
    PathAtom,
    RegexGroup,
    Script,
    StepItem,
    TableSelect,
    VertexStep,
    span_of,
)
from repro.graql.typecheck import CheckedGraphSelect, RRegex, RVertexStep
from repro.storage.expr import (
    COMPARISON_OPS,
    BinOp,
    ColRef,
    Const,
    col_refs,
    const_fold,
    predicate_feasibility,
)

#: a variant ``[ ]`` step still matching more than this many vertex types
#: after narrowing gets a GQW131
VARIANT_FANOUT_THRESHOLD = 3

#: unbounded regex whose per-unrolling frontier growth exceeds this gets
#: a GQW130 (>1 means each unrolling visits more vertices than the last)
EXPANSION_THRESHOLD = 1.5


def _statement_conditions(stmt) -> list:
    """All condition expressions of a statement, with a best-effort span."""
    conds = []
    if isinstance(stmt, (CreateVertex, CreateEdge, TableSelect)):
        if stmt.where is not None:
            conds.append(stmt.where)
    elif isinstance(stmt, GraphSelect):
        def walk(node):
            if isinstance(node, PathAtom):
                for s in node.steps:
                    if isinstance(s, (VertexStep, EdgeStep)):
                        if s.cond is not None:
                            conds.append(s.cond)
                    elif isinstance(s, RegexGroup):
                        for e, v in s.pairs:
                            if e.cond is not None:
                                conds.append(e.cond)
                            if v.cond is not None:
                                conds.append(v.cond)
            else:
                walk(node.left)
                walk(node.right)

        walk(stmt.pattern)
    return conds


def _trivially_satisfiable(cond) -> bool:
    """A single column-vs-constant (or column-vs-column) comparison can
    never fold to a constant nor have an empty interval, so the fold and
    interval machinery would find nothing — skip it.  This is the shape
    of almost every real-world step condition."""
    if not (isinstance(cond, BinOp) and cond.op in COMPARISON_OPS):
        return False
    if isinstance(cond.left, Const) and isinstance(cond.right, Const):
        return False
    return isinstance(cond.left, (ColRef, Const)) and isinstance(
        cond.right, (ColRef, Const)
    )


def predicate_pass(script: Script, **_kw) -> list[Diagnostic]:
    """GQW101/GQW102: constant-folding + interval analysis on conditions.

    A condition that folds to false or whose per-column intervals are
    empty can never hold (the step matches nothing); one that folds to
    true filters nothing.  Both are almost certainly author mistakes.
    """
    out: list[Diagnostic] = []
    for i, stmt in enumerate(script.statements):
        for cond in _statement_conditions(stmt):
            if _trivially_satisfiable(cond):
                continue
            span = span_of(cond) or span_of(stmt)
            feasible = predicate_feasibility(cond)
            if feasible is False:
                out.append(
                    Diagnostic(
                        "GQW101",
                        "condition is unsatisfiable — it can never hold",
                        span,
                        statement_index=i,
                    )
                )
                continue
            folded = const_fold(cond)
            # comparisons fold to numpy-ish truthy scalars, not bool True
            if isinstance(folded, Const) and bool(folded.value):
                out.append(
                    Diagnostic(
                        "GQW102",
                        "condition is always true — it filters nothing",
                        span,
                        statement_index=i,
                    )
                )
    return out


def _label_defs_and_uses(stmt: GraphSelect):
    """(defined labels with span, names used anywhere in the statement)."""
    defs: list[tuple[str, object]] = []
    uses: set[str] = set()
    conds: list = []  # qualifier extraction deferred until a def is seen

    def walk(node):
        if isinstance(node, PathAtom):
            for s in node.steps:
                if isinstance(s, RegexGroup):
                    pairs = s.pairs
                    steps = [x for pair in pairs for x in pair]
                else:
                    steps = [s]
                for step in steps:
                    if step.label is not None:
                        defs.append((step.label.name, span_of(step) or span_of(stmt)))
                    if isinstance(step, VertexStep) and step.name is not None:
                        uses.add(step.name)  # may re-match an earlier label
                    if isinstance(step, EdgeStep) and step.name is not None:
                        uses.add(step.name)
                    if step.cond is not None:
                        conds.append(step.cond)
        else:
            walk(node.left)
            walk(node.right)

    walk(stmt.pattern)
    if not defs:
        return defs, uses  # no labels: the condition walks would be wasted
    for cond in conds:
        for ref in col_refs(cond):
            if ref.qualifier is not None:
                uses.add(ref.qualifier)
    for item in stmt.items:
        if isinstance(item, StepItem):
            uses.add(item.name)
        elif isinstance(item, AttrItem) and item.ref.qualifier is not None:
            uses.add(item.ref.qualifier)
    return defs, uses


def label_pass(script: Script, **_kw) -> list[Diagnostic]:
    """GQW110 unused labels / GQW111 labels shadowing earlier statements.

    A ``def``/``foreach`` label exists to be referenced — by a later step
    re-matching it, a cross-step condition, or the select list.  A label
    nothing references is noise (or a typo'd reference elsewhere).  Labels
    are scoped per statement, so reusing a name across statements is
    legal but shadows the earlier meaning for human readers.
    """
    out: list[Diagnostic] = []
    seen_script_labels: dict[str, int] = {}
    for i, stmt in enumerate(script.statements):
        if not isinstance(stmt, GraphSelect):
            continue
        defs, uses = _label_defs_and_uses(stmt)
        for name, span in defs:
            if name not in uses:
                out.append(
                    Diagnostic(
                        "GQW110",
                        f"label {name!r} is defined but never used",
                        span,
                        statement_index=i,
                    )
                )
            if name in seen_script_labels:
                out.append(
                    Diagnostic(
                        "GQW111",
                        f"label {name!r} shadows a label of statement "
                        f"{seen_script_labels[name] + 1}",
                        span,
                        statement_index=i,
                    )
                )
        for name, _span in defs:
            seen_script_labels.setdefault(name, i)
    return out


def dead_statement_pass(
    script: Script, catalog: Optional[Catalog] = None, **_kw
) -> list[Diagnostic]:
    """GQW120: a statement whose every written object is overwritten by a
    later statement before anything reads it.

    Uses the scheduler's dependence analysis (Section III-B1 reads/writes
    sets), so the notion of "reads" matches exactly what execution
    ordering uses — including transitive view/table dependencies.
    """
    # cheap syntactic pre-filter: a result can only be dead if some
    # object is written twice, so skip the scheduler's dependence
    # analysis (the expensive part) for the common all-distinct case
    targets = []
    for s in script.statements:
        if isinstance(s, (GraphSelect, TableSelect)) and s.into is not None:
            targets.append((s.into.kind, s.into.name))
        elif isinstance(s, Ingest):
            targets.append(("table", s.table))
    if len(targets) == len(set(targets)):
        return []

    from repro.engine.scheduler import statement_effects

    try:
        effects = statement_effects(script, catalog)
    except GraQLError:
        return []  # a broken statement already produced errors
    out: list[Diagnostic] = []
    n = len(effects)
    for i, (_reads, writes) in enumerate(effects):
        stmt = script.statements[i]
        # only results (into table/subgraph) can be dead; DDL and ingest
        # build durable objects, selects without 'into' print to the user
        if not isinstance(stmt, (GraphSelect, TableSelect)) or stmt.into is None:
            continue
        if not writes:
            continue
        all_clobbered = True
        for obj in writes:
            clobbered = False
            for j in range(i + 1, n):
                if obj in effects[j][0]:  # read first: live
                    break
                if obj in effects[j][1]:  # overwritten unread: dead
                    clobbered = True
                    break
            if not clobbered:
                all_clobbered = False
                break
        if all_clobbered:
            names = ", ".join(sorted(f"{k} {v!r}" for k, v in writes))
            out.append(
                Diagnostic(
                    "GQW120",
                    f"statement {i + 1} is dead: {names} "
                    f"overwritten before any statement reads it",
                    span_of(stmt),
                    statement_index=i,
                )
            )
    return out


def blowup_pass(
    script: Script,
    catalog: Optional[Catalog] = None,
    checked: Optional[list] = None,
    **_kw,
) -> list[Diagnostic]:
    """GQW130/GQW131: catalog-stats-driven traversal blowup warnings.

    Works on the *resolved* pattern (typed candidate sets after neighbor
    narrowing) so the fanout estimates use the same statistics the
    planner does: ``DegreeStats.expansion_factor`` per edge type and
    per-type instance counts for variant steps.
    """
    if catalog is None or checked is None:
        return []
    out: list[Diagnostic] = []
    for i, result in enumerate(checked):
        if not isinstance(result, CheckedGraphSelect):
            continue
        stmt = script.statements[i]
        span = span_of(stmt)
        for atom in result.pattern.atoms():
            for s in atom.steps:
                if isinstance(s, RRegex) and s.op in ("star", "plus"):
                    # per-unrolling growth = product over the group's edge
                    # steps; variant edges take the worst candidate
                    growth = 1.0
                    known = False
                    for e, _v in s.pairs:
                        factors = [
                            catalog.edges[name].degree_stats.expansion_factor(
                                e.direction == "out"
                            )
                            for name in e.names
                            if name in catalog.edges
                            and catalog.edges[name].num_edges > 0
                        ]
                        if factors:
                            known = True
                            growth *= max(factors)
                    if known and growth > EXPANSION_THRESHOLD:
                        out.append(
                            Diagnostic(
                                "GQW130",
                                f"unbounded '{'*' if s.op == 'star' else '+'}' "
                                f"repetition expands the frontier ~{growth:.1f}x "
                                f"per unrolling",
                                span,
                                statement_index=i,
                            )
                        )
                elif isinstance(s, RVertexStep) and s.is_variant:
                    if len(s.types) > VARIANT_FANOUT_THRESHOLD:
                        out.append(
                            Diagnostic(
                                "GQW131",
                                f"variant step '[ ]' still matches "
                                f"{len(s.types)} vertex types after narrowing",
                                span,
                                statement_index=i,
                            )
                        )
    return out


#: the pass pipeline, in report order
ALL_PASSES = (predicate_pass, label_pass, dead_statement_pass, blowup_pass)
