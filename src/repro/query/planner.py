"""Dynamic query planning (paper Section III-B).

    "The existence of both forward and reverse indices enables significant
    flexibility on how to execute a path query: the execution is not
    restricted to the forward-looking lexical representation of the path
    query in GraQL."

For each linear path (atom) the planner estimates the cost of sweeping the
steps left-to-right versus right-to-left.  The cost model is the classic
frontier-size recurrence: starting from the anchor step's estimated
cardinality (type cardinality x condition selectivity), each edge step
multiplies by the catalog's average degree in the traversal direction and
each vertex step filters by its selectivity.  A sweep costs every
frontier it builds — the edges an expansion scans as well as the
vertices that survive the next filter — so fanning out to many edges
and filtering them back down is not cheap.  The cheaper direction wins
unless ``force_direction`` pins one: that is how
``QueryOptions.direction`` reaches the planner (the S3B ablation
benchmark uses it to measure what the reverse index buys).

An ``and`` of atoms is a join of path atoms, run in the order of
``RPattern.atoms()``; the planner costs them in that order too.  A label
an earlier atom binds is a known, small input to the next: the executor
pins a step that re-matches it (``o --vendor--> ...``) to the label's
set, so the planner caps that step's estimate at the label's estimated
set size instead of pricing a full type scan.

Strategy choice: patterns that need per-path bindings (``foreach`` labels,
cross-step attribute references, table outputs) run the binding-join
executor; pure structural queries with subgraph output run the cheaper
set-frontier executor.
"""

from __future__ import annotations

import math
from typing import Any, Literal, Optional

from repro.catalog import Catalog, estimate_selectivity
from repro.catalog.stats import _literal_comparison_ref
from repro.dtypes import parse_date
from repro.dtypes.datatypes import KIND_DATE, KIND_NUMERIC, KIND_STRING
from repro.errors import PlanError
from repro.graql.ast import DIR_OUT, GraphSelect, INTO_SUBGRAPH
from repro.graql.typecheck import (
    CheckedGraphSelect,
    RAtom,
    REdgeStep,
    RPattern,
    RRegex,
    RVertexStep,
)
from repro.obs.options import Hints
from repro.storage.expr import BinOp, ColRef, Expr, predicate_feasibility

Direction = Literal["forward", "backward"]
Strategy = Literal["set", "bindings"]

#: cost charged per regex-group iteration (treated as one variant hop)
_REGEX_HOP_PENALTY = 2.0

#: per-row cost of the vectorized anchor scan relative to one unit of
#: downstream frontier work (a scan touches every row but with SIMD-wide
#: comparisons, so a row costs a fraction of a frontier expansion)
_SCAN_WEIGHT = 0.25


class AccessPath:
    """How an atom's anchor step produces its first candidate set.

    ``"scan"`` is the baseline: enumerate every vertex of the anchor's
    type(s) and filter with the vectorized condition kernel.
    ``"index-seek"`` narrows the candidates first through a secondary
    :class:`~repro.storage.indexes.AttributeIndex` (``eq_values`` is the
    equality prefix, ``range_spec`` an optional ``(low, high, low_ex,
    high_ex)`` bound on the next index column); the full step condition
    is still applied afterwards, so a seek can only prune candidates —
    never change the result set.  ``est_rows`` / ``cost`` come from the
    column statistics and drive the seek-vs-scan decision.
    """

    __slots__ = (
        "kind", "index", "type_name", "eq_values", "range_spec",
        "est_rows", "cost", "forced",
    )

    def __init__(
        self,
        kind: str,
        index: Optional[str],
        type_name: Optional[str],
        eq_values: tuple,
        range_spec: Optional[tuple],
        est_rows: float,
        cost: float,
        forced: Optional[str] = None,
    ) -> None:
        self.kind = kind  # 'scan' | 'index-seek'
        self.index = index
        self.type_name = type_name
        self.eq_values = eq_values
        self.range_spec = range_spec
        self.est_rows = est_rows
        self.cost = cost
        #: why the cost model was overridden (None | 'hint')
        self.forced = forced

    def describe(self) -> str:
        """Short form used by EXPLAIN / profiles: ``index-seek(I)``."""
        if self.kind == "index-seek":
            return f"index-seek({self.index})"
        return "scan"

    def __repr__(self) -> str:
        return (
            f"AccessPath({self.describe()}, est={self.est_rows:.1f}, "
            f"cost={self.cost:.1f})"
        )


def _conjuncts(cond) -> list:
    """Flatten a condition's top-level ``and`` tree into conjuncts."""
    if isinstance(cond, BinOp) and cond.op == "and":
        return _conjuncts(cond.left) + _conjuncts(cond.right)
    return [cond]


def _cond_attrs(cond) -> set[str]:
    """Every attribute a condition references."""
    out: set[str] = set()
    stack = [cond]
    while stack:
        e = stack.pop()
        if isinstance(e, ColRef):
            out.add(e.name)
        for child_name in ("left", "right", "operand"):
            child = getattr(e, child_name, None)
            if isinstance(child, Expr):
                stack.append(child)
    return out


def _cond_stats(cond, meta) -> dict:
    """Column statistics for the attributes *cond* references.

    This is the lazy-collection trigger: :meth:`VertexMeta.column_stats`
    builds (and caches) histogram stats from the live view on first
    planner request; scratch catalogs (static analysis) have no view
    attached and fall back to distinct counts.
    """
    if cond is None:
        return {}
    stats = {}
    for attr in _cond_attrs(cond):
        cs = meta.column_stats(attr)
        if cs is not None:
            stats[attr] = cs
    return stats


def _seek_literal(value: Any, dtype) -> Optional[Any]:
    """Coerce a condition literal into the index's stored value domain.

    Date columns store ordinals, so string literals are parsed; string
    columns are indexed as ``str``; numeric columns need a non-bool
    number.  ``None`` means the conjunct cannot drive a seek (the scan
    kernel still evaluates it — only the index shortcut is skipped).
    """
    kind = dtype.kind
    if kind == KIND_DATE:
        if isinstance(value, str):
            try:
                return parse_date(value)
            except ValueError:
                return None
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        return None
    if kind == KIND_NUMERIC:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return value
    if kind == KIND_STRING:
        return value if isinstance(value, str) else None
    return None


_RANGE_OPS = ("<", "<=", ">", ">=")


def _match_index(imeta, by_attr: dict, schema) -> Optional[tuple]:
    """Match condition conjuncts against one index's column order.

    Greedy equality prefix over the leading index columns, then an
    optional range on the first column without an equality.  Returns
    ``(eq_values, range_spec, covered_conjuncts)`` or None when the
    index covers nothing.
    """
    eq_values: list = []
    covered: list = []
    range_spec: Optional[tuple] = None
    for attr in imeta.attrs:
        if not schema.has(attr):
            break
        entries = by_attr.get(attr, [])
        dtype = schema.type_of(attr)
        eq = next(
            (
                (val, expr)
                for op, lit, expr in entries
                if op == "=" and (val := _seek_literal(lit, dtype)) is not None
            ),
            None,
        )
        if eq is not None:
            eq_values.append(eq[0])
            covered.append(eq[1])
            continue
        # no usable equality on this column: close with a range, if any
        low = high = None
        low_ex = high_ex = False
        for op, lit, expr in entries:
            if op not in _RANGE_OPS:
                continue
            val = _seek_literal(lit, dtype)
            if val is None:
                continue
            if op in (">", ">="):
                if low is None or val > low or (val == low and op == ">"):
                    low, low_ex = val, op == ">"
            else:
                if high is None or val < high or (val == high and op == "<"):
                    high, high_ex = val, op == "<"
            covered.append(expr)
        if low is not None or high is not None:
            range_spec = (low, high, low_ex, high_ex)
        break
    if not eq_values and range_spec is None:
        return None
    return tuple(eq_values), range_spec, covered


def _plan_anchor_access(
    step: RVertexStep,
    catalog: Catalog,
    hints: Optional[Hints],
    bound: dict[str, float],
) -> AccessPath:
    """Cost index-seek vs full scan for one atom anchor.

    A seek is applicable only to single-type anchors with a condition and
    no cross-step references (the binding executor relaxes cross-ref
    conditions away, so seeking on them would over-prune its pre-run).
    """
    n_total = sum(float(catalog.vertex(t).num_vertices) for t in step.types)
    scan = AccessPath(
        "scan", None, None, (), None,
        est_rows=_vertex_cardinality(step, catalog, bound),
        cost=max(n_total, 1.0) * _SCAN_WEIGHT,
    )
    if len(step.types) != 1 or step.cond is None or step.cross_refs:
        return scan
    t = step.types[0]
    candidates = [
        im for im in catalog.indexes_on(t) if im.target_kind == "vertex"
    ]
    if hints is not None:
        candidates = [im for im in candidates if im.name not in hints.no_index]
    if not candidates:
        return scan
    meta = catalog.vertex(t)
    stats = _cond_stats(step.cond, meta)
    by_attr: dict[str, list] = {}
    for expr in _conjuncts(step.cond):
        if not isinstance(expr, BinOp) or expr.op not in ("=",) + _RANGE_OPS:
            continue
        ref = _literal_comparison_ref(expr)
        if ref is None:
            continue
        attr, op, lit = ref
        by_attr.setdefault(attr, []).append((op, lit, expr))
    best: Optional[AccessPath] = None
    for im in candidates:
        m = _match_index(im, by_attr, meta.attr_schema)
        if m is None:
            continue
        eq_values, range_spec, covered = m
        sel = 1.0
        for expr in covered:
            sel *= estimate_selectivity(expr, meta.distinct_counts, stats)
        est = max(n_total * sel, 0.0)
        path = AccessPath(
            "index-seek", im.name, t, eq_values, range_spec,
            est_rows=est, cost=math.log2(n_total + 2.0) + est,
        )
        if hints is not None and im.name in hints.use_index:
            path.forced = "hint"
            return path
        if best is None or path.cost < best.cost:
            best = path
    if best is None or best.cost >= scan.cost:
        return scan
    return best


class AtomPlan:
    """Planned execution of one linear path.

    Besides the winning direction, the plan keeps *both* directions'
    total costs and per-step frontier estimates (keyed by the step's
    position in the atom), so EXPLAIN and ``QueryProfile`` can show the
    road not taken — without that, direction ablations are undebuggable.
    """

    def __init__(
        self,
        atom: RAtom,
        direction: Direction,
        cost_forward: float,
        cost_backward: float,
        step_est_forward: Optional[dict[int, float]] = None,
        step_est_backward: Optional[dict[int, float]] = None,
        forced: Optional[str] = None,
        access_forward: Optional[AccessPath] = None,
        access_backward: Optional[AccessPath] = None,
    ) -> None:
        self.atom = atom
        self.direction = direction
        self.cost_forward = cost_forward
        self.cost_backward = cost_backward
        #: step index -> estimated frontier when sweeping forward
        self.step_est_forward = step_est_forward or {}
        #: step index -> estimated frontier when sweeping backward
        self.step_est_backward = step_est_backward or {}
        #: why the direction ignored the cost model
        #: (None | 'label-ref' | 'options')
        self.forced = forced
        #: anchor access path of each sweep direction
        self.access_forward = access_forward
        self.access_backward = access_backward

    @property
    def access(self) -> Optional[AccessPath]:
        """The chosen direction's anchor access path."""
        return (
            self.access_forward
            if self.direction == "forward"
            else self.access_backward
        )

    def __repr__(self) -> str:
        return (
            f"AtomPlan({self.direction}, fwd={self.cost_forward:.1f}, "
            f"bwd={self.cost_backward:.1f})"
        )


class QueryPlan:
    """Planned execution of a whole graph select."""

    def __init__(
        self,
        checked: CheckedGraphSelect,
        strategy: Strategy,
        atom_plans: dict[int, AtomPlan],
    ) -> None:
        self.checked = checked
        self.strategy = strategy
        self.atom_plans = atom_plans  # keyed by id(atom)

    def plan_for(self, atom: RAtom) -> AtomPlan:
        return self.atom_plans[id(atom)]

    def __repr__(self) -> str:
        return f"QueryPlan(strategy={self.strategy}, atoms={len(self.atom_plans)})"


def _vertex_cardinality(
    step: RVertexStep, catalog: Catalog, bound: dict[str, float]
) -> float:
    """Estimated matches of a vertex step in isolation.

    Statically unsatisfiable conditions (the analyzer's GQW101 interval
    analysis) pin the estimate to zero instead of the selectivity guess,
    so a contradictory anchor makes its sweep direction maximally cheap —
    the executor then starts from the step that provably matches nothing
    and terminates immediately.  A step re-matching a label in *bound*
    (label -> estimated set size, from earlier atoms) matches at most
    that set.
    """
    if step.cond is not None and predicate_feasibility(step.cond) is False:
        return 0.0
    total = 0.0
    for t in step.types:
        meta = catalog.vertex(t)
        sel = estimate_selectivity(
            step.cond, meta.distinct_counts, _cond_stats(step.cond, meta)
        )
        total += meta.num_vertices * sel
    if step.seed is not None:
        seeded = catalog.subgraphs.get(step.seed, {})
        cap = sum(seeded.get(t, 0) for t in step.types)
        total = min(total, float(cap)) if seeded else total
    if step.label_ref in bound:
        total = min(total, bound[step.label_ref])
    return max(total, 0.0)


def _edge_expansion(step: REdgeStep, catalog: Catalog, along_lexical: bool) -> float:
    """Average frontier growth for one edge step in traversal direction.

    *along_lexical* is True when the sweep traverses the step from its
    lexical left vertex to its right vertex.
    """
    factors = []
    for name in step.names:
        em = catalog.edge(name)
        # going left->right on an OUT edge follows the declared direction
        outgoing = (step.direction == DIR_OUT) == along_lexical
        factors.append(em.degree_stats.expansion_factor(outgoing))
    if not factors:
        return 0.0
    sel = estimate_selectivity(step.cond)
    return max(factors) * sel


def _sweep_cost(
    steps: list,
    catalog: Catalog,
    forward: bool,
    hints: Optional[Hints],
    bound: dict[str, float],
) -> tuple[float, list[float], AccessPath]:
    """Frontier-recurrence cost of sweeping an atom in one direction.

    Returns ``(total cost, per-step frontier estimates, anchor access)``
    with the estimates aligned to the *sweep* order of ``steps``: a
    vertex step's estimate is its post-filter frontier, an edge/regex
    step's estimate is the expanded frontier before the next vertex
    filter.  The anchor term is the access path's cost (index-seek or
    scan) plus the resulting frontier, so a direction whose anchor can
    seek a selective index wins the recurrence; every later frontier,
    edge or vertex, adds its size.  Steps re-matching a label in *bound*
    are capped at its estimated set size.
    """
    ordered = steps if forward else list(reversed(steps))
    first = ordered[0]
    if not isinstance(first, RVertexStep):  # pragma: no cover - grammar
        raise PlanError("path must start and end with vertex steps")
    access = _plan_anchor_access(first, catalog, hints, bound)
    frontier = _vertex_cardinality(first, catalog, bound)
    estimates = [frontier]
    cost = access.cost + frontier
    i = 1
    while i < len(ordered):
        estep = ordered[i]
        vstep = ordered[i + 1]
        if isinstance(estep, RRegex):
            # a regex group behaves like a couple of variant hops
            frontier *= _REGEX_HOP_PENALTY
        else:
            assert isinstance(estep, REdgeStep)
            frontier *= max(_edge_expansion(estep, catalog, along_lexical=forward), 1e-3)
            if estep.label_ref in bound:
                frontier = min(frontier, bound[estep.label_ref])
        estimates.append(frontier)
        cost += frontier
        assert isinstance(vstep, RVertexStep)
        selectivities = [
            estimate_selectivity(
                vstep.cond,
                catalog.vertex(t).distinct_counts,
                _cond_stats(vstep.cond, catalog.vertex(t)),
            )
            for t in vstep.types
        ] or [1.0]
        frontier *= max(selectivities)
        # frontier cannot exceed the step's own cardinality
        frontier = min(frontier, max(_vertex_cardinality(vstep, catalog, bound), 1e-3))
        estimates.append(frontier)
        cost += frontier
        i += 2
    return cost, estimates, access


def _has_internal_label_ref(atom: RAtom) -> bool:
    """True if a step references a label defined earlier in this atom.

    Such atoms must sweep forward so the defining step is processed before
    the referencing step.
    """
    defined: set[str] = set()
    for s in atom.steps:
        if isinstance(s, (RVertexStep, REdgeStep)):
            if s.label_ref is not None and s.label_ref in defined:
                return True
            if s.label is not None:
                defined.add(s.label.name)
    return False


def plan_atom(
    atom: RAtom,
    catalog: Catalog,
    force_direction: Optional[Direction] = None,
    hints: Optional[Hints] = None,
    bound: Optional[dict[str, float]] = None,
) -> AtomPlan:
    """Choose the sweep direction (and anchor access path) for one atom.

    *bound* maps labels bound by earlier atoms to their estimated set
    sizes; this atom's own labels are added to it.
    """
    bound = {} if bound is None else bound
    cf, est_f, acc_f = _sweep_cost(atom.steps, catalog, True, hints, bound)
    cb, est_b, acc_b = _sweep_cost(atom.steps, catalog, False, hints, bound)
    forced: Optional[str] = None
    hinted_f = acc_f is not None and acc_f.forced == "hint"
    hinted_b = acc_b is not None and acc_b.forced == "hint"
    if _has_internal_label_ref(atom):
        direction: Direction = "forward"
        forced = "label-ref"
    elif force_direction is not None:
        direction = force_direction
        forced = "options"
    elif hinted_f != hinted_b:
        # a use_index hint applies to only one sweep's anchor: honour it
        # by sweeping from the end the index can seed
        direction = "forward" if hinted_f else "backward"
        forced = "hint"
    else:
        direction = "forward" if cf <= cb else "backward"
    n = len(atom.steps)
    # sweep-order estimates back onto original step positions
    step_est_forward = {i: e for i, e in enumerate(est_f)}
    step_est_backward = {n - 1 - i: e for i, e in enumerate(est_b)}
    # a label's final set survives the sweep from both ends
    for i, step in enumerate(atom.steps):
        if isinstance(step, (RVertexStep, REdgeStep)) and step.label is not None:
            bound[step.label.name] = min(step_est_forward[i], step_est_backward[i])
    return AtomPlan(
        atom, direction, cf, cb, step_est_forward, step_est_backward, forced,
        access_forward=acc_f, access_backward=acc_b,
    )


def validate_hints(hints: Optional[Hints], catalog: Catalog) -> None:
    """Reject hints naming indexes the catalog does not know."""
    if hints is None:
        return
    unknown = [n for n in hints.names() if not catalog.is_index(n)]
    if unknown:
        existing = ", ".join(sorted(catalog.indexes)) or "none"
        raise PlanError(
            f"unknown index {unknown[0]!r} in hints "
            f"(existing indexes: {existing})"
        )


def plan_graph_select(
    checked: CheckedGraphSelect,
    catalog: Catalog,
    force_direction: Optional[Direction] = None,
    force_strategy: Optional[Strategy] = None,
    hints: Optional[Hints] = None,
) -> QueryPlan:
    """Plan a checked graph select: strategy + per-atom directions."""
    validate_hints(hints, catalog)
    pattern: RPattern = checked.pattern
    stmt: GraphSelect = checked.stmt
    if force_strategy is not None:
        strategy: Strategy = force_strategy
    elif pattern.needs_bindings:
        strategy = "bindings"
    elif stmt.into is not None and stmt.into.kind == INTO_SUBGRAPH:
        strategy = "set"
    else:
        strategy = "bindings"
    if strategy == "set" and pattern.needs_bindings:
        raise PlanError(
            "this query needs per-path bindings (foreach labels or "
            "cross-step references) and cannot run with the set strategy"
        )
    atom_plans: dict[int, AtomPlan] = {}
    bound: dict[str, float] = {}
    for atom in pattern.atoms():
        atom_plans[id(atom)] = plan_atom(atom, catalog, force_direction, hints, bound)
    return QueryPlan(checked, strategy, atom_plans)
