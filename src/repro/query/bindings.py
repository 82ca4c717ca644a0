"""Binding-join path-query execution (path enumeration).

Where the set-frontier executor answers "*which* vertices/edges lie on a
full path", this executor answers "*what are* the paths": it materializes
a binding table with one row per matched path and one column group per
step.  The paper's semantics need this whenever

* an element-wise ``foreach`` label requires the *same instance* to appear
  at two steps of one path (Eq. 8),
* a step condition compares attributes against a previous step,
* the result is a table whose row multiplicity is per-path — Fig. 6's
  "a table of product ids, with each id repeated for each feature".

The executor prunes aggressively: a relaxed set-frontier pass runs first
(cross-step constraints dropped — a sound over-approximation), and the
binding expansion is restricted to its backward-culled per-step sets, so
rows are only ever spent on prefixes that can complete.  Expansion reuses
the CSR ``expand`` kernel with an origin-row mapping, keeping the hot loop
fully vectorized.

Column keys are ``v{i}``/``e{i}`` by step position, plus ``t{i}`` global
type ids for variant steps so Eq. 12's "the type of the label becomes
bound at matching time" holds per row.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.catalog import Catalog
from repro.errors import ExecutionError
from repro.graph.graphdb import GraphDB
from repro.graql.ast import DIR_OUT, LABEL_FOREACH
from repro.graql.typecheck import RAtom, REdgeStep, RRegex, RVertexStep
from repro.query.frontier import (
    AtomSets,
    FrontierExecutor,
    reverse_steps,
    unroll_counted_regexes,
)
from repro.storage import idsets
from repro.storage.expr import Env, evaluate_predicate

_EMPTY = np.empty(0, dtype=np.int64)

#: safety cap on materialized paths (per atom)
DEFAULT_MAX_ROWS = 5_000_000


class BindingResult:
    """One atom's enumerated paths.

    ``columns`` maps step position (in the original atom) to arrays:
    ``("v", i)`` vertex ids, ``("t", i)`` global vertex-type ids (variant
    steps only), ``("e", i)`` edge ids, ``("et", i)`` global edge-type ids.
    All arrays share ``nrows``.
    """

    def __init__(self, columns: dict[tuple[str, int], np.ndarray], nrows: int) -> None:
        self.columns = columns
        self.nrows = nrows

    def take(self, idx: np.ndarray) -> "BindingResult":
        return BindingResult({k: v[idx] for k, v in self.columns.items()}, len(idx))

    def vertex_column(self, i: int) -> np.ndarray:
        return self.columns[("v", i)]

    def has(self, kind: str, i: int) -> bool:
        return (kind, i) in self.columns


def _relax_atom(atom: RAtom) -> RAtom:
    """Drop cross-step conditions so the set prerun stays sound."""
    steps = []
    for s in atom.steps:
        if isinstance(s, RVertexStep) and s.cross_refs:
            steps.append(
                RVertexStep(
                    list(s.types),
                    None,
                    s.label,
                    s.label_ref,
                    s.seed,
                    s.is_variant,
                    [],
                    s.names,
                )
            )
        else:
            steps.append(s)
    return RAtom(steps)


class BindingExecutor:
    """Enumerates paths of one atom against a GraphDB."""

    def __init__(
        self,
        db: GraphDB,
        catalog: Catalog,
        frontier: Optional[FrontierExecutor] = None,
        max_rows: Optional[int] = None,
        profile=None,
    ) -> None:
        self.db = db
        self.catalog = catalog
        self.frontier = frontier or FrontierExecutor(db, profile=profile)
        #: optional QueryProfile for index-hit/edge-scan accounting
        self.profile = profile if profile is not None else self.frontier.profile
        # read the module default at call time so deployments (and tests)
        # can tune the cap globally
        self.max_rows = max_rows if max_rows is not None else DEFAULT_MAX_ROWS
        # global type-id spaces (stable across steps)
        self.vtype_ids = {n: i for i, n in enumerate(sorted(catalog.vertices))}
        self.etype_ids = {n: i for i, n in enumerate(sorted(catalog.edges))}

    # ------------------------------------------------------------------
    def run_atom(
        self,
        atom: RAtom,
        direction: str = "forward",
        label_columns: Optional[dict[str, tuple["BindingResult", int]]] = None,
        access=None,
    ) -> BindingResult:
        """Enumerate the atom's paths.

        *label_columns* maps labels defined in *earlier* atoms to their
        (result, step-position) — used only to know a label is external;
        the actual cross-atom join happens in the composer.  *access* is
        the planner's anchor access path, forwarded to the set-semantics
        pre-run (the planner never picks a seek for anchors whose
        condition the relaxation would drop, so the pre-run stays sound).
        """
        label_columns = label_columns or {}
        pre: AtomSets = self.frontier.run_atom(_relax_atom(atom), direction, access)
        tagged = unroll_counted_regexes(atom.steps)
        if direction == "backward":
            tagged = reverse_steps(tagged)
        steps = [s for s, _ in tagged]
        orig_idx = [i for _, i in tagged]
        for s in steps:
            if isinstance(s, RRegex):
                raise ExecutionError(
                    "unbounded path regular expressions are not supported "
                    "under path enumeration"
                )
        name_to_pos = self._name_positions(atom)
        columns: dict[tuple[str, int], np.ndarray] = {}
        # ---- first vertex step
        first = steps[0]
        assert isinstance(first, RVertexStep)
        vids, tids = self._initial_rows(first, pre.vertex_sets.get(orig_idx[0], {}))
        columns[("v", orig_idx[0])] = vids
        if len(first.types) > 1:
            columns[("t", orig_idx[0])] = tids
        nrows = len(vids)
        bound_positions = {orig_idx[0]}
        deferred = self._collect_deferred(atom, name_to_pos, label_columns)
        columns, nrows = self._apply_ready_constraints(
            atom, columns, nrows, bound_positions, deferred, name_to_pos
        )
        # ---- expansion over edge steps
        i = 1
        while i < len(steps) and nrows > 0:
            estep = steps[i]
            vstep = steps[i + 1]
            assert isinstance(estep, REdgeStep) and isinstance(vstep, RVertexStep)
            columns, nrows = self._expand(
                columns,
                nrows,
                estep,
                vstep,
                prev_pos=orig_idx[i - 1],
                edge_pos=orig_idx[i],
                next_pos=orig_idx[i + 1],
                prev_types=steps[i - 1].types,
                allowed_edges=pre.edge_sets.get(orig_idx[i], {}),
                allowed_vertices=pre.vertex_sets.get(orig_idx[i + 1], {}),
            )
            bound_positions.add(orig_idx[i + 1])
            columns, nrows = self._apply_ready_constraints(
                atom, columns, nrows, bound_positions, deferred, name_to_pos
            )
            if nrows > self.max_rows:
                raise ExecutionError(
                    f"path enumeration exceeded {self.max_rows} rows — "
                    f"narrow the query or use 'into subgraph'"
                )
            i += 2
        if nrows == 0:
            columns = {k: v[:0] for k, v in columns.items()}
        # ensure every step has a column even when the frontier died early
        # (empty results must still materialize the full output schema)
        for pos, s in enumerate(steps):
            key = ("v", orig_idx[pos]) if isinstance(s, RVertexStep) else ("e", orig_idx[pos])
            if key not in columns:
                columns[key] = _EMPTY
                nrows = 0
        return BindingResult(columns, nrows)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _name_positions(self, atom: RAtom) -> dict[str, int]:
        """Step-name -> original step position (labels and type names)."""
        out: dict[str, int] = {}
        for i, s in enumerate(atom.steps):
            if isinstance(s, RVertexStep):
                if s.label is not None:
                    out[s.label.name] = i
                if not s.is_variant and s.label_ref is None:
                    # a type name maps to its first occurrence; typecheck
                    # rejects references to ambiguous type names
                    for n in s.names:
                        out.setdefault(n, i)
        return out

    def _global_tids(self, types: list[str]) -> np.ndarray:
        return np.asarray([self.vtype_ids[t] for t in types], dtype=np.int64)

    def _initial_rows(self, step: RVertexStep, pre_sets) -> tuple[np.ndarray, np.ndarray]:
        vid_parts = []
        tid_parts = []
        for t in step.types:
            vids = pre_sets.get(t, _EMPTY)
            if len(vids) == 0:
                continue
            vid_parts.append(vids)
            tid_parts.append(np.full(len(vids), self.vtype_ids[t], dtype=np.int64))
        if not vid_parts:
            return _EMPTY, _EMPTY
        return np.concatenate(vid_parts), np.concatenate(tid_parts)

    def _row_tids(self, columns, nrows, pos: int, types: list[str]) -> np.ndarray:
        """Global vertex-type id per row for step *pos*."""
        if ("t", pos) in columns:
            return columns[("t", pos)]
        return np.full(nrows, self.vtype_ids[types[0]], dtype=np.int64)

    def _expand(
        self,
        columns,
        nrows,
        estep: REdgeStep,
        vstep: RVertexStep,
        prev_pos: int,
        edge_pos: int,
        next_pos: int,
        prev_types: list[str],
        allowed_edges,
        allowed_vertices,
    ):
        prev_v = columns[("v", prev_pos)]
        prev_t = self._row_tids(columns, nrows, prev_pos, prev_types)
        origin_parts = []
        newv_parts = []
        newt_parts = []
        eid_parts = []
        etid_parts = []
        for ename in estep.names:
            et = self.db.edge_type(ename)
            along = estep.direction == DIR_OUT
            from_type = et.source.name if along else et.target.name
            to_type = et.target.name if along else et.source.name
            if to_type not in vstep.types:
                continue
            rows = np.flatnonzero(prev_t == self.vtype_ids.get(from_type, -1))
            if len(rows) == 0:
                continue
            index = self.db.index(ename).direction(along)
            frontier = prev_v[rows]
            origins, tgts, eids = index.expand(frontier)
            if self.profile is not None:
                self.profile.index_hits += 1
                self.profile.edges_scanned += len(eids)
            # 'origins' here are frontier positions? expand returns source
            # vids; we need origin rows — recompute via counts
            starts = index.indptr[frontier]
            ends = index.indptr[frontier + 1]
            counts = ends - starts
            origin_rows = np.repeat(rows, counts)
            del origins
            allowed = allowed_edges.get(ename, _EMPTY)
            mask = idsets.in_sorted(eids, allowed)
            mask &= idsets.in_sorted(tgts, allowed_vertices.get(to_type, _EMPTY))
            if not mask.any():
                continue
            origin_parts.append(origin_rows[mask])
            newv_parts.append(tgts[mask])
            k = int(mask.sum())
            newt_parts.append(np.full(k, self.vtype_ids[to_type], dtype=np.int64))
            eid_parts.append(eids[mask])
            etid_parts.append(np.full(k, self.etype_ids[ename], dtype=np.int64))
        if not origin_parts:
            return {k: v[:0] for k, v in columns.items()}, 0
        origin = np.concatenate(origin_parts)
        out = {k: v[origin] for k, v in columns.items()}
        out[("v", next_pos)] = np.concatenate(newv_parts)
        if len(vstep.types) > 1:
            out[("t", next_pos)] = np.concatenate(newt_parts)
        out[("e", edge_pos)] = np.concatenate(eid_parts)
        if len(estep.names) > 1:
            out[("et", edge_pos)] = np.concatenate(etid_parts)
        return out, len(origin)

    def _collect_deferred(self, atom: RAtom, name_to_pos, label_columns):
        """Constraints that need more than one bound step.

        Returns a list of dicts with keys: kind ('foreach' | 'cond'),
        positions (steps that must be bound), payload.
        """
        out = []
        for i, s in enumerate(atom.steps):
            if not isinstance(s, RVertexStep):
                continue
            if s.label_ref is not None and s.label_ref in name_to_pos:
                # same-instance constraint only for foreach labels; set
                # labels were already enforced as membership in the prerun
                from_pos = name_to_pos[s.label_ref]
                if from_pos != i and self._label_kind(atom, s.label_ref) == LABEL_FOREACH:
                    out.append(
                        {
                            "kind": "foreach",
                            "positions": (from_pos, i),
                            "applied": False,
                        }
                    )
            if s.cond is not None and s.cross_refs:
                positions = [i]
                external = False
                for q in s.cross_refs:
                    if q in name_to_pos:
                        positions.append(name_to_pos[q])
                    else:
                        external = True
                if external:
                    raise ExecutionError(
                        "conditions referencing labels from another path of "
                        "an 'and' composition are not supported — reference "
                        "the label as a step instead"
                    )
                out.append(
                    {
                        "kind": "cond",
                        "positions": tuple(positions),
                        "step": s,
                        "step_pos": i,
                        "name_to_pos": name_to_pos,
                        "steps": atom.steps,
                        "applied": False,
                    }
                )
        return out

    def _label_kind(self, atom: RAtom, label: str) -> str:
        for s in atom.steps:
            if isinstance(s, RVertexStep) and s.label is not None and s.label.name == label:
                return s.label.kind
        # label from an earlier atom: the composer joins, treat as set here
        return "def"

    def _apply_ready_constraints(
        self, atom, columns, nrows, bound, deferred, name_to_pos
    ):
        for c in deferred:
            if c["applied"] or not all(p in bound for p in c["positions"]):
                continue
            c["applied"] = True
            if nrows == 0:
                continue
            if c["kind"] == "foreach":
                a, b = c["positions"]
                mask = columns[("v", a)] == columns[("v", b)]
                sa = atom.steps[a]
                ta = self._row_tids(columns, nrows, a, sa.types)
                sb = atom.steps[b]
                tb = self._row_tids(columns, nrows, b, sb.types)
                mask &= ta == tb
            else:
                mask = self._eval_cond(c, columns, nrows)
            idx = np.flatnonzero(mask)
            columns = {k: v[idx] for k, v in columns.items()}
            nrows = len(idx)
        return columns, nrows

    def _eval_cond(self, c, columns, nrows) -> np.ndarray:
        step: RVertexStep = c["step"]
        pos: int = c["step_pos"]
        name_to_pos: dict[str, int] = c["name_to_pos"]
        own_names = set(step.names) | set(step.types) | {None}

        steps = c["steps"]

        def resolver(qualifier, name):
            if qualifier in own_names:
                p = pos
                types = step.types
            else:
                p = name_to_pos[qualifier]
                types = steps[p].types
            vt = self.db.vertex_type(types[0])
            arr, dtype = vt.attribute_array(name)
            return arr[columns[("v", p)]], dtype

        env = Env(resolver, nrows)
        return evaluate_predicate(step.cond, env)
