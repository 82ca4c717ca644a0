"""Set-frontier path-query execution (Eq. 5 set semantics).

The result of a path query is, per step, the set of vertices/edges lying
on at least one full matching path.  This executor computes it in two
vectorized sweeps over the CSR edge indexes:

1. **forward sweep** (in the planner's chosen direction): each vertex step
   filters the incoming frontier with its condition / seed / label
   constraints (Eq. 4); each edge step expands the frontier through every
   compatible edge type, honouring the step's direction via the forward or
   reverse index.
2. **backward cull**: walking back from the final step, drop every edge
   whose far endpoint did not survive, and shrink each vertex set to the
   endpoints of surviving edges — after this pass, Eq. 5's "culled of all
   vertices that have no path to vertices selected at that step" holds
   exactly (asserted by the property-based tests against brute force).

Frontiers are per-vertex-type dicts of sorted-unique int64 vid arrays
(``SetDict``; edge sets likewise hold eids), so variant steps (Section
II-B4) fall out naturally: a variant frontier just has entries for several
types, and Eq. 12-style type-matched labels work because label membership
is intersected per type.  :mod:`repro.storage.idsets` keeps that
invariant: every union, intersection, difference and dedup of a set here
is one of its sort-based kernels.

Path regular expressions (Fig. 10) with ``+``/``*`` are fixpoint
reachability over the group's pairs; ``{n}`` groups are unrolled before
the sweep (see :func:`unroll_counted_regexes`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ExecutionError
from repro.graph.graphdb import GraphDB
from repro.graql.ast import DIR_IN, DIR_OUT, REGEX_COUNT, REGEX_STAR
from repro.graql.typecheck import RAtom, REdgeStep, RRegex, RVertexStep
from repro.storage import idsets
from repro.storage.expr import BinOp

_EMPTY = np.empty(0, dtype=np.int64)

SetDict = dict[str, np.ndarray]  # type name -> sorted unique ids


def _union(a: SetDict, b: SetDict) -> SetDict:
    out = dict(a)
    for k, v in b.items():
        out[k] = idsets.union(out[k], v) if k in out else v
    return out


def _is_empty(sets: SetDict) -> bool:
    return all(len(v) == 0 for v in sets.values())


# ----------------------------------------------------------------------
# Atom preprocessing
# ----------------------------------------------------------------------

def _merge_vertex_steps(inner: RVertexStep, outer: RVertexStep) -> RVertexStep:
    """Unify a regex group's final inner vertex with the following step."""
    types = [t for t in outer.types if t in inner.types] if not inner.is_variant else list(outer.types)
    if inner.cond is not None and outer.cond is not None:
        cond = BinOp("and", inner.cond, outer.cond)
    else:
        cond = inner.cond if inner.cond is not None else outer.cond
    return RVertexStep(
        types,
        cond,
        outer.label,
        outer.label_ref,
        outer.seed,
        outer.is_variant and inner.is_variant,
        list(set(inner.cross_refs) | set(outer.cross_refs)),
        outer.names,
    )


def unroll_counted_regexes(steps: list) -> list[tuple]:
    """Replace ``{n}`` regex groups by n inline copies of their pairs.

    Returns ``[(step, original_index)]`` so results can be folded back to
    the original step positions (inline copies map to the group's index).
    """
    out: list[tuple] = []
    for i, s in enumerate(steps):
        if isinstance(s, RRegex) and s.op == REGEX_COUNT:
            if s.count is None or s.count < 1:
                raise ExecutionError("regex repetition count must be >= 1")
            # splice: n copies of (edge, vertex); the final inner vertex is
            # merged with the *following* original vertex step
            nxt = steps[i + 1]
            assert isinstance(nxt, RVertexStep)
            for k in range(s.count):
                for j, (e, v) in enumerate(s.pairs):
                    out.append((e, i))
                    is_last = k == s.count - 1 and j == len(s.pairs) - 1
                    if is_last:
                        out.append((_merge_vertex_steps(v, nxt), i + 1))
                    else:
                        out.append((v, i))
        elif isinstance(s, RVertexStep) and out and out[-1][1] == i:
            continue  # already emitted as the merged final vertex
        else:
            out.append((s, i))
    return out


def reverse_steps(tagged: list[tuple]) -> list[tuple]:
    """Reverse an atom: flip step order and every edge direction."""
    out: list[tuple] = []
    for s, idx in reversed(tagged):
        if isinstance(s, REdgeStep):
            flipped = REdgeStep(
                list(s.names),
                DIR_IN if s.direction == DIR_OUT else DIR_OUT,
                s.cond,
                s.label,
                s.is_variant,
                s.label_ref,
            )
            out.append((flipped, idx))
        elif isinstance(s, RRegex):
            pairs = []
            for e, v in reversed(s.pairs):
                pairs.append(
                    (
                        REdgeStep(
                            list(e.names),
                            DIR_IN if e.direction == DIR_OUT else DIR_OUT,
                            e.cond,
                            e.label,
                            e.is_variant,
                            e.label_ref,
                        ),
                        v,
                    )
                )
            out.append((RRegex(pairs, s.op, s.count), idx))
        else:
            out.append((s, idx))
    return out


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

class AtomSets:
    """Result of set-semantics execution of one atom.

    ``vertex_sets[i]`` / ``edge_sets[i]`` are keyed by the step's position
    in the original atom; each maps type name -> sorted unique id array.
    """

    def __init__(self, num_steps: int) -> None:
        self.vertex_sets: dict[int, SetDict] = {}
        self.edge_sets: dict[int, SetDict] = {}
        self.num_steps = num_steps

    def all_vertices(self) -> SetDict:
        out: SetDict = {}
        for s in self.vertex_sets.values():
            out = _union(out, s)
        return out

    def all_edges(self) -> SetDict:
        out: SetDict = {}
        for s in self.edge_sets.values():
            out = _union(out, s)
        return out

    def is_empty(self) -> bool:
        return all(_is_empty(s) for s in self.vertex_sets.values())


class FrontierExecutor:
    """Runs atoms under set semantics against a GraphDB."""

    def __init__(
        self,
        db: GraphDB,
        label_env: Optional[dict[str, SetDict]] = None,
        profile=None,
    ) -> None:
        self.db = db
        #: label name -> per-type vid sets (shared across atoms of a query)
        self.label_env: dict[str, SetDict] = label_env if label_env is not None else {}
        #: refinement pins: extra restriction applied at a label's defining
        #: step during and-composition fixpoint iteration
        self.pin_labels: dict[str, SetDict] = {}
        #: edge label name -> per-edge-type eid sets (Eq. 6 for edges)
        self.edge_label_env: dict[str, SetDict] = {}
        #: optional QueryProfile receiving index-hit/edge-scan counters;
        #: None keeps the hot path at a single attribute test
        self.profile = profile

    # ------------------------------------------------------------------
    # Step primitives
    # ------------------------------------------------------------------
    def _anchor_candidates(self, t: str, vt, access) -> np.ndarray:
        """Initial candidates of an anchor step: index seek or full range.

        The seek is pruning only — the step condition is still applied —
        so a missing or stale-named index (e.g. on a distributed worker's
        partition db, which does not build attribute indexes) degrades to
        the full scan without changing results.
        """
        if (
            access is not None
            and access.kind == "index-seek"
            and access.type_name == t
        ):
            gi = self.db.attr_indexes.get(access.index)
            if gi is not None and gi.target_name == t:
                if access.range_spec is not None:
                    low, high, low_ex, high_ex = access.range_spec
                    cands = gi.index.seek_range(
                        low,
                        high,
                        low_exclusive=low_ex,
                        high_exclusive=high_ex,
                        prefix=access.eq_values,
                    )
                else:
                    cands = gi.index.seek_eq(access.eq_values)
                if self.profile is not None:
                    self.profile.attr_seeks += 1
                    self.profile.attr_seek_rows += len(cands)
                return cands
        return np.arange(vt.num_vertices, dtype=np.int64)

    def _vertex_select(
        self, step: RVertexStep, incoming: Optional[SetDict], access=None
    ) -> SetDict:
        out: SetDict = {}
        for t in step.types:
            vt = self.db.vertex_type(t)
            if incoming is None:
                cands = self._anchor_candidates(t, vt, access)
            else:
                cands = incoming.get(t, _EMPTY)
            if step.seed is not None and len(cands):
                cands = idsets.intersect(cands, self.db.subgraph(step.seed).vertex_ids(t))
            if step.label_ref is not None and len(cands):
                label_sets = self.label_env.get(step.label_ref, {})
                cands = idsets.intersect(cands, label_sets.get(t, _EMPTY))
            if step.label is not None and step.label.name in self.pin_labels and len(cands):
                pin = self.pin_labels[step.label.name]
                cands = idsets.intersect(cands, pin.get(t, _EMPTY))
            if step.cond is not None and len(cands):
                cands = vt.select(step.cond, cands)
            if len(cands):
                out[t] = idsets.unique(cands)
        return out

    def _expand(
        self, ename: str, along: bool, fr: np.ndarray, allowed: Optional[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints and eids of the *ename* edges that leave frontier *fr*
        along (True) or against (False) the declared direction, restricted
        to the sorted eid set *allowed* (None: all).

        With :meth:`_cull`, the only data movement of a sweep: a
        partitioned back end overrides these two and inherits the rest.
        """
        _, tgts, eids = self.db.index(ename).direction(along).expand_restricted(
            fr, allowed
        )
        return tgts, eids

    def _cull(
        self,
        ename: str,
        along: bool,
        eids: np.ndarray,
        next_vids: np.ndarray,
        prev_vids: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Of the forward-matched *eids* (sorted) of a step walked in
        orientation *along*, keep those joining *prev_vids* to *next_vids*.
        Returns (prev-side endpoints of the kept edges, kept eids sorted).
        """
        et = self.db.edge_type(ename)
        src, tgt = et.src_vids[eids], et.tgt_vids[eids]
        # walking prev->next along the declaration, next side is the target
        nxt, prv = (tgt, src) if along else (src, tgt)
        mask = idsets.in_sorted(nxt, next_vids)
        mask &= idsets.in_sorted(prv, prev_vids)
        return prv[mask], eids[mask]

    def _edge_expand(
        self,
        step: REdgeStep,
        prev_sets: SetDict,
        next_types: list[str],
        allowed_edges: Optional[SetDict] = None,
    ) -> tuple[SetDict, SetDict]:
        """Expand one edge step.  Returns (next frontier, matched eids)."""
        frontier: SetDict = {}
        matched: SetDict = {}
        for ename in step.names:
            et = self.db.edge_type(ename)
            along = step.direction == DIR_OUT
            from_type = et.source.name if along else et.target.name
            to_type = et.target.name if along else et.source.name
            if to_type not in next_types:
                continue
            fr = prev_sets.get(from_type, _EMPTY)
            if len(fr) == 0:
                continue
            allowed = None
            if step.cond is not None:
                allowed = np.sort(et.select(step.cond))
            if step.label_ref is not None:
                labelled = self.edge_label_env.get(step.label_ref, {}).get(
                    ename, _EMPTY
                )
                allowed = (
                    labelled if allowed is None
                    else idsets.intersect(allowed, labelled)
                )
            if allowed_edges is not None:
                extra = allowed_edges.get(ename, _EMPTY)
                allowed = extra if allowed is None else idsets.intersect(allowed, extra)
            tgts, eids = self._expand(ename, along, fr, allowed)
            if self.profile is not None:
                self.profile.index_hits += 1
                self.profile.edges_scanned += len(eids)
            if len(eids) == 0:
                continue
            frontier = _union(frontier, {to_type: idsets.unique(tgts)})
            matched = _union(matched, {ename: idsets.unique(eids)})
        return frontier, matched

    # ------------------------------------------------------------------
    # Path regular expressions (+ / *)
    # ------------------------------------------------------------------
    def _regex_round(
        self, group: RRegex, sets: SetDict, allowed_edges: Optional[SetDict] = None
    ) -> tuple[SetDict, SetDict]:
        cur = sets
        edges: SetDict = {}
        for estep, vstep in group.pairs:
            frontier, eids = self._edge_expand(estep, cur, vstep.types, allowed_edges)
            cur = self._vertex_select(vstep, frontier)
            edges = _union(edges, eids)
            if _is_empty(cur):
                return {}, edges
        return cur, edges

    def _regex_closure(
        self, group: RRegex, start: SetDict, allowed_edges: Optional[SetDict] = None
    ) -> tuple[SetDict, SetDict]:
        """All states reachable in >=1 rounds (and the traversed edges)."""
        acc: SetDict = {}
        edges: SetDict = {}
        frontier = start
        while True:
            frontier, round_edges = self._regex_round(group, frontier, allowed_edges)
            edges = _union(edges, round_edges)
            new: SetDict = {}
            for t, vids in frontier.items():
                fresh = idsets.difference(vids, acc.get(t, _EMPTY))
                if len(fresh):
                    new[t] = fresh
            if not new:
                break
            acc = _union(acc, new)
            frontier = new
        return acc, edges

    def _regex_forward(self, group: RRegex, start: SetDict) -> tuple[SetDict, SetDict]:
        closure, edges = self._regex_closure(group, start)
        if group.op == REGEX_STAR:
            closure = _union(closure, start)  # k = 0 keeps the start states
        return closure, edges

    def _regex_cull(
        self,
        group_reversed: RRegex,
        culled_next: SetDict,
        forward_prev: SetDict,
        forward_edges: SetDict,
    ) -> tuple[SetDict, SetDict]:
        """Cull through a regex group during the backward pass.

        *group_reversed* is the group with pair order and edge directions
        flipped, so its closure computes co-reachability.  Kept edges are
        those connecting a forward-reachable source to a co-reachable
        target — every such edge lies on some prev -> next path.
        """
        co_reach, _ = self._regex_closure(group_reversed, culled_next, forward_edges)
        culled_prev: SetDict = {}
        for t, vids in forward_prev.items():
            keep = idsets.intersect(vids, co_reach.get(t, _EMPTY))
            if group_reversed.op == REGEX_STAR:
                keep = idsets.union(keep, idsets.intersect(vids, culled_next.get(t, _EMPTY)))
            if len(keep):
                culled_prev[t] = keep
        if _is_empty(culled_prev) and group_reversed.op != REGEX_STAR:
            return {}, {}
        # edges on some path: walked-from endpoint reachable from culled
        # prev, walked-to endpoint co-reachable from culled next.  Each
        # edge type is walked in the orientation(s) its group step uses.
        original = _flip_group(group_reversed)
        fwd_reach, _ = self._regex_closure(original, culled_prev, forward_edges)
        fwd_states = _union(fwd_reach, culled_prev)
        bwd_states = _union(co_reach, culled_next)
        orientations: dict[str, set[bool]] = {}
        for estep, _v in original.pairs:
            for ename in estep.names:
                orientations.setdefault(ename, set()).add(
                    estep.direction == DIR_OUT
                )
        kept: SetDict = {}
        for ename, eids in forward_edges.items():
            et = self.db.edge_type(ename)
            src = et.src_vids[eids]
            tgt = et.tgt_vids[eids]
            s_f = idsets.in_sorted(src, fwd_states.get(et.source.name, _EMPTY))
            t_b = idsets.in_sorted(tgt, bwd_states.get(et.target.name, _EMPTY))
            s_b = idsets.in_sorted(src, bwd_states.get(et.source.name, _EMPTY))
            t_f = idsets.in_sorted(tgt, fwd_states.get(et.target.name, _EMPTY))
            mask = np.zeros(len(eids), dtype=bool)
            for along in orientations.get(ename, ()):
                mask |= (s_f & t_b) if along else (s_b & t_f)
            if mask.any():
                kept[ename] = eids[mask]
        return culled_prev, kept

    # ------------------------------------------------------------------
    # Whole-atom execution
    # ------------------------------------------------------------------
    def run_atom(
        self, atom: RAtom, direction: str = "forward", access=None
    ) -> AtomSets:
        tagged = unroll_counted_regexes(atom.steps)
        if direction == "backward":
            tagged = reverse_steps(tagged)
        steps = [s for s, _ in tagged]
        indices = [i for _, i in tagged]
        n = len(steps)
        forward: list[SetDict] = [dict() for _ in range(n)]
        # ---- forward sweep
        assert isinstance(steps[0], RVertexStep)
        forward[0] = self._vertex_select(steps[0], None, access)
        self._record_label(steps[0], forward[0])
        i = 1
        dead = _is_empty(forward[0])
        while i < n:
            estep, vstep = steps[i], steps[i + 1]
            assert isinstance(vstep, RVertexStep)
            if dead:
                forward[i] = {}
                forward[i + 1] = {}
            elif isinstance(estep, RRegex):
                frontier, eids = self._regex_forward(estep, forward[i - 1])
                forward[i] = eids
                forward[i + 1] = self._vertex_select(vstep, frontier)
            else:
                assert isinstance(estep, REdgeStep)
                frontier, eids = self._edge_expand(estep, forward[i - 1], vstep.types)
                forward[i] = eids
                forward[i + 1] = self._vertex_select(vstep, frontier)
                self._record_edge_label(estep, eids)
            if not dead:
                self._record_label(vstep, forward[i + 1])
                dead = _is_empty(forward[i + 1])
            i += 2
        # ---- backward cull
        culled: list[SetDict] = [dict() for _ in range(n)]
        culled[n - 1] = forward[n - 1]
        i = n - 2
        while i > 0:
            estep = steps[i]
            if isinstance(estep, RRegex):
                rev = _flip_group(estep)
                prev, kept = self._regex_cull(rev, culled[i + 1], forward[i - 1], forward[i])
                culled[i] = kept
                culled[i - 1] = prev
            else:
                assert isinstance(estep, REdgeStep)
                prev, kept = self._cull_edge(estep, culled[i + 1], forward[i - 1], forward[i])
                culled[i] = kept
                culled[i - 1] = prev
            i -= 2
        # ---- fold back to original indices
        result = AtomSets(len(atom.steps))
        for pos, (step, idx) in enumerate(tagged):
            if isinstance(step, RVertexStep):
                prior = result.vertex_sets.get(idx, {})
                result.vertex_sets[idx] = _union(prior, culled[pos]) if prior else culled[pos]
            else:
                prior = result.edge_sets.get(idx, {})
                result.edge_sets[idx] = _union(prior, culled[pos]) if prior else culled[pos]
        # labels get the final (culled) sets for cross-atom composition
        for pos, (step, _) in enumerate(tagged):
            if isinstance(step, RVertexStep):
                self._record_label(step, culled[pos])
            elif isinstance(step, REdgeStep):
                self._record_edge_label(step, culled[pos])
        return result

    def _cull_edge(
        self,
        estep: REdgeStep,
        culled_next: SetDict,
        forward_prev: SetDict,
        forward_edges: SetDict,
    ) -> tuple[SetDict, SetDict]:
        """Keep edges whose next-side endpoint survived; shrink prev."""
        culled_prev: SetDict = {}
        kept: SetDict = {}
        for ename in estep.names:
            eids = forward_edges.get(ename, _EMPTY)
            if len(eids) == 0:
                continue
            et = self.db.edge_type(ename)
            along = estep.direction == DIR_OUT
            next_type = et.target.name if along else et.source.name
            prev_type = et.source.name if along else et.target.name
            next_vids = culled_next.get(next_type, _EMPTY)
            if len(next_vids) == 0:
                continue
            prev_vids, kept_eids = self._cull(
                ename, along, eids, next_vids, forward_prev.get(prev_type, _EMPTY)
            )
            if len(kept_eids):
                kept = _union(kept, {ename: kept_eids})
                culled_prev = _union(culled_prev, {prev_type: idsets.unique(prev_vids)})
        return culled_prev, kept

    def _record_label(self, step: RVertexStep, sets: SetDict) -> None:
        if step.label is not None:
            self.label_env[step.label.name] = {
                t: v.copy() for t, v in sets.items()
            }

    def _record_edge_label(self, step: REdgeStep, sets: SetDict) -> None:
        if step.label is not None:
            self.edge_label_env[step.label.name] = {
                t: v.copy() for t, v in sets.items()
            }


def _flip_group(group: RRegex) -> RRegex:
    pairs = []
    for e, v in reversed(group.pairs):
        pairs.append(
            (
                REdgeStep(
                    list(e.names),
                    DIR_IN if e.direction == DIR_OUT else DIR_OUT,
                    e.cond,
                    e.label,
                    e.is_variant,
                    e.label_ref,
                ),
                v,
            )
        )
    return RRegex(pairs, group.op, group.count)
