"""Bidirectional CSR edge indexes (paper Section III-B).

    "A fundamental data structure that we use in the GEMS cluster backend
    is the edge index. ... we not only create an edge index in the lexical
    direction declared by the user S -> E -> T, but also in the reverse
    direction T -> E -> S."

An :class:`EdgeIndex` stores one direction as compressed sparse rows:
``indptr`` over source vids, with parallel ``neighbors`` (endpoint vids)
and ``eids`` arrays.  Expansion of a whole frontier is a single gather —
no per-vertex Python loops — which is what makes the set-frontier query
strategy fast and what the distributed backend shards per worker.

The indexes are delta-maintained: an :class:`EdgeIndex` is immutable, and
a refresh builds the next one from the previous plus the new edges
instead of re-sorting all edges.  Each new edge lands at the end of its
source's run when every new eid exceeds the old ones (an append), else
where a binary search of the run by eid puts it, old eids renumbered
when edges were inserted before them; the offsets move up by a
run-length expansion over the sorted new sources, and the max degree
and the count of non-empty sources are updated from the sources the
batch touched.  So a merge costs O(batch · log |E|) plus one copy of
each array.  Runs are ordered by eid and eids follow the canonical edge
order, so the arrays equal those of a one-shot build over the final
tables — the one-shot build being the same merge into an empty index.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.storage import idsets
from repro.storage.indexes import bisect_ranges, sorted_insert


class EdgeIndex:
    """One direction of adjacency in CSR form."""

    def __init__(
        self,
        num_sources: int,
        from_vids: np.ndarray,
        to_vids: np.ndarray,
        eids: Optional[np.ndarray] = None,
        base: Optional["EdgeIndex"] = None,
        renumber: Optional[np.ndarray] = None,
    ) -> None:
        """Index the given edges (*eids* ascending; default ``0..m-1``),
        merged into the entries of *base* when given.

        *base* holds eids ``0..base.num_edges-1``; *renumber* maps them
        to their new values first, and *base* itself is left untouched.
        Each source's run is ordered by eid, so a new entry goes where a
        binary search of its run puts it — at the run's end when every
        new eid exceeds the old ones, the append case, which needs no
        search — and the result is the arrays a stable sort of all edges
        would give.  Without *base* the index is that merge into an
        empty one: the one-shot build.
        """
        if eids is None:
            eids = np.arange(len(from_vids), dtype=np.int64)
        order = np.argsort(from_vids, kind="stable")
        src, to_vids, eids = from_vids[order], to_vids[order], eids[order]
        self.num_sources = int(num_sources)
        if base is None:
            old_indptr, old_neighbors, old_eids = np.zeros(1, np.int64), to_vids[:0], eids[:0]
            old_max = old_nonempty = 0
        else:
            old_indptr, old_neighbors = base.indptr, base.neighbors
            old_eids = base.eids if renumber is None else renumber[base.eids]
            old_max, old_nonempty = base.max_degree, base.nonempty_sources
        # each new edge's source run in the old arrays; sources past the
        # old count have empty runs at the end
        last = len(old_indptr) - 1
        starts = old_indptr[np.minimum(src, last)]
        ends = old_indptr[np.minimum(src + 1, last)]
        if len(eids) and eids.min() < len(old_eids):
            at = bisect_ranges(old_eids, starts, ends, eids)
        else:
            at = ends
        self.neighbors, self.eids = sorted_insert(
            [old_neighbors, old_eids], at, [to_vids, eids]
        )
        # offset v moves up by the number of new edges from sources < v:
        # a step function of v, run-length expanded from the sorted sources
        steps = np.concatenate([[-1], src, [self.num_sources]])
        indptr = np.repeat(np.arange(len(src) + 1, dtype=np.int64), steps[1:] - steps[:-1])
        indptr[: last + 1] += old_indptr
        indptr[last + 1 :] += old_indptr[-1]
        self.indptr = indptr
        # degree totals, updated from the sources this merge touched
        #: the largest out-degree
        self.max_degree: int = old_max
        if len(src):
            self.max_degree = max(old_max, int((indptr[src + 1] - indptr[src]).max()))
        fresh = (steps[1:-1] != steps[:-2]) & (starts == ends)
        #: the number of sources with at least one edge
        self.nonempty_sources: int = old_nonempty + int(np.count_nonzero(fresh))

    @property
    def num_edges(self) -> int:
        return len(self.neighbors)

    def degree(self, vid: int) -> int:
        return int(self.indptr[vid + 1] - self.indptr[vid])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors_of(self, vid: int) -> np.ndarray:
        return self.neighbors[self.indptr[vid] : self.indptr[vid + 1]]

    def eids_of(self, vid: int) -> np.ndarray:
        return self.eids[self.indptr[vid] : self.indptr[vid + 1]]

    def expand(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand a frontier of vids in one vectorized gather.

        Returns aligned ``(sources, targets, eids)`` — one entry per
        traversed edge, where ``sources[i]`` is the frontier vid the edge
        left from.  This is the hot loop of path-query execution.
        """
        starts = self.indptr[frontier]
        ends = self.indptr[frontier + 1]
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), e.copy()
        srcs = np.repeat(frontier, counts)
        base = np.repeat(starts, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        slots = base + offsets
        return srcs, self.neighbors[slots], self.eids[slots]

    def expand_restricted(self, frontier: np.ndarray, allowed_eids: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand, keeping only edges whose eid is in *allowed_eids*.

        *allowed_eids* must be sorted; None means all edges allowed.
        """
        srcs, tgts, eids = self.expand(frontier)
        if allowed_eids is None or len(eids) == 0:
            return srcs, tgts, eids
        mask = idsets.in_sorted(eids, allowed_eids)
        return srcs[mask], tgts[mask], eids[mask]

    def __repr__(self) -> str:
        return f"EdgeIndex(sources={self.num_sources}, edges={self.num_edges})"


class BidirectionalIndex:
    """Forward (S->T) and reverse (T->S) CSR indexes for one edge type."""

    def __init__(self, edge_type) -> None:
        self.edge_type = edge_type
        self.forward: Optional[EdgeIndex] = None
        self.reverse: Optional[EdgeIndex] = None
        self.publish(self.merged(edge_type.snapshot()))

    def merged(self, delta) -> tuple[EdgeIndex, EdgeIndex]:
        """Both directions with the edges of an
        :class:`~repro.graph.edge.EdgeDelta` merged in.  Publishes
        nothing."""
        ids = delta.ids
        src, tgt = delta.src_vids[ids.inserted], delta.tgt_vids[ids.inserted]
        return (
            EdgeIndex(delta.num_sources, src, tgt, ids.inserted, self.forward, ids.renumber),
            EdgeIndex(delta.num_targets, tgt, src, ids.inserted, self.reverse, ids.renumber),
        )

    def publish(self, pair: tuple[EdgeIndex, EdgeIndex]) -> None:
        self.forward, self.reverse = pair

    def direction(self, outgoing: bool) -> EdgeIndex:
        """The index to use when traversing along (True) or against
        (False) the declared direction."""
        return self.forward if outgoing else self.reverse

    def __repr__(self) -> str:
        return f"BidirectionalIndex({self.edge_type.name!r})"
