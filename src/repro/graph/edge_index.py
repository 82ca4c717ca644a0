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
a refresh builds the next one from the previous plus the new edges — each
lands in its source's run by eid (a per-run binary search), old eids are
renumbered when edges were inserted before them — instead of re-sorting
all edges.  Runs are ordered by eid and eids follow the canonical edge
order, so the arrays equal those of a one-shot build over the final
tables.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.storage import idsets
from repro.storage.indexes import bisect_ranges


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

        Each source's run is ordered by eid, so a new entry goes where a
        per-run binary search puts it — new eids past all old ones land
        at the ends of their runs — and the result is the arrays a
        stable sort of all edges would give.  *renumber* maps *base*'s
        eids to their new values first; *base* itself is left untouched.
        """
        if eids is None:
            eids = np.arange(len(from_vids), dtype=np.int64)
        order = np.argsort(from_vids, kind="stable")
        from_vids, to_vids, eids = from_vids[order], to_vids[order], eids[order]
        self.num_sources = int(num_sources)
        counts = np.bincount(from_vids, minlength=self.num_sources)
        if base is None:
            self.neighbors = to_vids
            self.eids = eids
            self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            return
        old_eids = base.eids if renumber is None else renumber[base.eids]
        # sources past the old count have empty runs at the end
        indptr = np.concatenate(
            [base.indptr, np.full(self.num_sources - base.num_sources, base.indptr[-1])]
        )
        at = bisect_ranges(old_eids, indptr[from_vids], indptr[from_vids + 1], eids)
        self.neighbors = np.insert(base.neighbors, at, to_vids)
        self.eids = np.insert(old_eids, at, eids)
        indptr[1:] += np.cumsum(counts)
        self.indptr = indptr

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
