"""Secondary indexes over table columns.

Three index kinds back the graph layer:

* :class:`HashIndex` — exact-match lookup from a key tuple to the row ids
  holding it.  This is how a vertex view maps a vertex key to its source
  row(s): one row for one-to-one mappings, several for many-to-one
  (Section II-A).
* :class:`SortedIndex` — lexsorted key columns beside their ids,
  supporting vectorized batch lookup on the whole (possibly composite)
  key (``lookup_many``) and copy-on-write growth (``extended``): what
  delta view maintenance probes instead of re-sorting a whole table
  (:meth:`Table.lookup_index <repro.storage.table.Table.lookup_index>`,
  vertex key resolution).
* :class:`AttributeIndex` — a range-capable lexsorted index over one or
  more attribute arrays (vid-aligned), the access structure behind
  ``create index`` DDL.  Equality seeks narrow column by column through
  the lexsorted order; range seeks apply to the column following the
  equality prefix — the classic composite B-tree contract.

:func:`sorted_insert` is the sorted merge all of them (and the edge views
and CSR indexes of :mod:`repro.graph`) grow by: one copy of each array,
new entries scattered into it.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.storage.relops import factorize, group_rows
from repro.storage.table import Table


def _grouped_rows(codes: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split row ids by group code, vectorized.

    Returns ``(representative_rows, groups)`` where ``groups[g]`` holds
    the ascending row ids carrying the g-th smallest code (codes from
    :func:`~repro.storage.relops.factorize`, so groups follow key order,
    NULL first) and ``representative_rows[g]`` is the first of them.
    """
    order = np.argsort(codes, kind="stable").astype(np.int64)
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    groups = np.split(order, boundaries)
    reps = order[np.r_[0, boundaries]]
    return reps, groups


class HashIndex:
    """Exact-match index: key tuple -> int64 array of row ids.

    The build is fully vectorized: key columns are factorized into group
    codes by :func:`~repro.storage.relops.factorize` (one
    :func:`~repro.storage.relops.column_codes` pass per column, NULL a
    key value of its own) and rows are grouped with a single stable
    argsort + split, instead of a per-row Python loop over
    ``table.num_rows`` tuples.
    """

    def __init__(self, table: Table, key_names: Sequence[str]) -> None:
        self.key_names = list(key_names)
        cols = [table.column(k) for k in self.key_names]
        if table.num_rows == 0:
            self._frozen: dict[tuple, np.ndarray] = {}
            return
        reps, groups = _grouped_rows(factorize(table, self.key_names))
        # only the one representative row per distinct key is touched
        # scalar-wise; everything row-aligned stayed in NumPy
        self._frozen = {
            tuple(c.value(int(r)) for c in cols): rows
            for r, rows in zip(reps, groups)
        }

    def lookup(self, key: tuple) -> np.ndarray:
        """Row ids holding *key* (possibly empty)."""
        return self._frozen.get(tuple(key), np.empty(0, dtype=np.int64))

    def contains(self, key: tuple) -> bool:
        return tuple(key) in self._frozen

    def keys(self) -> list[tuple]:
        return list(self._frozen.keys())

    def __len__(self) -> int:
        return len(self._frozen)


def bisect_ranges(
    col: np.ndarray, lo: np.ndarray, hi: np.ndarray, queries: np.ndarray, side: str = "left"
) -> np.ndarray:
    """Binary-search ``queries[i]`` inside the sorted run ``col[lo[i]:hi[i]]``.

    Vectorized across the queries — one NumPy pass per halving, over the
    still-open ranges only — so the cost is ``len(queries) * log(range)``
    whatever the size of *col*.  Returns absolute positions in *col*.
    """
    lo = np.array(lo, dtype=np.int64)
    hi = np.array(hi, dtype=np.int64)
    right = side == "right"
    while True:
        todo = np.flatnonzero(lo < hi)
        if len(todo) == 0:
            return lo
        mid = (lo[todo] + hi[todo]) >> 1
        below = col[mid] <= queries[todo] if right else col[mid] < queries[todo]
        below = np.asarray(below, dtype=bool)
        lo[todo[below]] = mid[below] + 1
        hi[todo[~below]] = mid[~below]


def sorted_insert(
    bases: Sequence[np.ndarray], at: np.ndarray, values: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """``[np.insert(b, at, v) for b, v in zip(bases, values)]`` for
    equally long *bases* and ascending insertion points *at*.

    ``v[j]`` goes before ``b[at[j]]`` (``at[j] == len(b)``: at the end),
    equal points keeping the order of *v*.  Each result is a new array of
    its base's dtype, written in one pass: the values by one scatter, the
    base as the ``len(at) + 1`` contiguous segments between the
    insertion points — no ``len(b)``-long mask — and, when every point
    is at the end, as a plain concatenation.  No argument is modified.
    """
    n, m = len(bases[0]), len(at)
    outs = [np.empty(n + m, dtype=b.dtype) for b in bases]
    if m == 0 or at[0] == n:
        for out, b, v in zip(outs, bases, values):
            out[:n] = b
            out[n:] = v
        return outs
    slots = at + np.arange(m)
    for out, v in zip(outs, values):
        out[slots] = v
    # numeric segments go as raw bytes through memoryviews (half the
    # cost per call of an ndarray slice assignment), anything else —
    # object arrays expose no buffer — as ndarray slices
    targets = [
        (memoryview(out).cast("B"), memoryview(np.ascontiguousarray(b)).cast("B"), b.itemsize)
        if b.dtype.kind in "biuf" else (out, b, 1)
        for out, b in zip(outs, bases)
    ]
    done = 0
    for j, a in enumerate([*at.tolist(), n]):
        if a > done:
            for dst, src, w in targets:
                dst[(done + j) * w : (a + j) * w] = src[done * w : a * w]
            done = a
    return outs


def lex_search(
    sorted_cols: Sequence[np.ndarray], queries: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Locate query tuples in columns sorted lexicographically.

    Returns ``(lo, hi)``: rows ``lo[i]:hi[i]`` equal query *i*; when
    there are none, ``lo[i] == hi[i]`` is where it would be inserted.
    """
    lo = np.searchsorted(sorted_cols[0], queries[0], side="left")
    hi = np.searchsorted(sorted_cols[0], queries[0], side="right")
    for col, q in zip(sorted_cols[1:], queries[1:]):
        lo, hi = (
            bisect_ranges(col, lo, hi, q, "left"),
            bisect_ranges(col, lo, hi, q, "right"),
        )
    return lo, hi


def _lex_order(cols: Sequence[np.ndarray]) -> np.ndarray:
    """The stable permutation sorting rows by *cols*, first column major."""
    if len(cols) == 1:
        return np.argsort(cols[0], kind="stable")
    return np.lexsort(tuple(reversed(cols)))


class SortedIndex:
    """Vectorized batch-lookup index: lexsorted key columns beside the
    ids carrying them.

    Each key column is any totally ordered array (factorized codes,
    numbers, an object array of ``str``); *ids* defaults to the
    positions.  :meth:`lookup_many` maps query tuples to ``(ids,
    query_index)`` by :func:`lex_search` over *all* columns, so a
    composite key costs ``len(queries) * log`` whatever the cardinality
    of its leading column; :meth:`extended` returns a new index with
    more entries merged in, leaving this one untouched.  It is what a
    join probes instead of re-sorting the big side, and what a vertex
    view resolves appended keys against.
    """

    def __init__(self, cols: Sequence[np.ndarray], ids: Optional[np.ndarray] = None) -> None:
        order = _lex_order(cols)
        self.sorted_cols = [c[order] for c in cols]
        self.ids = order.astype(np.int64) if ids is None else ids[order]

    def lookup_many(self, queries: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """For each query tuple (one array per key column), every id
        carrying it.

        Returns ``(ids, query_index)`` aligned arrays: ``ids[i]``
        matches query ``query_index[i]``.
        """
        lo, hi = lex_search(self.sorted_cols, queries)
        counts = hi - lo
        if counts.max(initial=0) <= 1:
            # unique keys: every query matches at most one entry
            hit = np.flatnonzero(counts)
            return self.ids[lo[hit]], hit
        total = int(counts.sum())
        qidx = np.repeat(np.arange(len(counts)), counts)
        starts = np.repeat(lo, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        return self.ids[starts + offsets], qidx

    def extended(self, cols: Sequence[np.ndarray], ids: np.ndarray) -> "SortedIndex":
        """A new index holding these entries too (equal keys keep
        arrival order: existing entries first)."""
        order = _lex_order(cols)
        cols = [c[order] for c in cols]
        _, at = lex_search(self.sorted_cols, cols)
        out = SortedIndex.__new__(SortedIndex)
        *out.sorted_cols, out.ids = sorted_insert(
            [*self.sorted_cols, self.ids], at, [*cols, ids[order]]
        )
        return out


class AttributeIndex:
    """Range-capable secondary index over vid-aligned attribute arrays.

    ``arrays[0]`` is the leading column; rows (vids) are lexsorted by the
    column sequence.  Seeks return **sorted** vid arrays so executor code
    can intersect them with other sorted vid sets directly:

    * :meth:`seek_eq` — all vids whose attribute prefix equals the given
      values (any prefix length up to the column count);
    * :meth:`seek_range` — vids in ``[lo, hi]`` (either bound optional,
      either bound exclusive) on the column right after an equality
      prefix.

    NULLs never match: rows carrying a NULL in any indexed column are
    dropped at build time (SQL semantics — ``a = NULL`` is not true).
    """

    def __init__(
        self,
        arrays: Sequence[np.ndarray],
        null_masks: Sequence[np.ndarray],
        ids: Optional[np.ndarray] = None,
        base: Optional["AttributeIndex"] = None,
        renumber: Optional[np.ndarray] = None,
    ) -> None:
        """Index the rows of *arrays* under *ids* (ascending; default
        ``0..n-1``), merged into the entries of *base* when given.

        Entries are ordered by ``(columns..., id)``, so merging a sorted
        batch at its ``lex_search`` positions gives the arrays a build
        over all rows at once would.  *renumber* maps *base*'s ids to
        their new values first (edge ids shift when edges are inserted
        before them); *base* itself is left untouched.
        """
        if ids is None:
            ids = np.arange(len(arrays[0]), dtype=np.int64)
        keep = np.ones(len(ids), dtype=bool)
        for m in null_masks:
            keep &= ~m
        ids = ids[keep]
        kept = [self._sortable(a[keep]) for a in arrays]
        order = _lex_order(kept)
        ids = ids[order]
        cols = [a[order] for a in kept]
        if base is not None:
            old_ids = base.vids if renumber is None else renumber[base.vids]
            at, _ = lex_search([*base.sorted_cols, old_ids], [*cols, ids])
            *cols, ids = sorted_insert([*base.sorted_cols, old_ids], at, [*cols, ids])
        #: vids in lexsorted attribute order
        self.vids: np.ndarray = ids
        #: per-column attribute values aligned with ``self.vids``
        self.sorted_cols: list[np.ndarray] = cols
        self.num_entries = len(self.vids)

    @staticmethod
    def _sortable(arr: np.ndarray) -> np.ndarray:
        """A totally-ordered view of *arr* (strings stay object dtype)."""
        if arr.dtype == np.dtype(object):
            return np.array([str(v) for v in arr], dtype=object)
        return arr

    def _narrow(self, lo: int, hi: int, col: int, value: Any) -> tuple[int, int]:
        sc = self.sorted_cols[col][lo:hi]
        return (
            lo + int(np.searchsorted(sc, value, side="left")),
            lo + int(np.searchsorted(sc, value, side="right")),
        )

    def seek_eq(self, values: Sequence[Any]) -> np.ndarray:
        """Sorted vids whose leading attributes equal *values*."""
        lo, hi = 0, self.num_entries
        for col, v in enumerate(values):
            lo, hi = self._narrow(lo, hi, col, v)
            if lo >= hi:
                break
        return np.sort(self.vids[lo:hi])

    def seek_range(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        *,
        low_exclusive: bool = False,
        high_exclusive: bool = False,
        prefix: Sequence[Any] = (),
    ) -> np.ndarray:
        """Sorted vids with ``low <= col <= high`` after an equality *prefix*.

        The range applies to column ``len(prefix)``; bounds are optional
        and may be exclusive.
        """
        lo, hi = 0, self.num_entries
        for col, v in enumerate(prefix):
            lo, hi = self._narrow(lo, hi, col, v)
            if lo >= hi:
                return np.empty(0, dtype=np.int64)
        col = len(prefix)
        sc = self.sorted_cols[col][lo:hi]
        if low is not None:
            side = "right" if low_exclusive else "left"
            lo2 = int(np.searchsorted(sc, low, side=side))
        else:
            lo2 = 0
        if high is not None:
            side = "left" if high_exclusive else "right"
            hi2 = int(np.searchsorted(sc, high, side=side))
        else:
            hi2 = hi - lo
        return np.sort(self.vids[lo + lo2 : lo + hi2])

    def __len__(self) -> int:
        return self.num_entries


def unique_key_codes(table: Table, key_names: Sequence[str]) -> tuple[np.ndarray, list[tuple]]:
    """Factorize key columns; return (codes per row, distinct key tuples).

    ``codes[i] == j`` means row *i* carries distinct key ``keys[j]``.
    Used by many-to-one vertex views where several rows share one key.
    """
    _, first, inv = group_rows(table, key_names)
    cols = [table.column(k) for k in key_names]
    keys = [tuple(c.value(int(i)) for c in cols) for i in first]
    return inv, keys


def key_tuple(table: Table, key_names: Sequence[str], row: int) -> tuple[Any, ...]:
    """The key tuple of one row (cold path)."""
    return tuple(table.column(k).value(row) for k in key_names)
