"""Set kernels over id arrays: the one place the sorted-unique invariant
is kept.

Frontiers, labels, subgraphs and cluster buckets hold vertex ids, edge
ids or dense group codes as **sorted-unique int64 arrays**
(``SetDict`` values in :mod:`repro.query.frontier`).  Every set
operation on them goes through this module, and every function here
returns a sorted-unique array, equal in dtype and values to the NumPy
function it replaces (``np.unique``, ``np.union1d``, ``np.intersect1d``,
``np.setdiff1d``) for any integer input, sorted or not.

The kernels are sort + adjacent-difference masks rather than
``np.unique``, whose hash path is several times slower on int64 arrays.
Inputs that already hold the invariant — the common case — are detected
by one vectorized comparison and not sorted again; two sorted runs are
merged by the run-adaptive stable sort in linear time.  Membership of
unsorted values (:func:`in_sorted`) is a bitmap lookup unless the inputs
are tiny or the set's span dwarfs them, else a binary search.  Nothing
is cached: outputs are fresh arrays or the (immutable by convention)
input.
"""

from __future__ import annotations

import numpy as np

#: :func:`in_sorted` answers from a bitmap over the set's span when the
#: inputs hold at least ``_BITMAP_MIN_INPUT`` elements and the span is at
#: most ``_BITMAP_SPAN_RATIO`` times that many (EXPERIMENTS.md IDSET-1:
#: a binary search of unsorted values costs a cache miss per value and
#: loses from a few hundred elements on, up to a span of ~100-200x the
#: inputs; below that size the bitmap's fixed cost loses)
_BITMAP_MIN_INPUT = 512
_BITMAP_SPAN_RATIO = 64


def _ascending(ids: np.ndarray) -> bool:
    """True when *ids* is strictly increasing (sorted and unique)."""
    return len(ids) < 2 or bool((ids[1:] > ids[:-1]).all())


def _drop_repeats(s: np.ndarray) -> np.ndarray:
    """The first element of every run of equal values of sorted *s*."""
    if len(s) < 2:
        return s
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s if keep.all() else s[keep]


def unique(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values of *ids* (``np.unique(ids)``).

    Returns *ids* itself when it is already sorted-unique.
    """
    if _ascending(ids):
        return ids
    return _drop_repeats(np.sort(ids))


def _merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted concatenation of two sorted-unique arrays."""
    return np.sort(np.concatenate((a, b)), kind="stable")


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted values in *a* or *b* (``np.union1d``)."""
    return _drop_repeats(_merged(unique(a), unique(b)))


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted values in both *a* and *b* (``np.intersect1d``)."""
    s = _merged(unique(a), unique(b))
    return s[:-1][s[1:] == s[:-1]]


def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted values of *a* not in *b* (``np.setdiff1d``)."""
    a = unique(a)
    return a[~in_sorted(a, unique(b))]


def in_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Boolean mask: ``values[i]`` is in the sorted integer array
    *sorted_set* (*values* in any order).

    Sets over a span of at most 64 times the inputs — vids and eids are
    small ranges — are looked up in a bitmap over the span (at most 64
    bytes per input element, freed on return); tiny inputs and sparse
    sets by ``searchsorted``.
    """
    if len(sorted_set) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    lo, hi = sorted_set[0], sorted_set[-1]
    span = int(hi) - int(lo) + 1
    size = len(values) + len(sorted_set)
    if _BITMAP_MIN_INPUT <= size and span <= _BITMAP_SPAN_RATIO * size:
        table = np.zeros(span, dtype=bool)
        table[sorted_set - lo] = True
        inside = (values >= lo) & (values <= hi)
        if inside.all():
            return table[values - lo]
        out = np.zeros(len(values), dtype=bool)
        out[inside] = table[values[inside] - lo]
        return out
    pos = np.searchsorted(sorted_set, values)
    pos = np.minimum(pos, len(sorted_set) - 1)
    return sorted_set[pos] == values
