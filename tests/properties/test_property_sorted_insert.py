"""``sorted_insert`` ≡ ``np.insert``, bit for bit.

:func:`repro.storage.indexes.sorted_insert` is the one sorted-merge
kernel of delta view maintenance (edge views, CSR directions, sorted
and attribute indexes).  It writes the base arrays as contiguous
segments between the insertion points instead of through
``np.insert``'s full-length mask; the result must not tell the two
apart — same dtype, same bits (NaN payloads, ``-0.0``), same objects —
for every placement of the points: none, all at the end (an append),
all at the front, all at one position, anywhere.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.storage.indexes import sorted_insert

INTS = st.integers(-(2**63), 2**63 - 1)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), -0.0, 0.0, float("-inf")]),
)
OBJECTS = st.one_of(st.none(), st.text(max_size=4))


@st.composite
def insertions(draw):
    """``n`` base rows, ``m`` ascending insertion points, and aligned
    int64 / float64 / object columns for the base and the values."""
    n = draw(st.integers(0, 30))
    m = draw(st.integers(0, 10))
    placement = draw(st.sampled_from(["anywhere", "end", "front", "one point"]))
    if placement == "anywhere":
        at = sorted(draw(st.lists(st.integers(0, n), min_size=m, max_size=m)))
    elif placement == "one point":
        at = [draw(st.integers(0, n))] * m
    else:
        at = [n if placement == "end" else 0] * m

    def columns(size):
        return [
            np.array(draw(st.lists(INTS, min_size=size, max_size=size)), dtype=np.int64),
            np.array(draw(st.lists(FLOATS, min_size=size, max_size=size)), dtype=np.float64),
            np.array(draw(st.lists(OBJECTS, min_size=size, max_size=size)), dtype=object),
        ]

    return columns(n), np.array(at, dtype=np.int64), columns(m)


def same(x: np.ndarray, y: np.ndarray) -> bool:
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    if x.dtype == np.float64:
        return np.array_equal(x.view(np.int64), y.view(np.int64))
    return all(a is b or (type(a) is type(b) and a == b) for a, b in zip(x, y))


@given(insertions())
@settings(max_examples=300, deadline=None)
def test_sorted_insert_is_np_insert(case):
    bases, at, values = case
    before = [b.copy() for b in bases]
    got = sorted_insert(bases, at, values)
    for out, base, old, vals in zip(got, bases, before, values):
        assert same(out, np.insert(base, at, vals))
        assert same(base, old)  # the base is left as it was
        assert out is not base
