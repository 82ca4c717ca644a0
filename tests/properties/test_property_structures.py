"""Property-based structural invariants: CSR indexes, vertex views, ingest."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.dtypes import INTEGER, VarChar
from repro.graph.edge_index import EdgeIndex
from repro.graph.vertex import VertexType
from repro.storage import Schema, Table
from repro.storage.csvio import read_csv_text_into


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=0, max_value=60))
    src = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=m, max_size=m
        )
    )
    tgt = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=m, max_size=m
        )
    )
    return n, np.asarray(src, dtype=np.int64), np.asarray(tgt, dtype=np.int64)


class TestCSRInvariants:
    @given(edge_lists())
    @settings(max_examples=100, deadline=None)
    def test_structure(self, data):
        n, src, tgt = data
        idx = EdgeIndex(n, src, tgt)
        # indptr is monotone and spans all edges
        assert idx.indptr[0] == 0
        assert idx.indptr[-1] == len(src)
        assert (np.diff(idx.indptr) >= 0).all()
        # every eid appears exactly once
        assert sorted(idx.eids.tolist()) == list(range(len(src)))
        # degrees sum to edge count
        assert int(idx.degrees().sum()) == len(src)

    @given(edge_lists())
    @settings(max_examples=100, deadline=None)
    def test_adjacency_preserved(self, data):
        n, src, tgt = data
        idx = EdgeIndex(n, src, tgt)
        for eid in range(len(src)):
            assert tgt[eid] in idx.neighbors_of(int(src[eid])).tolist()

    @given(edge_lists())
    @settings(max_examples=100, deadline=None)
    def test_expand_equals_per_vertex_union(self, data):
        n, src, tgt = data
        idx = EdgeIndex(n, src, tgt)
        frontier = np.unique(src)[:5]
        srcs, tgts, eids = idx.expand(frontier)
        # expansion of the frontier == concatenation of per-vertex lists
        expected = []
        for v in frontier:
            expected.extend((int(v), int(t)) for t in idx.neighbors_of(int(v)))
        assert sorted(zip(srcs.tolist(), tgts.tolist())) == sorted(expected)

    @given(edge_lists())
    @settings(max_examples=100, deadline=None)
    def test_forward_reverse_are_transposes(self, data):
        n, src, tgt = data
        fwd = EdgeIndex(n, src, tgt)
        rev = EdgeIndex(n, tgt, src)
        fwd_pairs = sorted(
            zip(np.repeat(np.arange(n), np.diff(fwd.indptr)).tolist(),
                fwd.neighbors.tolist())
        )
        rev_pairs = sorted(
            zip(rev.neighbors.tolist(),
                np.repeat(np.arange(n), np.diff(rev.indptr)).tolist())
        )
        assert fwd_pairs == rev_pairs


SCHEMA = Schema.of(("id", INTEGER), ("k", VarChar(2)))

vertex_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.sampled_from(["a", "b", "c", None]),
    ),
    max_size=50,
)


class TestVertexViewInvariants:
    @given(vertex_rows)
    @settings(max_examples=100, deadline=None)
    def test_one_vertex_per_distinct_key(self, rows):
        t = Table.from_rows("T", SCHEMA, rows)
        vt = VertexType("V", ["k"], t)
        distinct = {r[1] for r in rows if r[1] is not None}
        assert vt.num_vertices == len(distinct)
        assert {k[0] for k in vt.key_tuples()} == distinct

    @given(vertex_rows)
    @settings(max_examples=100, deadline=None)
    def test_row_vids_consistent(self, rows):
        t = Table.from_rows("T", SCHEMA, rows)
        vt = VertexType("V", ["id"], t)
        # every selected row maps to a vid whose key equals the row's key
        for pos, row_idx in enumerate(vt.rows):
            vid = int(vt.row_vids[pos])
            assert vt.key_of(vid) == (rows[int(row_idx)][0],)


class TestIngestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-1000, max_value=1000),
                st.sampled_from(["a", "b", ""]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_csv_roundtrip_row_count(self, rows):
        text = "\n".join(f"{n},{k}" for n, k in rows)
        t = Table("T", SCHEMA)
        count = read_csv_text_into(t, text + ("\n" if text else ""))
        assert count == len(rows)
        assert t.num_rows == len(rows)
