"""Unit tests for named subgraphs (Section II-C)."""

import numpy as np

from repro.graph import Subgraph


def sg(name="G", **kwargs):
    vertices = {k: np.asarray(v) for k, v in kwargs.get("v", {}).items()}
    edges = {k: np.asarray(v) for k, v in kwargs.get("e", {}).items()}
    return Subgraph(name, vertices, edges)


class TestBasics:
    def test_ids_deduped_and_sorted(self):
        g = sg(v={"A": [3, 1, 3, 2]})
        assert g.vertex_ids("A").tolist() == [1, 2, 3]

    def test_empty_types_dropped(self):
        g = sg(v={"A": [], "B": [1]})
        assert not g.has_vertex_type("A")
        assert g.has_vertex_type("B")

    def test_missing_type_gives_empty(self):
        g = sg(v={"A": [1]})
        assert len(g.vertex_ids("ZZZ")) == 0

    def test_counts(self):
        g = sg(v={"A": [1, 2], "B": [3]}, e={"e": [0, 1, 2]})
        assert g.num_vertices == 3
        assert g.num_edges == 3


class TestAlgebra:
    def test_union(self):
        a = sg(v={"A": [1, 2]}, e={"e": [0]})
        b = sg(v={"A": [2, 3], "B": [0]}, e={"f": [1]})
        u = a.union(b)
        assert u.vertex_ids("A").tolist() == [1, 2, 3]
        assert u.vertex_ids("B").tolist() == [0]
        assert u.edge_ids("e").tolist() == [0]
        assert u.edge_ids("f").tolist() == [1]

    def test_union_is_commutative(self):
        a = sg(v={"A": [1]})
        b = sg(v={"A": [2]})
        assert a.union(b) == b.union(a)

    def test_equality(self):
        assert sg(v={"A": [1, 2]}) == sg(v={"A": [2, 1]})
        assert sg(v={"A": [1]}) != sg(v={"A": [2]})

    def test_repr(self):
        assert "A" in repr(sg(v={"A": [1]}))
