"""Edge-construction join planner: cross joins, cycles, batch ordering."""

import pytest

from repro.dtypes import INTEGER, VarChar
from repro.graph import GraphDB
from repro.graql.parser import parse_expression
from repro.storage.schema import Schema


def db_two_types():
    db = GraphDB()
    db.create_table("L", Schema.of(("id", INTEGER), ("g", INTEGER)))
    db.create_table("R", Schema.of(("id", INTEGER), ("g", INTEGER)))
    db.tables["L"].append_rows([(0, 1), (1, 2), (2, 1)])
    db.tables["R"].append_rows([(10, 1), (11, 3)])
    db.create_vertex("LV", ["id"], "L")
    db.create_vertex("RV", ["id"], "R")
    return db


class TestCrossJoin:
    def test_no_predicates_gives_cross_product(self):
        db = db_two_types()
        et = db.create_edge("allpairs", "LV", "RV", None, None, None, None)
        # 3 x 2 pairs, deduped on (src,tgt): all distinct
        assert et.num_edges == 6

    def test_filter_only_where(self):
        db = db_two_types()
        et = db.create_edge(
            "samegroup",
            "LV",
            "RV",
            None,
            None,
            None,
            parse_expression("LV.g = RV.g"),
        )
        # group 1: L rows 0,2 x R row 10 -> two edges
        assert et.num_edges == 2


class TestJoinCycles:
    def test_cycle_predicate_becomes_filter(self):
        """A join predicate whose relations are already joined must filter."""
        db = GraphDB()
        db.create_table("N", Schema.of(("id", INTEGER), ("x", INTEGER), ("y", INTEGER)))
        db.tables["N"].append_rows([(0, 1, 1), (1, 2, 3), (2, 5, 5)])
        db.create_vertex("V", ["id"], "N")
        # two equality predicates between the same two relations: the
        # second closes a cycle and must act as a filter
        et = db.create_edge(
            "match",
            "V",
            "V",
            "A",
            "B",
            None,
            parse_expression("A.x = B.x and A.y = B.y"),
        )
        vt = db.vertex_type("V")
        pairs = {
            (int(et.src_vids[i]), int(et.tgt_vids[i]))
            for i in range(et.num_edges)
        }
        # rows match themselves only (all have x==x, y==y), since both
        # coordinates must agree
        assert pairs == {(v, v) for v in range(vt.num_vertices)}


class TestMultiPredicateBatch:
    def test_composite_join_keys(self):
        db = GraphDB()
        db.create_table("P", Schema.of(("id", VarChar(4)), ("a", INTEGER), ("b", INTEGER)))
        db.create_table("Q", Schema.of(("id", VarChar(4)), ("a", INTEGER), ("b", INTEGER)))
        db.tables["P"].append_rows([("p0", 1, 1), ("p1", 1, 2)])
        db.tables["Q"].append_rows([("q0", 1, 1), ("q1", 2, 2)])
        db.create_vertex("PV", ["id"], "P")
        db.create_vertex("QV", ["id"], "Q")
        et = db.create_edge(
            "both",
            "PV",
            "QV",
            None,
            None,
            None,
            parse_expression("PV.a = QV.a and PV.b = QV.b"),
        )
        # only (p0, q0) agrees on both columns
        assert et.num_edges == 1

    def test_assoc_chain_through_two_tables(self):
        """S -> A -> B -> T join chain resolved greedily."""
        db = GraphDB()
        db.create_table("S", Schema.of(("id", INTEGER)))
        db.create_table("T", Schema.of(("id", INTEGER)))
        db.create_table("A", Schema.of(("s", INTEGER), ("k", INTEGER)))
        db.create_table("B", Schema.of(("k", INTEGER), ("t", INTEGER)))
        db.tables["S"].append_rows([(0,), (1,)])
        db.tables["T"].append_rows([(7,), (8,)])
        db.tables["A"].append_rows([(0, 100), (1, 200)])
        db.tables["B"].append_rows([(100, 7), (200, 8), (100, 8)])
        db.create_vertex("SV", ["id"], "S")
        db.create_vertex("TV", ["id"], "T")
        et = db.create_edge(
            "chain",
            "SV",
            "TV",
            None,
            None,
            None,
            parse_expression(
                "A.s = SV.id and B.k = A.k and TV.id = B.t"
            ),
        )
        sv = db.vertex_type("SV")
        tv = db.vertex_type("TV")
        pairs = {
            (sv.key_of(int(et.src_vids[i]))[0], tv.key_of(int(et.tgt_vids[i]))[0])
            for i in range(et.num_edges)
        }
        assert pairs == {(0, 7), (0, 8), (1, 8)}


class TestSkewedCompositeKeys:
    """A composite key is probed on *all* its columns: a low-cardinality
    leading column must not fan the intermediate result out to
    |batch| x |rows per leading value| (measured by allocation, which
    repeats, not by time)."""

    N = 5000
    #: the arrays themselves are ~1 MB; probing the leading column alone
    #: would allocate several hundred
    BUDGET = 32 * 2**20

    def peak_bytes(self, fn):
        import tracemalloc

        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_multi_predicate_edge_build_and_deltas(self):
        n = self.N
        db = GraphDB()
        db.create_table("T", Schema.of(("a", INTEGER), ("b", INTEGER)))
        db.create_table("K", Schema.of(("x", INTEGER), ("y", INTEGER), ("z", INTEGER)))
        db.tables["T"].append_rows([(i % 5, i) for i in range(n)])
        db.tables["K"].append_rows([(i % 5, i, (i * 7) % n) for i in range(n)])
        db.create_vertex("A", ["a", "b"], "T")
        db.create_vertex("B", ["a", "b"], "T")
        where = parse_expression("K.x = A.a and K.y = A.b and K.z = B.b")

        def build_and_grow():
            db.create_edge("E", "A", "B", None, None, ["K"], where)
            db.ingest_rows("K", [(1, 1, 8), (2, 2, 9), (3, 2, 9)])  # the last matches no A
            db.ingest_rows("T", [(0, n), (1, n)])
            db.ingest_rows("K", [(0, n, n)])

        assert self.peak_bytes(build_and_grow) < self.BUDGET
        et = db.edge_type("E")
        a, b = db.vertex_type("A"), db.vertex_type("B")
        # past the n bulk edges; both (0, n) and (1, n) carry B.b = n
        assert [
            (int(r), a.key_of(int(s)), b.key_of(int(t)))
            for r, s, t in zip(et.assoc_rows[n:], et.src_vids[n:], et.tgt_vids[n:])
        ] == [
            (n, (1, 1), (3, 8)),
            (n + 1, (2, 2), (4, 9)),
            (n + 3, (0, n), (0, n)),
            (n + 3, (0, n), (1, n)),
        ]

    def test_composite_vertex_key_resolution(self):
        n = self.N
        db = GraphDB()
        db.create_table("T", Schema.of(("grp", INTEGER), ("id", INTEGER)))
        db.create_vertex("VG", ["grp", "id"], "T")
        db.ingest_rows("T", [(i % 5, i) for i in range(n)])
        vt = db.vertex_type("VG")

        def grow():
            # half known keys, half new ones
            db.ingest_rows("T", [(i % 5, i) for i in range(n // 2, n + n // 2)])

        assert self.peak_bytes(grow) < self.BUDGET
        assert vt.num_vertices == n + n // 2
        assert not vt.one_to_one
        assert vt.row_vids[n:].tolist() == list(range(n // 2, n + n // 2))
