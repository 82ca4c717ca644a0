"""Integration-level tests for statement execution and composition."""

import numpy as np
import pytest

from repro import Server
from repro.errors import CatalogError, ExecutionError
from repro.obs import QueryOptions


class TestDDLExecution:
    def test_create_and_count_messages(self, social_db):
        results = social_db.execute("create table Extra(id varchar(4))")
        assert results[0].kind == "ddl"
        assert "Extra" in social_db.catalog.tables

    def test_vertex_result_counts_instances(self, social_db):
        r = social_db.execute(
            "create vertex Country(country) from table People"
        )[0]
        assert r.count == 3  # US, DE, FR


class TestGraphToTable:
    def test_into_table_registers(self, social_db):
        social_db.execute(
            "select y.id from graph Person (country = 'US') --follows--> "
            "def y: Person ( ) into table USFollows"
        )
        t = social_db.table("USFollows")
        assert t.num_rows == 5  # p1->p2 x2, p3->p1, p5->p3, p5->p6
        assert social_db.catalog.is_table("USFollows")

    def test_result_table_queryable(self, social_db):
        social_db.execute(
            "select y.id from graph Person ( ) --follows--> def y: Person ( ) "
            "into table All1"
        )
        out = social_db.query(
            "select id, count(*) as n from table All1 group by id "
            "order by n desc, id asc"
        )
        assert out.num_rows > 0

    def test_anonymous_table_result(self, social_db):
        t = social_db.query(
            "select y.id from graph Person (name = 'Dan') --follows--> "
            "def y: Person ( )"
        )
        assert t.to_rows() == [("p1",)]


class TestGraphToSubgraph:
    def test_star_subgraph(self, social_db):
        sg = social_db.query_subgraph(
            "select * from graph Person (country = 'US') --follows--> "
            "Person ( ) into subgraph G1"
        )
        assert sg.num_vertices > 0 and sg.num_edges > 0
        assert social_db.db.subgraph("G1") == sg

    def test_endpoint_projection(self, social_db):
        sg = social_db.query_subgraph(
            "select src, dst from graph def src: Person (country = 'US') "
            "--follows--> def dst: Person ( ) into subgraph Ends"
        )
        assert sg.num_edges == 0  # vertices only
        assert "Person" in sg.vertices

    def test_chaining_fig12(self, social_db):
        social_db.execute(
            "select dst from graph Person (name = 'Eve') --follows--> "
            "def dst: Person ( ) into subgraph EveTargets"
        )
        t = social_db.query(
            "select y.id from graph EveTargets.Person ( ) --follows--> "
            "def y: Person ( ) into table Onward"
        )
        # Eve follows p3 and p6; p3 follows p1, p6 follows p2
        assert sorted(r[0] for r in t.to_rows()) == ["p1", "p2"]


PATH_DDL = """
create table N(id varchar(4))
create table E(src varchar(4), dst varchar(4))
create vertex V(id) from table N
create edge e with vertices (V as A, V as B) from table E
where E.src = A.id and E.dst = B.id
"""


def path_server(workers=None):
    """A server over the 21-vertex path n00 -> n01 -> ... -> n20."""
    names = [f"n{i:02d}" for i in range(21)]
    server = Server(workers=workers)
    server.submit("admin", PATH_DDL)
    server.backend.ingest_rows("N", [(n,) for n in names])
    server.backend.ingest_rows("E", list(zip(names, names[1:])))
    server.catalog.refresh(server.backend)
    if server.cluster is not None:
        server.cluster.rebuild()
    return server


def label_chain(k: int, name: str) -> str:
    """k atoms chained by labels, ending at the path's last vertex: only
    the k+1 vertices n(20-k)..n20 lie on a match."""
    atoms = ["V ( ) --e--> def x1: V ( )"]
    atoms += [f"x{i} --e--> def x{i + 1}: V ( )" for i in range(1, k - 1)]
    atoms.append(f"x{k - 1} --e--> V (id = 'n20')")
    return f"select * from graph {' and '.join(atoms)} into subgraph {name}"


def _ids(subgraph) -> list[int]:
    return sorted(subgraph.vertex_ids("V").tolist())


class TestAndComposition:
    def test_set_refinement_propagates(self, social_db):
        # US people who follow someone AND live in a big city; the and-arm
        # constrains the labeled step retroactively
        sg = social_db.query_subgraph(
            "select * from graph def x: Person (country = 'DE') --follows--> "
            "Person ( ) and (x --livesIn--> City (population > 3000000)) "
            "into subgraph G"
        )
        vt = social_db.db.vertex_type("Person")
        firsts = {vt.key_of(int(v))[0] for v in sg.vertex_ids("Person")}
        # both p2 and p6 are DE and berlin qualifies
        assert {"p2", "p6"} <= firsts

    def test_and_join_multiplicities(self, social_db):
        t = social_db.query(
            "select y.id as who, City.id as city from graph "
            "Person (country = 'US') --follows--> foreach y: Person ( ) "
            "and (y --livesIn--> City ( )) into table T"
        )
        for who, city in t.to_rows():
            p = social_db.db.vertex_type("Person")
            c = social_db.db.vertex_type("City")
            # the joined city really is the person's city
            vid = p.vid_of((who,))
            assert p.attributes_of(vid)["country"] == c.attributes_of(
                c.vid_of((city,))
            )["country"]

    # a constraint at the end of a long label chain must reach the first
    # atom: set refinement runs to its fixpoint
    @pytest.mark.parametrize("k", range(2, 9))
    def test_label_chain_set_matches_bindings(self, k):
        server = path_server()
        got = {
            strategy: _ids(server.submit(
                "admin", label_chain(k, f"S{strategy}"),
                options=QueryOptions(strategy=strategy),
            )[0].subgraph)
            for strategy in ("set", "bindings")
        }
        assert got["set"] == got["bindings"]
        assert len(got["set"]) == k + 1

    def test_label_chain_on_cluster(self):
        ref = _ids(path_server().submit("admin", label_chain(6, "L"))[0].subgraph)
        result = path_server(workers=3).submit("admin", label_chain(6, "D"))[0]
        assert result.profile.dist is not None  # swept on the cluster
        assert _ids(result.subgraph) == ref
        assert len(ref) == 7


class TestOrComposition:
    def test_union_of_subgraphs(self, social_db):
        a = social_db.query_subgraph(
            "select * from graph Person (name = 'Alice') --follows--> "
            "Person ( ) into subgraph A1"
        )
        b = social_db.query_subgraph(
            "select * from graph Person (name = 'Alice') --livesIn--> "
            "City ( ) into subgraph B1"
        )
        u = social_db.query_subgraph(
            "select * from graph Person (name = 'Alice') --follows--> "
            "Person ( ) or (Person (name = 'Alice') --livesIn--> City ( )) "
            "into subgraph U1"
        )
        assert u == a.union(b, "U1")


class TestParams:
    def test_parameterized_execution(self, social_db):
        t = social_db.query(
            "select y.id from graph Person (name = %Who%) --follows--> "
            "def y: Person ( )",
            params={"Who": "Eve"},
        )
        assert sorted(r[0] for r in t.to_rows()) == ["p3", "p6"]

    def test_unbound_param_fails_cleanly(self, social_db):
        from repro.errors import TypeCheckError

        with pytest.raises((ExecutionError, TypeCheckError)):
            social_db.query(
                "select y.id from graph Person (name = %Who%) --follows--> "
                "def y: Person ( )"
            )


class TestStrategyOverrides:
    def test_forced_direction_same_answer(self, social_db):
        from repro.obs import QueryOptions

        q = ("select * from graph Person (country = 'US') --follows--> "
             "Person (country = 'DE') into subgraph F1")
        a = social_db.execute(
            q, options=QueryOptions(direction="forward")
        )[0].subgraph
        q2 = q.replace("F1", "F2")
        b = social_db.execute(
            q2, options=QueryOptions(direction="backward")
        )[0].subgraph
        assert {k: v.tolist() for k, v in a.vertices.items()} == {
            k: v.tolist() for k, v in b.vertices.items()
        }

    def test_forced_bindings_subgraph_same_as_set(self, social_db):
        from repro.obs import QueryOptions

        q = ("select * from graph Person ( ) --follows--> Person ( ) "
             "into subgraph S1")
        a = social_db.execute(q)[0].subgraph
        b = social_db.execute(
            q.replace("S1", "S2"), options=QueryOptions(strategy="bindings")
        )[0].subgraph
        assert {k: v.tolist() for k, v in a.vertices.items()} == {
            k: v.tolist() for k, v in b.vertices.items()
        }
        assert {k: v.tolist() for k, v in a.edges.items()} == {
            k: v.tolist() for k, v in b.edges.items()
        }


class TestFullPathsTable:
    def test_fig13_wide_table(self, social_db):
        t = social_db.query(
            "select * from graph def a: Person (country = 'US') --follows--> "
            "def b: Person ( ) into table Wide"
        )
        # all attributes of both steps plus the edge's from-table attrs
        assert "a_name" in t.schema.names()
        assert "b_name" in t.schema.names()
        assert "follows_weight" in t.schema.names()
        assert t.num_rows == 5
