"""Unit tests for GraphDB: DDL, ingest rebuilds, invariants."""

import pytest

from repro.dtypes import VarChar
from repro.errors import CatalogError
from repro.graph import GraphDB, Subgraph
from repro.graql.parser import parse_expression
from repro.storage import Schema, Table


class TestDDL:
    def test_duplicate_table(self, social_db):
        with pytest.raises(CatalogError):
            social_db.db.create_table("People", Schema.of(("id", VarChar(4))))

    def test_duplicate_vertex(self, social_db):
        with pytest.raises(CatalogError):
            social_db.db.create_vertex("Person", ["id"], "People")

    def test_vertex_name_clash_with_table(self, social_db):
        with pytest.raises(CatalogError):
            social_db.db.create_vertex("People", ["id"], "People")

    def test_unknown_table(self, social_db):
        with pytest.raises(CatalogError):
            social_db.db.create_vertex("X", ["id"], "Nope")

    def test_edge_types_between(self, social_db):
        ets = social_db.db.edge_types_between("Person", "Person")
        assert [e.name for e in ets] == ["follows"]
        ets = social_db.db.edge_types_between(None, "City")
        assert [e.name for e in ets] == ["livesIn"]
        ets = social_db.db.edge_types_between(None, None)
        assert {e.name for e in ets} == {"follows", "livesIn"}


class TestIngestRebuild:
    def test_vertex_view_rebuilds(self, social_db):
        before = social_db.db.vertex_type("Person").num_vertices
        social_db.db.ingest_rows("People", [("p7", "Gail", "US", 30, 1.0, 735600)])
        assert social_db.db.vertex_type("Person").num_vertices == before + 1

    def test_edge_view_rebuilds(self, social_db):
        before = social_db.db.edge_type("follows").num_edges
        social_db.db.ingest_rows("Follows", [("p1", "p3", 2)])
        assert social_db.db.edge_type("follows").num_edges == before + 1

    def test_index_rebuilds(self, social_db):
        social_db.db.ingest_rows("Follows", [("p4", "p5", 1)])
        et = social_db.db.edge_type("follows")
        bidx = social_db.db.index("follows")
        assert bidx.forward.num_edges == et.num_edges

    def test_derived_edge_through_vertex(self, social_db):
        # livesIn joins Person.country to City.country; new city -> edges
        before = social_db.db.edge_type("livesIn").num_edges
        social_db.db.ingest_rows("Cities", [("lyon", "FR", 500_000)])
        after = social_db.db.edge_type("livesIn").num_edges
        assert after > before

    def test_ingest_text(self, social_db):
        n, _ = social_db.db.ingest_text("Cities", "rome,IT,2800000\n")
        assert n == 1
        assert social_db.db.vertex_type("City").num_vertices == 4


class TestResults:
    def test_register_result_table(self, social_db):
        t = Table.from_rows("R", Schema.of(("x", VarChar(4))), [("a",)])
        social_db.db.register_result_table("R", t)
        assert social_db.db.table("R").num_rows == 1
        # overwriting a derived table is fine
        social_db.db.register_result_table("R", t.concat(t))
        assert social_db.db.table("R").num_rows == 2

    def test_cannot_overwrite_base_table(self, social_db):
        t = Table.from_rows("People", Schema.of(("x", VarChar(4))), [("a",)])
        with pytest.raises(CatalogError, match="base table"):
            social_db.db.register_result_table("People", t)

    def test_register_subgraph(self, social_db):
        import numpy as np

        sg = Subgraph("G", {"Person": np.asarray([0, 1])}, {})
        social_db.db.register_subgraph(sg)
        assert social_db.db.subgraph("G").num_vertices == 2

    def test_unknown_subgraph(self, social_db):
        with pytest.raises(CatalogError):
            social_db.db.subgraph("nope")


class TestInvariants:
    def test_partition_invariants(self, social_db):
        assert social_db.db.check_partition_invariants()

    def test_totals(self, social_db):
        db = social_db.db
        assert db.total_vertices() == sum(
            vt.num_vertices for vt in db.vertex_types.values()
        )
        assert db.total_edges() == sum(
            et.num_edges for et in db.edge_types.values()
        )
