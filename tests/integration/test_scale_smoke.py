"""Moderate-scale smoke: the full stack at ~20k vertices / ~65k edges."""

import numpy as np
import pytest

from repro.workloads.berlin import Q1_FIG7, Q2_FIG6, berlin_database


@pytest.fixture(scope="module")
def big_db():
    return berlin_database(scale=2000, seed=31)


class TestScaleSmoke:
    def test_build_invariants(self, big_db):
        db = big_db.db
        assert db.total_vertices() > 15_000
        assert db.total_edges() > 50_000
        assert db.check_partition_invariants()

    def test_berlin_q2(self, big_db):
        t = big_db.query(Q2_FIG6, params={"Product1": "product42"})
        assert 0 < t.num_rows <= 10
        counts = [r[1] for r in t.to_rows()]
        assert counts == sorted(counts, reverse=True)

    def test_berlin_q1(self, big_db):
        t = big_db.query(Q1_FIG7, params={"Country1": "US", "Country2": "DE"})
        assert t.num_rows <= 10

    def test_three_hop_set_query(self, big_db):
        sg = big_db.query_subgraph(
            "select * from graph PersonVtx (country = 'US') <--reviewer-- "
            "ReviewVtx ( ) --reviewFor--> ProductVtx ( ) --producer--> "
            "ProducerVtx (country = 'DE') into subgraph big3"
        )
        # every matched review really connects matched endpoints
        et = big_db.db.edge_type("reviewFor")
        products = set(sg.vertex_ids("ProductVtx").tolist())
        for eid in sg.edge_ids("reviewFor")[:50]:
            _, tgt = et.endpoints_of(int(eid))
            assert tgt in products

    def test_regex_closure_on_type_hierarchy(self, big_db):
        tv = big_db.db.vertex_type("TypeVtx")
        sg = big_db.query_subgraph(
            "select * from graph TypeVtx ( ) ( --subclass--> [ ] )+ "
            "TypeVtx (subclassOf is null) into subgraph roots"
        )
        # every type with a parent reaches the root
        assert len(sg.vertex_ids("TypeVtx")) == tv.num_vertices

    def test_distributed_matches_at_scale(self, big_db):
        from repro import Server

        q = ("select * from graph OfferVtx (deliveryDays < 3) --product--> "
             "ProductVtx ( ) into subgraph {}")
        ref = big_db.execute(q.format("bl"))[0].subgraph
        server = Server(backend=big_db.db, workers=8)
        got = server.submit("admin", q.format("bd"))[0].subgraph
        assert {k: v.tolist() for k, v in ref.vertices.items()} == {
            k: v.tolist() for k, v in got.vertices.items()
        }

    def test_relational_pipeline_at_scale(self, big_db):
        t = big_db.query(
            "select top 5 vendor, count(*) as offers, avg(price) as p "
            "from table Offers where deliveryDays < 10 "
            "group by vendor order by offers desc, vendor asc"
        )
        assert t.num_rows == 5
        offers = [r[1] for r in t.to_rows()]
        assert offers == sorted(offers, reverse=True)
