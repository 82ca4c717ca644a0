"""Tests for the simulated cluster: shard structure and result equality."""

import numpy as np
import pytest

from repro import Server
from repro.dist import Cluster
from repro.dist.partition import Partitioner, build_edge_shards


def subgraphs_equal(a, b) -> bool:
    return (
        {k: v.tolist() for k, v in a.vertices.items()}
        == {k: v.tolist() for k, v in b.vertices.items()}
        and {k: v.tolist() for k, v in a.edges.items()}
        == {k: v.tolist() for k, v in b.edges.items()}
    )


class TestShards:
    def test_shards_cover_all_edges(self, social_db):
        p = Partitioner(3)
        shards = build_edge_shards(social_db.db, p)
        for ename, et in social_db.db.edge_types.items():
            fwd_total = sum(shards[w][ename].forward.num_edges for w in range(3))
            rev_total = sum(shards[w][ename].reverse.num_edges for w in range(3))
            assert fwd_total == et.num_edges
            assert rev_total == et.num_edges

    def test_shard_ownership(self, social_db):
        p = Partitioner(2)
        shards = build_edge_shards(social_db.db, p)
        et = social_db.db.edge_type("follows")
        for w in range(2):
            shard = shards[w]["follows"]
            for eid in shard.forward_eids_local:
                src = int(et.src_vids[eid])
                assert p.owner_of(np.asarray([src]))[0] == w

    def test_eids_are_global(self, social_db):
        p = Partitioner(2)
        shards = build_edge_shards(social_db.db, p)
        all_eids = np.concatenate(
            [shards[w]["follows"].forward_eids_local for w in range(2)]
        )
        assert sorted(all_eids.tolist()) == list(
            range(social_db.db.edge_type("follows").num_edges)
        )


QUERIES = [
    "select * from graph Person (country = 'US') --follows--> Person ( ) "
    "into subgraph G{}",
    "select * from graph Person ( ) --follows--> Person ( ) --follows--> "
    "Person (country = 'DE') into subgraph G{}",
    "select * from graph City ( ) <--livesIn-- Person (age > 25) "
    "into subgraph G{}",
    "select * from graph Person (name = 'Alice') --[]--> [ ] "
    "into subgraph G{}",
]


class TestDistributedEquality:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    def test_matches_single_node(self, social_db, workers, qidx):
        q = QUERIES[qidx]
        ref = social_db.execute(q.format(f"L{workers}{qidx}"))[0].subgraph
        server = Server(backend=social_db.db, workers=workers)
        got = server.submit("admin", q.format(f"D{workers}{qidx}"))[0].subgraph
        assert subgraphs_equal(ref, got)

    def test_and_composition_distributed(self, social_db):
        q = ("select * from graph def x: Person (country = 'DE') "
             "--follows--> Person ( ) and (x --livesIn--> City ( )) "
             "into subgraph {}")
        ref = social_db.execute(q.format("LA"))[0].subgraph
        server = Server(backend=social_db.db, workers=3)
        got = server.submit("admin", q.format("DA"))[0].subgraph
        assert subgraphs_equal(ref, got)

    def test_bindings_fall_back_to_local(self, social_db):
        server = Server(backend=social_db.db, workers=2)
        results = server.submit(
            "admin",
            "select y.id from graph Person ( ) --follows--> def y: "
            "Person ( ) into table TD"
        )
        assert results[0].kind == "table"
        assert results[0].table.num_rows == 8


class TestMetrics:
    def test_messages_grow_with_workers(self, social_db):
        q = ("select * from graph Person ( ) --follows--> Person ( ) "
             "into subgraph M{}")
        counts = []
        for w in (1, 2, 4):
            server = Server(backend=social_db.db, workers=w)
            server.cluster.reset_stats()
            server.submit("admin", q.format(w))
            counts.append(server.cluster.comm_stats()["messages"])
        assert counts[0] == 0  # single worker: everything local
        assert counts[1] <= counts[2]

    def test_edge_balance(self, social_db):
        cluster = Cluster(social_db.db, 2, social_db.catalog)
        bal = cluster.edge_balance()
        assert len(bal["per_worker"]) == 2
        assert sum(bal["per_worker"]) == social_db.db.total_edges()
        assert bal["imbalance"] >= 1.0

    def test_memory_per_worker(self, social_db):
        cluster = Cluster(social_db.db, 4, social_db.catalog)
        mem = cluster.memory_per_worker()
        assert len(mem) == 4 and all(m > 0 for m in mem)

    def test_ddl_through_cluster_reshards(self, social_db):
        server = Server(backend=social_db.db, workers=2)
        shards = server.cluster.shards
        server.submit("admin", "create table Zed(id integer)")
        assert "Zed" in server.cluster.catalog.tables
        assert server.cluster.shards is not shards  # rebuilt after the DDL
