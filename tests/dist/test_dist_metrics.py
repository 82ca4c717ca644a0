"""Tests for distributed-execution metrics and executor internals."""

import pytest

from repro import Server
from repro.dist.comm import Communicator
from repro.dist.dist_query import DistFrontierExecutor
from repro.dist.partition import Partitioner, build_edge_shards
from repro.errors import ExecutionError
from repro.graql.parser import parse_statement
from repro.graql.typecheck import check_statement
from repro.workloads.berlin import berlin_database
from tests.conftest import build_social_db


def executor_for(db, workers):
    p = Partitioner(workers)
    return DistFrontierExecutor(
        db.db, build_edge_shards(db.db, p), p, Communicator(workers)
    )


def atom_of(db, text):
    return check_statement(parse_statement(text), db.catalog).pattern.atoms()[0]


class TestWorkAccounting:
    def test_work_counts_expansions(self, social_db):
        fx = executor_for(social_db, 3)
        atom = atom_of(
            social_db,
            "select * from graph Person ( ) --follows--> Person ( ) "
            "into subgraph G",
        )
        fx.run_atom(atom)
        total = int(fx.work_per_worker.sum())
        # forward pass touches all 8 edges; the cull re-expands survivors
        assert total >= 8
        assert (fx.work_per_worker >= 0).all()

    def test_work_spreads_across_workers(self, berlin_db):
        fx = executor_for(berlin_db, 4)
        atom = atom_of(
            berlin_db,
            "select * from graph ReviewVtx ( ) --reviewer--> PersonVtx ( ) "
            "into subgraph G",
        )
        fx.run_atom(atom)
        busy = int((fx.work_per_worker > 0).sum())
        assert busy >= 3  # hash partitioning spreads review sources


class TestEdgeConditionsDistributed:
    def test_edge_cond_matches_local(self, social_db):
        q = ("select * from graph Person ( ) --follows(weight > 4)--> "
             "Person ( ) into subgraph {}")
        ref = social_db.execute(q.format("L"))[0].subgraph
        server = Server(backend=social_db.db, workers=3)
        got = server.submit("admin", q.format("D"))[0].subgraph
        assert {k: v.tolist() for k, v in ref.edges.items()} == {
            k: v.tolist() for k, v in got.edges.items()
        }


class TestSeedsDistributed:
    def test_seeded_query_matches_local(self, social_db):
        social_db.execute(
            "select * from graph Person (country = 'US') --follows--> "
            "Person ( ) into subgraph SeedD"
        )
        q = ("select * from graph SeedD.Person ( ) --follows--> Person ( ) "
             "into subgraph {}")
        ref = social_db.execute(q.format("L2"))[0].subgraph
        server = Server(backend=social_db.db, workers=2)
        got = server.submit("admin", q.format("D2"))[0].subgraph
        assert ref == got or (
            {k: v.tolist() for k, v in ref.vertices.items()}
            == {k: v.tolist() for k, v in got.vertices.items()}
        )


class TestRegexRefused:
    def test_regex_raises_on_dist_executor(self, social_db):
        fx = executor_for(social_db, 2)
        atom = atom_of(
            social_db,
            "select * from graph Person ( ) ( --follows--> [ ] )+ "
            "Person ( ) into subgraph G",
        )
        with pytest.raises(ExecutionError, match="distributed"):
            fx.run_atom(atom)

    def test_cluster_falls_back_for_regex(self, social_db):
        server = Server(backend=social_db.db, workers=2)
        r = server.submit(
            "admin",
            "select * from graph Person ( ) ( --follows--> [ ] )+ "
            "Person ( ) into subgraph RF"
        )[0]
        assert r.subgraph.num_vertices > 0  # executed locally


class TestSuperstepAccounting:
    def test_supersteps_proportional_to_edge_steps(self, social_db):
        # k edge steps -> 2k supersteps (forward + cull), independent of
        # worker count
        for hops, expected in ((1, 2), (2, 4)):
            pattern = " --follows--> Person ( )" * hops
            q = f"select * from graph Person ( ){pattern} into subgraph S{hops}"
            server = Server(backend=social_db.db, workers=3)
            server.cluster.reset_stats()
            server.submit("admin", q)
            assert server.cluster.comm_stats()["supersteps"] == expected


class TestCommPinned:
    """Un-faulted traffic of two fixed queries at 3 workers, with the
    values measured before the executor became a driver over the shared
    sweep: the S3B scaling numbers are a function of exactly these."""

    TWO_HOP = (
        "select * from graph Person ( ) --follows--> Person ( ) --follows--> "
        "Person ( ) into subgraph Pinned"
    )
    S3B = (
        "select * from graph PersonVtx (country = 'US') <--reviewer-- "
        "ReviewVtx ( ) --reviewFor--> ProductVtx ( ) --producer--> "
        "ProducerVtx ( ) into subgraph Pinned"
    )

    @pytest.mark.parametrize(
        "build, query, messages, nbytes, supersteps, per_step",
        [
            (build_social_db, TWO_HOP, 16, 1168, 4,
             [("expand", 4, 296), ("expand", 4, 288),
              ("cull", 4, 288), ("cull", 4, 296)]),
            # a private copy: `into` must not touch the session fixture
            (lambda: berlin_database(scale=60, seed=7), S3B, 24, 2072, 6,
             [("expand", 2, 256), ("expand", 6, 504), ("expand", 4, 288),
              ("cull", 4, 368), ("cull", 6, 512), ("cull", 2, 144)]),
        ],
    )
    def test_messages_bytes_supersteps(
        self, build, query, messages, nbytes, supersteps, per_step
    ):
        db = build()
        server = Server(backend=db.db, workers=3)
        result = server.submit("admin", query)[0]
        stats = server.cluster.comm_stats()
        assert (stats["messages"], stats["bytes"], stats["supersteps"]) == (
            messages, nbytes, supersteps
        )
        d = result.profile.dist
        assert (d["messages"], d["bytes"], d["supersteps"]) == (
            messages, nbytes, supersteps
        )
        assert [
            (s["phase"], s["messages"], s["bytes"]) for s in d["steps"]
        ] == per_step
