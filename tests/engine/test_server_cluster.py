"""Server front-end with the distributed backend (full Section III path)."""

import pytest

from repro import Server
from repro.errors import PlanError
from repro.obs import Hints, QueryOptions
from tests.conftest import CITY_ROWS, FOLLOW_ROWS, PEOPLE_ROWS, SOCIAL_DDL


def social_server(workers=None) -> Server:
    s = Server(workers=workers)
    s.create_user("admin", "etl", "writer")
    s.submit("etl", SOCIAL_DDL)
    s.backend.ingest_rows("People", PEOPLE_ROWS)
    s.backend.ingest_rows("Cities", CITY_ROWS)
    s.backend.ingest_rows("Follows", FOLLOW_ROWS)
    # rows went in behind the statement path: refresh and re-shard by hand
    s.catalog.refresh(s.backend)
    if s.cluster is not None:
        s.cluster.rebuild()
    return s


@pytest.fixture
def cluster_server() -> Server:
    return social_server(workers=3)


class TestServerOnCluster:
    def test_graph_select_runs_distributed(self, cluster_server):
        s = cluster_server
        s.cluster.reset_stats()
        results = s.submit(
            "etl",
            "select * from graph Person (country = 'US') --follows--> "
            "Person ( ) into subgraph SG",
        )
        assert results[0].kind == "subgraph"
        # distribution actually happened: remote messages were exchanged
        assert s.cluster.comm_stats()["messages"] > 0

    def test_matches_single_node_server(self, cluster_server):
        single = social_server()
        q = ("select * from graph Person ( ) --follows--> Person ( ) "
             "into subgraph CMP")
        a = single.submit("etl", q)[0].subgraph
        b = cluster_server.submit("etl", q)[0].subgraph
        assert {k: v.tolist() for k, v in a.vertices.items()} == {
            k: v.tolist() for k, v in b.vertices.items()
        }

    def test_relational_falls_through(self, cluster_server):
        results = cluster_server.submit(
            "etl", "select country, count(*) as n from table People group by country"
        )
        assert results[0].table.num_rows == 3

    def test_ddl_reshards(self, cluster_server):
        s = cluster_server
        s.submit("etl", "create table Extra(id integer)")
        assert "Extra" in s.catalog.tables

    def test_ir_still_accounted(self, cluster_server):
        before = cluster_server.ir_bytes_shipped
        cluster_server.submit("etl", "select * from table People")
        assert cluster_server.ir_bytes_shipped > before

    def test_timeout_budget_degrades_to_single_node(self, cluster_server):
        s = cluster_server
        results = s.submit(
            "etl",
            "select * from graph Person ( ) --follows--> Person ( ) "
            "into subgraph TB",
            timeout_s=0.0,
        )
        assert results[0].degraded
        assert "QueryTimeout" in results[0].degraded_reason
        assert results[0].subgraph is not None
        assert s.degraded_statements == 1

    def test_recovery_counters_exposed(self, cluster_server):
        results = cluster_server.submit(
            "etl",
            "select * from graph Person ( ) --follows--> Person ( ) "
            "into subgraph RC",
        )
        assert results[0].recovery == {
            "retries": 0,
            "failovers": 0,
            "backoff_ms": 0.0,
            "extra_messages": 0,
            "extra_bytes": 0,
        }


US_FOLLOWS = (
    "select * from graph Person (country = 'US') --follows--> Person ( ) "
    "into subgraph {}"
)


class TestPlannerHintsReachTheCluster:
    @pytest.mark.parametrize("workers", [None, 3])
    def test_unknown_use_index_raises(self, workers):
        s = social_server(workers)
        with pytest.raises(PlanError, match="unknown index 'nope'"):
            s.submit(
                "etl",
                US_FOLLOWS.format("H0"),
                options=QueryOptions(hints=Hints(use_index=("nope",))),
            )

    def test_forced_index_seeks_on_the_cluster(self):
        results = []
        for workers in (None, 3):
            s = social_server(workers)
            s.submit("etl", "create index by_country on Person(country)")
            results.append(
                s.submit(
                    "etl",
                    US_FOLLOWS.format("H1"),
                    options=QueryOptions(hints=Hints(use_index=("by_country",))),
                )[0]
            )
        single, dist = results
        assert dist.profile.dist is not None and not dist.degraded
        assert dist.profile.atoms[0].access == "index-seek(by_country)"
        assert dist.profile.attr_seeks > 0
        assert single.subgraph == dist.subgraph  # vertices and edges


class TestOneCatalogRefreshPerWrite:
    def test_equal_epoch_deltas_on_both_back_ends(self, tmp_path):
        path = tmp_path / "follows.csv"
        path.write_text("p2,p5,6\n")
        deltas = {}
        for workers in (None, 3):
            s = social_server(workers)
            for stmt in (
                "create table Extra(id integer)",
                f"ingest table Follows '{path}'",
            ):
                before = s.catalog.epoch
                s.submit("etl", stmt)
                deltas[workers, stmt.split()[0]] = s.catalog.epoch - before
        assert set(deltas.values()) == {1}, deltas

    def test_ingest_through_the_cluster_reshards(self, tmp_path, cluster_server):
        path = tmp_path / "follows.csv"
        path.write_text("p2,p5,6\n")
        cluster_server.submit("etl", f"ingest table Follows '{path}'")
        sg = cluster_server.submit(
            "etl",
            "select * from graph Person (name = 'Bob') --follows--> Person ( ) "
            "into subgraph AfterIngest",
        )[0].subgraph
        assert sg.num_edges == 2  # p2->p3 and the ingested p2->p5
