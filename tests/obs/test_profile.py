"""QueryProfile unit tests: superstep cap, rendering, metric recording."""

import sys
import threading
import time

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    MAX_SUPERSTEP_ENTRIES,
    AtomProfile,
    QueryProfile,
    StepProfile,
    record_profile_metrics,
)


def _sample_profile() -> QueryProfile:
    p = QueryProfile(kind="subgraph")
    p.strategy = "set"
    p.add_stage("plan", 1.5)
    p.add_stage("execute", 4.5)
    ap = AtomProfile(0, "forward", cost_forward=10.0, cost_backward=40.0)
    ap.steps.append(
        StepProfile(0, "vertex", "Person", est_forward=6.0, est_backward=3.0,
                    actual=5)
    )
    p.atoms.append(ap)
    p.index_hits = 2
    p.edges_scanned = 17
    p.rows_out = 5
    return p


class TestStages:
    def test_time_stage_appends(self):
        p = QueryProfile()
        with p.time_stage("x"):
            pass
        assert p.stage_ms("x") is not None
        assert p.stage_ms("missing") is None
        assert p.total_ms == p.stage_ms("x")


class TestSuperstepCap:
    def test_totals_keep_counting_past_cap(self):
        p = QueryProfile()
        for i in range(MAX_SUPERSTEP_ENTRIES + 10):
            p.record_superstep("expand", frontier=i, messages=2, nbytes=100,
                               retries=1)
        d = p.dist
        assert len(d["steps"]) == MAX_SUPERSTEP_ENTRIES
        assert d["supersteps"] == MAX_SUPERSTEP_ENTRIES + 10
        assert d["messages"] == 2 * (MAX_SUPERSTEP_ENTRIES + 10)
        assert d["bytes"] == 100 * (MAX_SUPERSTEP_ENTRIES + 10)
        assert d["retries"] == MAX_SUPERSTEP_ENTRIES + 10

    def test_ensure_dist_idempotent(self):
        p = QueryProfile()
        d = p.ensure_dist()
        d["failovers"] = 3
        assert p.ensure_dist() is d


class TestRender:
    def test_render_sections(self):
        p = _sample_profile()
        p.record_superstep("expand", frontier=9, messages=4, nbytes=256,
                           retries=1)
        p.dist["faults"] = {"drops": 2}
        text = p.render()
        assert "PROFILE (kind=subgraph, strategy=set, rows=5)" in text
        assert "stages: plan=1.500ms execute=4.500ms total=6.000ms" in text
        assert "atom 0: direction=forward (cost fwd=10.0, bwd=40.0)" in text
        assert "est=       6.0 actual=       5" in text
        assert "index: 2 lookups, 17 edges scanned" in text
        assert "superstep 0 [expand]: frontier=9 messages=4 bytes=256" in text
        assert "retries=1" in text
        assert "faults: drops=2" in text

    def test_render_forced_marker(self):
        p = QueryProfile(kind="subgraph")
        p.atoms.append(
            AtomProfile(0, "backward", 10.0, 40.0, forced="options")
        )
        assert "forced by options" in p.render()

    def test_to_dict_roundtrip_shape(self):
        d = _sample_profile().to_dict()
        assert d["kind"] == "subgraph"
        assert d["stages"][0] == {"name": "plan", "ms": 1.5}
        assert d["atoms"][0]["steps"][0]["actual"] == 5
        assert d["dist"] is None
        assert d["trace"] is None


class TestQError:
    def test_chosen_direction_ratio(self):
        sp = StepProfile(0, "vertex", "OfferVtx", est_forward=4444.0,
                         est_backward=900.0, actual=1042)
        assert sp.q_error("forward") == 4444.0 / 1042
        assert sp.q_error("backward") == 1042 / 900.0

    def test_clamped_to_one_row_and_unknown_until_measured(self):
        assert StepProfile(0, "vertex", "V", est_forward=0.0,
                           actual=0).q_error("forward") == 1.0
        assert StepProfile(0, "vertex", "V", est_forward=0.2,
                           actual=3).q_error("forward") == 3.0
        assert StepProfile(0, "vertex", "V", est_forward=2.0).q_error(
            "forward") is None
        assert StepProfile(0, "vertex", "V", actual=2).q_error(
            "backward") is None

    def test_rendered_and_exported(self):
        p = _sample_profile()
        assert "q=  1.20" in p.render()
        assert p.to_dict()["atoms"][0]["steps"][0]["q_error"] == 6.0 / 5


class TestRecordMetrics:
    def test_basic_counters(self):
        reg = MetricsRegistry()
        record_profile_metrics(reg, _sample_profile())
        assert reg.value("graql_statements_total", {"kind": "subgraph"}) == 1
        assert reg.value("graql_index_hits_total") == 2
        assert reg.value("graql_edges_scanned_total") == 17
        assert reg.value("graql_plans_total", {"strategy": "set"}) == 1
        assert reg.get_histogram("graql_rows_out").count == 1
        assert (
            reg.get_histogram("graql_stage_seconds", {"stage": "plan"}).count
            == 1
        )

    def test_dist_counters(self):
        reg = MetricsRegistry()
        p = _sample_profile()
        p.record_superstep("expand", frontier=9, messages=4, nbytes=256,
                           retries=1)
        p.record_superstep("cull", frontier=3, messages=2, nbytes=128)
        p.dist["failovers"] = 1
        p.dist["faults"] = {"drops": 2, "corrupt": 0}
        record_profile_metrics(reg, p)
        assert reg.value("graql_dist_supersteps_total") == 2
        assert reg.value("graql_dist_messages_total") == 6
        assert reg.value("graql_dist_bytes_total") == 384
        assert reg.value("graql_dist_retries_total") == 1
        assert reg.value("graql_dist_failovers_total") == 1
        assert reg.value("graql_dist_faults_total", {"fault": "drops"}) == 2
        # zero-count faults are not registered as series
        assert reg.get_histogram("graql_dist_frontier_size").count == 2

    def test_accumulates_across_statements(self):
        reg = MetricsRegistry()
        record_profile_metrics(reg, _sample_profile())
        record_profile_metrics(reg, _sample_profile())
        assert reg.value("graql_statements_total", {"kind": "subgraph"}) == 2
        assert reg.value("graql_edges_scanned_total") == 34


class TestViewRefresh:
    """An ingest's profile and metrics report the rows its view refresh
    consumed: the batch, whatever the tables already hold."""

    DDL = """
    create table People(id integer, city varchar(8))
    create table Knows(src integer, dst integer)
    create vertex Person(id) from table People
    create edge knows with vertices (Person as A, Person as B)
    from table Knows where Knows.src = A.id and Knows.dst = B.id
    """

    def _db(self):
        from repro import Database

        db = Database()
        db.execute(self.DDL)
        db.ingest_text("People", "".join(f"{i},c{i % 7}\n" for i in range(500)))
        return db

    def test_rows_counter_counts_the_batch_not_the_table(self):
        db = self._db()
        edge = {"view": "knows", "kind": "edge"}
        seen = []
        for batch in range(3):
            before = db.metrics.value("graql_view_refresh_rows_total", edge) or 0
            db.ingest_text("Knows", "".join(f"{i},{i + 1}\n" for i in range(25)))
            seen.append(db.metrics.value("graql_view_refresh_rows_total", edge) - before)
        assert seen == [25, 25, 25]
        # People was consumed once by the vertex view, once per endpoint role
        assert db.metrics.value(
            "graql_view_refresh_rows_total", {"view": "Person", "kind": "vertex"}
        ) == 500
        assert db.metrics.get_histogram("graql_view_refresh_seconds").count == 4

    def test_refresh_time_includes_the_catalog_step(self, tmp_path, monkeypatch):
        from repro.catalog import Catalog

        db = self._db()
        slow = 0.05
        refresh = Catalog.refresh

        def slow_refresh(self, *args, **kwargs):
            time.sleep(slow)
            return refresh(self, *args, **kwargs)

        monkeypatch.setattr(Catalog, "refresh", slow_refresh)
        seconds = db.metrics.get_histogram("graql_view_refresh_seconds")
        before = seconds.sum
        db.ingest_text("Knows", "1,2\n")
        assert seconds.sum - before >= slow
        path = tmp_path / "k.csv"
        path.write_text("2,3\n")
        (result,) = db.execute(f"ingest table Knows '{path}'")
        assert result.profile.refresh.seconds >= slow

    def test_profile_has_a_refresh_line(self, tmp_path):
        db = self._db()
        path = tmp_path / "k.csv"
        path.write_text("1,2\n2,3\n")
        (result,) = db.execute(f"ingest table Knows '{path}'")
        assert result.profile.refresh.views == [("knows", "edge", 2)]
        assert "  refresh: " in result.profile.render()
        assert "knows(edge)=2" in result.profile.render()
        assert result.profile.to_dict()["refresh"]["views"] == [
            {"view": "knows", "kind": "edge", "rows": 2}
        ]
        # no ingest, no line
        (result,) = db.execute("select count(*) as n from table Knows")
        assert result.profile.refresh is None
        assert "refresh:" not in result.profile.render()


class TestWarmRecording:
    """Once a registry has seen a statement shape, recording the next one
    resolves no instrument by name: the handles are cached per registry
    (a count, not a timing)."""

    QUERIES = (
        "select * from graph Person (country = 'US') --follows--> "
        "def y: Person ( ) into subgraph GW",
        "select y.name from graph Person (country = 'US') --follows--> "
        "def y: Person ( )",
        "select name from table People",
    )

    def test_no_lookups_per_statement_once_warm(self, social_db):
        for q in self.QUERIES * 2:
            social_db.execute(q)
        warm = social_db.metrics.lookups
        assert warm > 0
        for q in self.QUERIES * 3:
            social_db.execute(q)
        assert social_db.metrics.lookups == warm

    def test_clear_drops_cached_handles(self):
        reg = MetricsRegistry()
        record_profile_metrics(reg, _sample_profile())
        reg.clear()
        record_profile_metrics(reg, _sample_profile())
        assert reg.value("graql_edges_scanned_total") == 17

    def test_concurrent_recording_loses_no_update(self):
        reg = MetricsRegistry()
        threads, per_thread = 8, 200
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [
                        record_profile_metrics(reg, _sample_profile())
                        for _ in range(per_thread)
                    ]
                )
                for _ in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(old)
        n = threads * per_thread
        assert reg.value("graql_statements_total", {"kind": "subgraph"}) == n
        assert reg.value("graql_edges_scanned_total") == 17 * n
        assert reg.get_histogram("graql_stage_seconds", {"stage": "plan"}).count == n
