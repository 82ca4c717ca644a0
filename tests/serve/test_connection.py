"""Connection / Cursor / PreparedStatement over the serving layer."""

from __future__ import annotations

import pytest

from repro import Server, connect
from repro.errors import (
    AccessError,
    ExecutionError,
    ServerBusy,
    TypeCheckError,
)
from repro.query.executor import StatementKind
from tests.conftest import (
    FOLLOW_ROWS,
    PEOPLE_ROWS,
    SOCIAL_DDL,
    build_social_db,
)

PEOPLE_Q = "select name from table People where age > 30"
GRAPH_Q = (
    "select y.id from graph Person (country = 'US') --follows--> "
    "def y: Person ( ) into table GT1"
)
PARAM_Q = "select name from table People where age > %MinAge%"


def _social_server() -> Server:
    s = Server()
    s.submit("admin", SOCIAL_DDL)
    s.backend.ingest_rows("People", PEOPLE_ROWS)
    s.backend.ingest_rows("Follows", FOLLOW_ROWS)
    s.catalog.refresh(s.backend)
    return s


class TestConnection:
    def test_connect_validates_user_upfront(self):
        s = Server()
        with pytest.raises(AccessError, match="unknown user"):
            connect(s, user="nobody")

    def test_connect_validates_transport(self):
        s = Server()
        with pytest.raises(ValueError, match="unknown transport"):
            connect(s, user="admin", transport="carrier-pigeon")

    def test_execute_over_both_transports(self):
        s = _social_server()
        for transport in ("ir", "local"):
            conn = connect(s, user="admin", transport=transport)
            results = conn.execute(PEOPLE_Q)
            assert results[-1].kind == StatementKind.TABLE
            names = sorted(r[0] for r in results[-1].table.iter_rows())
            assert names == ["Alice", "Carol", "Eve"]

    def test_closed_connection_refuses_work(self):
        s = _social_server()
        conn = connect(s, user="admin")
        conn.close()
        with pytest.raises(ExecutionError, match="closed"):
            conn.execute(PEOPLE_Q)

    def test_context_manager_closes(self):
        s = _social_server()
        with connect(s, user="admin") as conn:
            conn.execute(PEOPLE_Q)
        with pytest.raises(ExecutionError, match="closed"):
            conn.execute(PEOPLE_Q)


class TestCursor:
    def test_fetchone_exhausts_then_none(self):
        db = build_social_db()
        with db.cursor() as cur:
            cur.execute(PEOPLE_Q)
            seen = []
            while True:
                row = cur.fetchone()
                if row is None:
                    break
                seen.append(row["name"])
            assert sorted(seen) == ["Alice", "Carol", "Eve"]
            assert cur.fetchone() is None

    def test_fetchmany_respects_size_and_arraysize(self):
        db = build_social_db()
        cur = db.cursor(batch_size=2)
        cur.execute("select name from table People")
        first = cur.fetchmany()
        assert len(first) == 2  # arraysize default
        rest = cur.fetchmany(100)
        assert len(rest) == 4
        assert cur.fetchmany() == []

    def test_fetchall_and_iteration(self):
        db = build_social_db()
        cur = db.cursor(batch_size=2)
        rows = cur.execute("select name, age from table People").fetchall()
        assert len(rows) == 6
        cur.execute("select name, age from table People")
        assert [r.name for r in cur] == [r.name for r in rows]

    def test_rows_are_name_addressable(self):
        db = build_social_db()
        cur = db.cursor()
        cur.execute("select name, age from table People where name = 'Alice'")
        row = cur.fetchone()
        assert row[0] == row["name"] == row.name == "Alice"
        assert row[1] == row["age"] == row.age == 34
        with pytest.raises(KeyError):
            row["salary"]
        with pytest.raises(AttributeError):
            row.salary

    def test_description_and_rowcount(self):
        db = build_social_db()
        cur = db.cursor()
        cur.execute("select name, age from table People")
        assert [d[0] for d in cur.description] == ["name", "age"]
        assert "integer" in cur.description[1][1]
        assert cur.rowcount == 6

    def test_cursor_without_table_result(self):
        db = build_social_db()
        cur = db.cursor()
        cur.execute("create table Extra(i integer)")
        assert cur.description is None
        assert cur.rowcount == -1
        assert cur.fetchall() == []

    def test_unexecuted_cursor_raises(self):
        db = build_social_db()
        cur = db.cursor()
        with pytest.raises(ExecutionError, match="no query has been executed"):
            cur.fetchone()

    def test_batched_production_matches_bulk(self):
        db = build_social_db()
        bulk = db.query("select name from table People")
        cur = db.cursor(batch_size=1)
        cur.execute("select name from table People")
        assert [r[0] for r in cur] == [r[0] for r in bulk.iter_rows()]


class TestPreparedStatement:
    def test_prepare_once_execute_many(self):
        db = build_social_db()
        ps = db.prepare(PARAM_Q)
        assert ps.param_names == ("MinAge",)
        assert ps.ir_size > 0
        over30 = ps.execute({"MinAge": 30})[-1].table
        over40 = ps.execute({"MinAge": 40})[-1].table
        assert sorted(r[0] for r in over30.iter_rows()) == [
            "Alice", "Carol", "Eve",
        ]
        assert sorted(r[0] for r in over40.iter_rows()) == ["Carol", "Eve"]

    def test_prepared_equals_one_shot(self):
        db = build_social_db()
        ps = db.prepare(PARAM_Q)
        for age in (0, 25, 34, 99):
            prepared = ps.execute({"MinAge": age})[-1].table
            oneshot = db.query(PARAM_Q, params={"MinAge": age})
            assert [tuple(r) for r in prepared.iter_rows()] == [
                tuple(r) for r in oneshot.iter_rows()
            ]

    def test_missing_params_rejected_before_execution(self):
        db = build_social_db()
        ps = db.prepare(PARAM_Q)
        with pytest.raises(TypeCheckError, match="missing parameters: MinAge"):
            ps.execute({})

    def test_prepare_typechecks_statically(self):
        db = build_social_db()
        # unknown column fails at prepare time, not execute time
        with pytest.raises(TypeCheckError):
            db.prepare("select salary from table People where age > %A%")

    def test_prepare_records_catalog_epoch(self):
        db = build_social_db()
        before = db.catalog.epoch
        ps = db.prepare(PEOPLE_Q)
        assert ps.epoch == before
        db.execute("create table Later(i integer)")
        assert db.catalog.epoch > ps.epoch
        # still executable: values are typechecked per execution
        assert ps.execute()[-1].table.num_rows == 3

    def test_prepared_cursor(self):
        db = build_social_db()
        ps = db.prepare(PARAM_Q)
        with ps.cursor({"MinAge": 30}, batch_size=2) as cur:
            assert sorted(r.name for r in cur) == ["Alice", "Carol", "Eve"]

    def test_prepare_over_ir_transport(self):
        s = _social_server()
        conn = s.connect()
        ps = conn.prepare(PARAM_Q)
        t = ps.execute({"MinAge": 30})[-1].table
        assert t.num_rows == 3

    def test_prepared_write_requires_writer_role(self):
        s = _social_server()
        s.create_user("admin", "ro", "reader")
        conn = connect(s, user="ro")
        with pytest.raises(AccessError, match="lacks 'writer' rights"):
            conn.prepare("create table Nope(i integer)")
        # pure reads are fine for a reader
        conn.prepare(PEOPLE_Q).execute()


class TestPlanCache:
    def test_cache_hit_marks_profile(self):
        db = build_social_db()
        cold = db.execute(PEOPLE_Q)[0]
        warm = db.execute(PEOPLE_Q)[0]
        assert cold.profile.cache_hit is False
        assert warm.profile.cache_hit is True
        assert "cache: hit" in warm.profile.render()
        stage_names = [s for s, _ in warm.profile.stages]
        assert stage_names[0] == "cache"

    def test_cache_hit_same_rows(self):
        db = build_social_db()
        a = db.query(PEOPLE_Q)
        b = db.query(PEOPLE_Q)
        assert [tuple(r) for r in a.iter_rows()] == [
            tuple(r) for r in b.iter_rows()
        ]

    def test_metrics_count_hits_and_misses(self):
        db = build_social_db()
        m0 = db.metrics.snapshot().get("graql_plan_cache_hits_total", 0)
        db.execute(PEOPLE_Q)
        db.execute(PEOPLE_Q)
        db.execute(PEOPLE_Q)
        snap = db.metrics.snapshot()
        assert snap["graql_plan_cache_hits_total"] == m0 + 2
        assert snap["graql_statements_cached_total"] >= 2

    def test_whitespace_insensitive_key(self):
        db = build_social_db()
        db.execute(PEOPLE_Q)
        r = db.execute(
            "select   name\n from table People\t where age > 30"
        )[0]
        assert r.profile.cache_hit is True

    def test_params_differentiate_entries(self):
        db = build_social_db()
        db.execute(PARAM_Q, params={"MinAge": 30})
        r = db.execute(PARAM_Q, params={"MinAge": 40})[0]
        assert r.profile.cache_hit is False
        r2 = db.execute(PARAM_Q, params={"MinAge": 40})[0]
        assert r2.profile.cache_hit is True

    def test_ddl_invalidates(self):
        db = build_social_db()
        db.execute(PEOPLE_Q)
        assert len(db.server.cache) == 1
        db.execute("create table Bump(i integer)")
        assert len(db.server.cache) == 0
        r = db.execute(PEOPLE_Q)[0]
        assert r.profile.cache_hit is False

    def test_ingest_invalidates_and_results_are_fresh(self):
        db = build_social_db()
        before = db.query("select name from table People where age > 50")
        assert before.num_rows == 1
        db.ingest_rows("People", [("p7", "Grace", "US", 70, 1.0, 735600)])
        after = db.query("select name from table People where age > 50")
        assert after.num_rows == 2

    def test_writes_are_never_cached(self):
        db = build_social_db()
        db.execute(GRAPH_Q)
        assert len(db.server.cache) == 0

    def test_explain_analyze_shows_cache_hit(self):
        db = build_social_db()
        db.execute(PEOPLE_Q)
        text = db.explain(PEOPLE_Q, mode="analyze")
        assert "cache: hit" in text

    def test_ir_transport_cache_hit_skips_compile(self):
        s = _social_server()
        s.submit("admin", PEOPLE_Q)
        warm = s.submit("admin", PEOPLE_Q)[0]
        assert warm.profile.cache_hit is True
        stage_names = [n for n, _ in warm.profile.stages]
        assert "compile_ir" not in stage_names


class TestServerConcurrencyControls:
    def test_server_busy_on_saturated_admission(self):
        s = _social_server()
        # one slot total: a held ticket makes the next submit bounce
        s.admission.max_in_flight = 1
        ticket = s.admission.admit("x")
        with pytest.raises(ServerBusy):
            s.submit("admin", PEOPLE_Q)
        s.admission.release(ticket)
        assert s.submit("admin", PEOPLE_Q)[0].table.num_rows == 3

    def test_cache_hit_cannot_bypass_access_control(self):
        s = _social_server()
        s.submit("admin", PEOPLE_Q)  # now cached
        with pytest.raises(AccessError, match="unknown user"):
            s.submit("ghost", PEOPLE_Q)

    def test_serving_opts_are_plumbed(self):
        s = Server(serving_opts={"max_in_flight": 5, "per_user_limit": 2,
                                 "cache_capacity": 7})
        assert s.admission.max_in_flight == 5
        assert s.admission.per_user_limit == 2
        assert s.cache.capacity == 7
        assert Server().admission.max_in_flight == 40
        for removed in ("max_workers", "max_queue"):
            with pytest.raises(TypeError, match=removed):
                Server(serving_opts={removed: 1})


class TestStatementKind:
    def test_kinds_are_stable_enum_members(self):
        assert StatementKind.TABLE.value == "table"
        assert StatementKind.SUBGRAPH.value == "subgraph"
        assert StatementKind.DDL.value == "ddl"
        assert StatementKind.INGEST.value == "ingest"

    def test_string_comparison_still_works(self):
        db = build_social_db()
        r = db.execute(PEOPLE_Q)[0]
        assert r.kind == "table"
        assert r.kind == StatementKind.TABLE
        assert f"{r.kind}" == "table"

    def test_is_write_property(self):
        assert StatementKind.DDL.is_write
        assert StatementKind.INGEST.is_write
        assert not StatementKind.TABLE.is_write
        assert not StatementKind.SUBGRAPH.is_write

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StatementKind("spreadsheet")
