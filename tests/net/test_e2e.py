"""End-to-end socket tests: GraqlServer + RemoteConnection.

Everything here runs over a real TCP socket on loopback.  The headline
property is *transport parity*: a ``RemoteConnection`` is
indistinguishable from the in-process connection — same rows, same
``Row`` behavior, same cursor/prepared surface, same exception classes.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import DEFAULT_BATCH_ROWS, connect
from repro.errors import (
    AccessError,
    CatalogError,
    ClosedError,
    ExecutionError,
    GraQLError,
    ParseError,
    ProtocolError,
    ServerBusy,
    TypeCheckError,
)
from repro.net import GraqlServer, RemoteConnection
from repro.query.executor import StatementKind
from tests.conftest import build_social_db

PEOPLE_Q = "select name from table People where age > 30"
ALL_Q = "select id, name, country, age, score, joined from table People"
PARAM_Q = "select name from table People where age > %MinAge%"
GRAPH_Q = (
    "select y.id from graph Person (country = 'US') --follows--> "
    "def y: Person ( ) into table GT1"
)


@pytest.fixture
def net():
    """Start servers for a test; every one is shut down afterwards."""
    started = []

    def start(db=None, **kwargs):
        db = db if db is not None else build_social_db()
        srv = GraqlServer(db, **kwargs)
        srv.start()
        started.append(srv)
        return srv

    yield start
    for srv in started:
        srv.shutdown(drain=False, timeout=10.0)


def _rows(table):
    return [tuple(r) for r in table.iter_rows()]


def _settle(srv, deadline=5.0):
    """Wait for every session thread to finish its teardown.

    Session metrics and spans are recorded on the server's session
    thread; after a client closes there is a small window before that
    thread flushes and unregisters.
    """
    t0 = time.monotonic()
    while srv.active_connections and time.monotonic() - t0 < deadline:
        time.sleep(0.005)
    assert srv.active_connections == 0


class TestTransportParity:
    def test_one_shot_rows_identical_across_transports(self, net):
        srv = net()
        remote = connect(srv.url)
        local = connect(srv.database)
        ir = connect(srv.app, transport="ir")
        expected = _rows(srv.database.query(ALL_Q))
        for conn in (remote, local, ir):
            results = conn.execute(ALL_Q)
            assert results[-1].kind == StatementKind.TABLE
            assert _rows(results[-1].table) == expected
        remote.close()

    def test_row_values_round_trip_exactly(self, net):
        """Floats, dates (stored ordinals) and strings cross the wire
        bit-for-bit; Rows are name- and index-addressable either way."""
        srv = net()
        conn = connect(srv.url)
        remote = conn.execute(ALL_Q)[-1].table
        local = srv.database.query(ALL_Q)
        assert _rows(remote) == _rows(local)
        assert remote.schema.names() == local.schema.names()
        row = next(iter(conn.cursor().execute(
            "select name, age from table People where name = 'Alice'"
        )))
        assert row[0] == row["name"] == row.name == "Alice"
        assert row[1] == row["age"] == row.age == 34
        with pytest.raises(KeyError):
            row["salary"]
        conn.close()

    def test_graph_query_parity(self, net):
        srv = net()
        remote_db = srv.database
        local_db = build_social_db()
        conn = connect(srv.url)
        got = conn.execute(GRAPH_Q)[-1].table
        want = local_db.execute(GRAPH_Q)[-1].table
        assert sorted(_rows(got)) == sorted(_rows(want))
        # the write landed in the served database, not a copy
        assert "GT1" in remote_db.catalog.tables
        conn.close()

    def test_ddl_results_and_messages_cross_the_wire(self, net):
        srv = net()
        conn = connect(srv.url)
        results = conn.execute(
            "create table Wired(i integer)\n"
            "select count(*) as n from table Wired"
        )
        assert [r.kind for r in results] == [
            StatementKind.DDL, StatementKind.TABLE,
        ]
        assert "created table Wired" in results[0].message
        assert _rows(results[1].table) == [(0,)]
        # visible to an in-process connection: one shared engine
        assert "Wired" in srv.database.catalog.tables
        conn.close()

    def test_remote_repr_and_session_metadata(self, net):
        srv = net()
        conn = connect(srv.url)
        assert isinstance(conn, RemoteConnection)
        assert srv.url in repr(conn) and "open" in repr(conn)
        assert conn.server_batch_rows == DEFAULT_BATCH_ROWS
        conn.close()
        assert "closed" in repr(conn)


class TestRemoteCursor:
    def test_fetch_surface_matches_local(self, net):
        srv = net()
        conn = connect(srv.url)
        cur = conn.cursor(batch_size=2)
        cur.execute("select name from table People order by name")
        assert cur.rowcount == 6
        assert [d[0] for d in cur.description] == ["name"]
        assert cur.fetchone()["name"] == "Alice"
        assert [r[0] for r in cur.fetchmany(2)] == ["Bob", "Carol"]
        assert [r[0] for r in cur.fetchall()] == ["Dan", "Eve", "Frank"]
        assert cur.fetchone() is None
        conn.close()

    def test_batch_size_one_streams_every_row(self, net):
        srv = net()
        conn = connect(srv.url)
        with conn.cursor(batch_size=1) as cur:
            cur.execute("select name, age from table People")
            assert len(cur.fetchall()) == 6
        conn.close()

    def test_cursor_batch_default_is_the_shared_constant(self, net):
        srv = net()
        conn = connect(srv.url)
        cur = conn.cursor()
        assert cur.arraysize == DEFAULT_BATCH_ROWS
        assert srv.batch_rows == DEFAULT_BATCH_ROWS
        conn.close()

    def test_ddl_cursor_has_no_table(self, net):
        srv = net()
        conn = connect(srv.url)
        cur = conn.cursor()
        cur.execute("create table NoRows(i integer)")
        assert cur.description is None
        assert cur.rowcount == -1
        assert cur.fetchall() == []
        conn.close()

    def test_unexecuted_cursor_raises(self, net):
        srv = net()
        conn = connect(srv.url)
        with pytest.raises(ExecutionError, match="no query has been executed"):
            conn.cursor().fetchone()
        conn.close()

    def test_new_request_buffers_an_unfinished_stream(self, net):
        """An in-flight cursor does not wedge the connection: issuing a
        new request first buffers the pending batches, and the old
        cursor still yields every remaining row."""
        srv = net()
        conn = connect(srv.url)
        cur = conn.cursor(batch_size=1)
        cur.execute("select name from table People order by name")
        first = cur.fetchone()
        n = conn.execute("select count(*) as n from table People")[-1].table
        rest = cur.fetchall()
        assert first["name"] == "Alice"
        assert _rows(n) == [(6,)]
        assert [r[0] for r in rest] == ["Bob", "Carol", "Dan", "Eve", "Frank"]
        conn.close()


class TestRemotePrepared:
    def test_prepared_equals_one_shot_over_the_socket(self, net):
        srv = net()
        conn = connect(srv.url)
        ps = conn.prepare(PARAM_Q)
        assert ps.param_names == ("MinAge",)
        assert ps.ir_size > 0
        for age in (0, 25, 34, 99):
            prepared = ps.execute({"MinAge": age})[-1].table
            oneshot = conn.execute(PARAM_Q, params={"MinAge": age})[-1].table
            inproc = srv.database.query(PARAM_Q, params={"MinAge": age})
            assert _rows(prepared) == _rows(oneshot) == _rows(inproc)
        conn.close()

    def test_prepared_cursor_streams(self, net):
        srv = net()
        conn = connect(srv.url)
        ps = conn.prepare(PARAM_Q)
        with ps.cursor({"MinAge": 30}, batch_size=1) as cur:
            assert sorted(r.name for r in cur) == ["Alice", "Carol", "Eve"]
        conn.close()

    def test_missing_params_rejected_before_any_bytes_move(self, net):
        srv = net()
        conn = connect(srv.url)
        ps = conn.prepare(PARAM_Q)
        sent = conn._fs.bytes_sent
        with pytest.raises(TypeCheckError, match="missing parameters: MinAge"):
            ps.execute({})
        assert conn._fs.bytes_sent == sent
        conn.close()

    def test_prepare_typecheck_error_crosses_typed(self, net):
        srv = net()
        conn = connect(srv.url)
        with pytest.raises(TypeCheckError):
            conn.prepare("select salary from table People where age > %A%")
        conn.close()


class TestWireErrors:
    def test_parse_error_keeps_position_once(self, net):
        srv = net()
        conn = connect(srv.url)
        with pytest.raises(ParseError) as exc_info:
            conn.execute("selekt nope")
        e = exc_info.value
        assert e.line == 1 and e.column == 1
        assert str(e).count("line 1, column 1") == 1
        assert e.remote_span is not None and "req" in e.remote_span
        conn.close()

    def test_catalog_error_crosses_typed(self, net):
        srv = net()
        conn = connect(srv.url)
        with pytest.raises(CatalogError, match="unknown table"):
            conn.execute("select x from table Missing")
        conn.close()

    def test_unknown_user_rejected_at_handshake(self, net):
        srv = net()
        with pytest.raises(AccessError, match="unknown user"):
            connect(srv.url, user="nobody")

    def test_reader_cannot_run_ddl_remotely(self, net):
        srv = net()
        srv.app.create_user("admin", "ro", "reader")
        conn = connect(srv.url, user="ro")
        with pytest.raises(AccessError, match="lacks 'writer' rights"):
            conn.execute("create table Nope(i integer)")
        # the connection survives a rejected statement
        assert conn.execute(PEOPLE_Q)[-1].table.num_rows == 3
        conn.close()

    def test_closed_connection_raises_closed_error(self, net):
        srv = net()
        conn = connect(srv.url)
        conn.close()
        conn.close()  # idempotent on the remote transport too
        with pytest.raises(ClosedError, match="closed"):
            conn.execute(PEOPLE_Q)
        with pytest.raises(ExecutionError):  # ClosedError is one
            conn.prepare(PEOPLE_Q)

    def test_errors_do_not_poison_the_connection(self, net):
        srv = net()
        conn = connect(srv.url)
        for bad in ("selekt", "select x from table Missing", "select 1 ="):
            with pytest.raises(GraQLError):
                conn.execute(bad)
        assert conn.execute(PEOPLE_Q)[-1].table.num_rows == 3
        conn.close()


class TestServerRobustness:
    def test_concurrent_clients_mixed_select_and_ddl(self, net):
        """N clients over real sockets: readers hammer a static query,
        writers run DDL; every acknowledged write lands, every read is
        correct, nobody sees a transport error."""
        srv = net()
        errors: list[BaseException] = []
        start = threading.Barrier(6)

        def reader(i):
            try:
                conn = connect(srv.url)
                start.wait(timeout=30)
                for _ in range(10):
                    t = conn.execute(PEOPLE_Q)[-1].table
                    assert sorted(r[0] for r in t.iter_rows()) == [
                        "Alice", "Carol", "Eve",
                    ]
                conn.close()
            except BaseException as e:  # noqa: BLE001 - surfaced below
                errors.append(e)

        def writer(w):
            try:
                conn = connect(srv.url)
                start.wait(timeout=30)
                for i in range(5):
                    conn.execute(f"create table W{w}_{i}(x integer)")
                conn.close()
            except BaseException as e:  # noqa: BLE001
                errors.append(e)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=writer, args=(w,)) for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors[0]
        for w in range(2):
            for i in range(5):
                assert f"W{w}_{i}" in srv.database.catalog.tables

    def test_mid_stream_client_disconnect_leaves_server_healthy(self, net):
        srv = net()
        victim = connect(srv.url)
        cur = victim.cursor(batch_size=1)
        cur.execute("select name from table People")
        assert cur.fetchone() is not None
        victim._abort()  # socket torn down, no goodbye, stream unread
        # the server shrugs it off: a fresh client gets full service
        conn = connect(srv.url)
        assert conn.execute(PEOPLE_Q)[-1].table.num_rows == 3
        conn.close()
        deadline = time.monotonic() + 5
        while srv.active_connections and time.monotonic() < deadline:
            time.sleep(0.02)
        assert srv.active_connections == 0

    def test_connection_cap_refuses_with_typed_server_busy(self, net):
        srv = net(max_connections=1)
        keeper = connect(srv.url)
        with pytest.raises(ServerBusy) as exc_info:
            connect(srv.url)
        assert exc_info.value.reason == "connections"
        keeper.close()
        deadline = time.monotonic() + 5
        while srv.active_connections and time.monotonic() < deadline:
            time.sleep(0.02)
        # slot freed: the next client is admitted
        conn = connect(srv.url)
        assert conn.execute(PEOPLE_Q)[-1].table.num_rows == 3
        conn.close()

    def test_admission_overload_crosses_as_server_busy(self, net):
        srv = net()
        admission = srv.app.admission
        admission.max_in_flight = 1
        ticket = admission.admit("hog")
        try:
            conn = connect(srv.url)
            with pytest.raises(ServerBusy):
                conn.execute(PEOPLE_Q)
        finally:
            admission.release(ticket)
        # pressure released: same connection works again
        assert conn.execute(PEOPLE_Q)[-1].table.num_rows == 3
        conn.close()

    def test_idle_connections_are_reaped(self, net):
        srv = net(idle_timeout=0.3)
        conn = connect(srv.url)
        assert conn.execute(PEOPLE_Q)[-1].table.num_rows == 3
        deadline = time.monotonic() + 10
        while srv.active_connections and time.monotonic() < deadline:
            time.sleep(0.05)
        assert srv.active_connections == 0
        # the reaped transport heals transparently: the idempotent SELECT
        # reconnects and succeeds instead of poisoning the connection
        assert conn.execute(PEOPLE_Q)[-1].table.num_rows == 3
        conn.close()
        # reaping is per-connection, not a server shutdown
        fresh = connect(srv.url)
        assert fresh.execute(PEOPLE_Q)[-1].table.num_rows == 3
        fresh.close()

    def test_graceful_drain_then_refuse(self, net):
        srv = net()
        conn = connect(srv.url)
        assert conn.execute(PEOPLE_Q)[-1].table.num_rows == 3
        srv.shutdown(drain=True)
        with pytest.raises((ProtocolError, ClosedError)):
            conn.execute(PEOPLE_Q)
        with pytest.raises(ProtocolError):
            connect(srv.url)
        srv.shutdown()  # idempotent

    def test_requests_are_metered(self, net):
        srv = net()
        conn = connect(srv.url)
        conn.execute(PEOPLE_Q)
        conn.execute(PEOPLE_Q)
        conn.close()
        _settle(srv)
        snap = srv.database.metrics.snapshot()
        assert snap['graql_net_requests_total{kind="execute"}'] == 2
        assert snap["graql_net_connections_total"] == 1
        assert snap["graql_net_rows_streamed_total"] >= 6
        assert snap["graql_net_bytes_sent_total"] > 0
        assert snap["graql_net_bytes_received_total"] > 0

    def test_spans_record_requests(self, net):
        srv = net()
        conn = connect(srv.url)
        conn.execute(PEOPLE_Q)
        with pytest.raises(ParseError):
            conn.execute("selekt")
        conn.close()
        _settle(srv)
        names = [s.name for s in srv.recent_spans]
        assert "net.execute" in names
        failed = [s for s in srv.recent_spans if s.attrs.get("error")]
        assert failed, "the failed request must leave an error span"
