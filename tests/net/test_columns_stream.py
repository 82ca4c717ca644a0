"""The columnar result stream (protocol v2).

* **Work-count guard** — counts, no timing: streaming a table builds no
  ``Row`` on the server and none for ``conn.execute``; a cursor's
  ``fetchall`` builds exactly one per row; the finished table's columns
  are dtype- and bit-identical to the in-process table's.
* **Frame cap** — a batch too large for one frame is split, and a row
  too large for any frame ends its stream with a typed error while the
  session stays usable.
* **Handshake** — a v1 HELLO is refused naming both versions; the
  pre-HELLO ``ping`` still answers.
"""

from __future__ import annotations

import socket
from contextlib import contextmanager

import numpy as np
import pytest

from repro import connect
from repro.cli import main as cli_main
from repro.engine.session import Database
from repro.errors import ExecutionError, ProtocolError
from repro.net import GraqlServer, frame, ping
from repro.net.frame import FT_ERROR, FT_HELLO, FrameSocket
from repro.net.protocol import decode_error
from repro.storage.table import Row
from repro.workloads.berlin import berlin_database

STREAM_Q = "select * from table ProductFeatures"
WIDE_Q = "select * from table Offers"


@pytest.fixture
def berlin_server():
    """A Berlin database (1,156 ProductFeatures rows: two default batches)
    served in-thread."""
    srv = GraqlServer(berlin_database(scale=120, seed=5))
    srv.start()
    yield srv
    srv.shutdown(drain=False, timeout=10.0)


@contextmanager
def counting_rows():
    """Count every ``Row`` constructed in this process (server threads
    included) while the block runs."""
    built = [0]

    def counting_new(cls, *args):
        built[0] += 1
        return tuple.__new__(cls, *args)

    Row.__new__ = counting_new  # type: ignore[method-assign]
    try:
        yield built
    finally:
        del Row.__new__


def assert_columns_identical(got, want):
    assert got.schema.names() == want.schema.names()
    assert got.num_rows == want.num_rows
    for g, w in zip(got.columns, want.columns):
        assert g.dtype == w.dtype and g.data.dtype == w.data.dtype
        if w.data.dtype == object:
            assert [(type(v), v) for v in g.data] == [(type(v), v) for v in w.data]
        else:
            assert g.data.tobytes() == w.data.tobytes()


class TestWorkCountGuard:
    @pytest.mark.parametrize("query", [STREAM_Q, WIDE_Q], ids=["narrow", "wide"])
    def test_rows_are_built_only_for_the_cursor(self, berlin_server, query):
        srv = berlin_server
        want = srv.database.query(query)
        conn = connect(srv.url)
        try:
            with counting_rows() as built:
                table = conn.execute(query)[-1].table
            assert built[0] == 0
            assert_columns_identical(table, want)

            cur = conn.cursor(batch_size=256)
            with counting_rows() as built:
                cur.execute(query)
                rows = cur.fetchall()
            assert built[0] == want.num_rows == len(rows)
            assert_columns_identical(cur.table, want)
        finally:
            conn.close()
        assert [tuple(r) for r in rows] == [tuple(r) for r in want.iter_rows()]
        assert rows[0].keys() == tuple(want.schema.names())

    def test_rebuilt_columns_own_their_memory(self, berlin_server):
        conn = connect(berlin_server.url)
        try:
            table = conn.execute(WIDE_Q)[-1].table
        finally:
            conn.close()
        for col in table.columns:
            assert col.data.flags.writeable and col.data.flags.owndata


class TestFrameCap:
    def test_batch_over_the_cap_is_split_not_fatal(self, berlin_server, monkeypatch):
        """Before: the server's encode raised after the RESULT header, the
        exception killed the session and the client saw a dead socket."""
        srv = berlin_server
        want = srv.database.query(STREAM_Q)
        monkeypatch.setattr(frame, "MAX_FRAME_BYTES", 4096)
        conn = connect(srv.url)
        try:
            assert_columns_identical(conn.execute(STREAM_Q)[-1].table, want)
            rows = conn.cursor().execute(STREAM_Q).fetchall()
        finally:
            conn.close()
        assert [tuple(r) for r in rows] == [tuple(r) for r in want.iter_rows()]

    def test_row_over_the_cap_fails_typed_and_the_session_survives(self, monkeypatch):
        db = Database()
        db.execute("create table Big(id integer, payload varchar(10000))")
        db.ingest_rows("Big", [(1, "a"), (2, "x" * 6000), (3, "c")])
        srv = GraqlServer(db)
        srv.start()
        monkeypatch.setattr(frame, "MAX_FRAME_BYTES", 2048)
        conn = connect(srv.url)
        try:
            with pytest.raises(ExecutionError, match="row 1 of result table"):
                conn.execute("select id, payload from table Big")
            cur = conn.cursor(batch_size=1)
            cur.execute("select id, payload from table Big")
            assert cur.fetchone()["payload"] == "a"
            with pytest.raises(ExecutionError, match="frame cap"):
                cur.fetchall()
            ids = conn.execute("select id from table Big")[-1].table
            assert [tuple(r) for r in ids.iter_rows()] == [(1,), (2,), (3,)]
            assert srv.active_connections == 1
        finally:
            conn.close()
            srv.shutdown(drain=False, timeout=10.0)


class TestProtocolV2Handshake:
    def test_v1_hello_is_refused_naming_both_versions(self, berlin_server):
        host, port = berlin_server.address
        fs = FrameSocket(socket.create_connection((host, port), timeout=10))
        try:
            fs.send_magic()
            fs.send_frame(FT_HELLO, {"proto": 1, "user": "admin"})
            ftype, payload = fs.recv_frame()
        finally:
            fs.close()
        assert ftype == FT_ERROR
        err = decode_error(payload)
        assert isinstance(err, ProtocolError)
        assert "version 1" in str(err) and "speaks 2" in str(err)

    def test_ping_before_hello_still_answers(self, berlin_server, capsys):
        assert ping(berlin_server.url)["role"] == "memory"
        assert cli_main(["ping", berlin_server.url]) == 0
        assert "pong from" in capsys.readouterr().out


def test_empty_stream_rebuilds_an_empty_typed_table():
    db = Database()
    db.execute("create table E(i integer, s varchar(4), d date)")
    srv = GraqlServer(db)
    srv.start()
    conn = connect(srv.url)
    try:
        table = conn.execute("select i, s, d from table E")[-1].table
    finally:
        conn.close()
        srv.shutdown(drain=False, timeout=10.0)
    assert table.num_rows == 0
    assert [c.data.dtype for c in table.columns] == [
        np.dtype(np.int64), np.dtype(object), np.dtype(np.int64),
    ]
