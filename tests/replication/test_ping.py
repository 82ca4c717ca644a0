"""PING/PONG health checks: answered without auth or admission.

A health probe must answer even when the engine is saturated — it
bypasses the admission queue entirely and is served before (and
without) authentication, so monitoring never needs credentials and
never queues behind a stuck workload.
"""

from __future__ import annotations

import pytest

from repro.net import GraqlServer, ping
from repro.errors import ProtocolError

from tests.conftest import build_social_db
from tests.replication.conftest import wait_until


@pytest.fixture
def srv():
    server = GraqlServer(build_social_db(), port=0)
    server.start()
    yield server
    server.shutdown(drain=False, timeout=10.0)


def test_ping_memory_server(srv):
    pong = ping(srv.url)
    assert pong["role"] == "memory"
    assert pong["endpoint"] == srv.url
    assert pong["rtt_s"] >= 0


def test_ping_reports_primary_position(pair):
    pair.primary_db.execute("create table T( id integer )")
    pong = ping(pair.url)
    assert pong["role"] == "primary"
    assert pong["seq"] == pair.primary_db.store.seq
    assert pong["repl_epoch"] == 0
    assert pong["replicas"] == []


def test_ping_reports_replica_lag_accounting(pair):
    replica = pair.start_replica()
    pair.primary_db.execute("create table T( id integer )")
    wait_until(
        lambda: replica.database.store.seq >= pair.primary_db.store.seq
    )
    seq = pair.primary_db.store.seq
    wait_until(lambda: ping(pair.url)["replicas"][0]["ack_seq"] == seq)
    (peer,) = ping(pair.url)["replicas"]
    assert peer["lag_records"] == 0

    rsrv = pair.serve_replica()
    pong = ping(rsrv.url)
    assert pong["role"] == "replica"
    assert pong["primary"] == pair.url
    assert pong["connected"] is True
    assert pong["seq"] == seq


def test_ping_answers_while_the_engine_is_saturated(srv):
    """The whole point of a health frame: it bypasses admission."""
    admission = srv.app.admission
    admission.max_in_flight = 1
    ticket = admission.admit("hog")  # every statement now queues
    try:
        pong = ping(srv.url, timeout=5.0)
        assert pong["role"] == "memory"
    finally:
        admission.release(ticket)


def test_ping_walks_endpoints_to_a_live_node(srv):
    pong = ping(f"graql://127.0.0.1:1,{srv.host}:{srv.port}", timeout=2.0)
    assert pong["endpoint"] == srv.url


def test_ping_raises_when_nothing_answers():
    with pytest.raises(ProtocolError):
        ping("graql://127.0.0.1:1", timeout=2.0)


def test_cli_ping_prints_the_pong(srv, capsys):
    from repro.cli import main

    assert main(["ping", srv.url]) == 0
    out = capsys.readouterr().out
    assert "pong from" in out
    assert "role: memory" in out


def test_cli_ping_reports_failure(capsys):
    from repro.cli import main

    assert main(["ping", "graql://127.0.0.1:1", "--timeout", "2"]) == 1
    assert "error" in capsys.readouterr().err
