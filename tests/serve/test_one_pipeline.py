"""Work-count and stage-parity guard for the one statement pipeline.

Every adapter — ``Database.execute``, a connection onto a ``Server``,
``Server.submit``, a ``GraqlServer`` session behind a
``RemoteConnection``, local and remote prepared statements — runs the
same server pipeline, so each does the same front-end work and reports
the same profile stages.  Counting only, no timing:

* an uncached single-statement select costs one typecheck and no IR;
* a script re-checks a statement only after an earlier one of the same
  script moved the catalog epoch;
* on a cluster backend each statement is encoded, verified and decoded
  exactly once, and checked no more often than on one node;
* stage names are the same on every adapter (prepared statements have
  no ``parse``; a plan-cache hit is a single ``cache`` stage);
* ``Database.execute_pipelined`` does the front-end work of
  ``Database.execute`` and reports its stages, also for the pairs it
  fuses.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro import Server, connect
from repro.analysis import verifier
from repro.engine import server as server_module
from repro.graql import ir, parser, typecheck
from repro.graql.parser import parse_script
from repro.net import GraqlServer, RemoteConnection
from repro.serve.engine import statement_is_write
from repro.workloads.berlin import QUERIES, berlin_database
from tests.conftest import (
    CITY_ROWS,
    FOLLOW_ROWS,
    PEOPLE_ROWS,
    SOCIAL_DDL,
    build_social_db,
)

SELECT = "select name from table People where age > %MinAge%"
SELECT_PARAMS = {"MinAge": 30}

#: the functions whose calls are the pipeline's front-end work
COUNTED = {
    "check": (typecheck, "check_statement"),
    "encode": (ir, "encode_statement"),
    "verify": (verifier, "verify_statement_ir"),
    "decode": (ir, "decode_statement"),
    "parse": (parser, "parse_script"),
}

ADAPTERS = {
    "Database.execute": lambda env, q: lambda p: env.db.execute(q, p),
    "connect(Server)": lambda env, q: lambda p: connect(env.server).execute(q, p),
    "Server.submit": lambda env, q: lambda p: env.server.submit("admin", q, p),
    "RemoteConnection": lambda env, q: lambda p: env.remote().execute(q, p),
    "PreparedStatement": lambda env, q: connect(env.server).prepare(q).execute,
    "RemotePreparedStatement": lambda env, q: env.remote().prepare(q).execute,
}
PREPARED = ("PreparedStatement", "RemotePreparedStatement")
ONE_SHOT = tuple(a for a in ADAPTERS if a not in PREPARED)
CLUSTER_ADAPTERS = tuple(a for a in ADAPTERS if a != "Database.execute")


class Env:
    """A server (and, single-node, its Database) plus an on-demand TCP
    front-end over it."""

    def __init__(self, db=None, server=None) -> None:
        self.db = db
        self.server = server if server is not None else db.server
        self._net = None
        self._conn = None

    def remote(self) -> RemoteConnection:
        if self._conn is None:
            self._net = GraqlServer(self.db if self.db is not None else self.server)
            self._net.start()
            self._conn = RemoteConnection(self._net.url)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._net.shutdown(drain=True)


class Tally:
    """Call counts of the front-end functions, and the profile stage
    names the server recorded per statement (in any thread)."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.stages: list[list[str]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.stages.clear()

    @property
    def ir_calls(self) -> tuple:
        return self.calls["encode"], self.calls["verify"], self.calls["decode"]


@pytest.fixture
def tally(monkeypatch) -> Tally:
    t = Tally()
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro")]
    for key, (home, name) in COUNTED.items():
        original = getattr(home, name)

        def counted(*args, _key=key, _original=original, **kwargs):
            t.calls[_key] += 1
            return _original(*args, **kwargs)

        # patch every import site, not just the defining module
        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    classify = RemoteConnection._source_is_write

    def counted_classify(source):
        t.calls["classify"] += 1
        return classify(source)

    monkeypatch.setattr(RemoteConnection, "_source_is_write", staticmethod(counted_classify))
    record = server_module.record_profile_metrics

    def recorded(registry, profile):
        t.stages.append([name for name, _ in profile.stages])
        return record(registry, profile)

    monkeypatch.setattr(server_module, "record_profile_metrics", recorded)
    return t


@pytest.fixture
def social():
    env = Env(db=build_social_db())
    yield env
    env.close()


@pytest.fixture
def berlin():
    env = Env(db=berlin_database(scale=100, seed=7))
    yield env
    env.close()


@pytest.fixture
def cluster():
    s = Server(workers=2)
    s.submit("admin", SOCIAL_DDL)
    s.backend.ingest_rows("People", PEOPLE_ROWS)
    s.backend.ingest_rows("Cities", CITY_ROWS)
    s.backend.ingest_rows("Follows", FOLLOW_ROWS)
    s.catalog.refresh(s.backend)
    s.cluster.rebuild()
    env = Env(server=s)
    yield env
    env.close()


def _run(env: Env, tally: Tally, adapter: str, source: str, params) -> None:
    """Bind *source* on *adapter* (a prepare is not counted), then run it
    once with *params*, counting."""
    run = ADAPTERS[adapter](env, source)
    tally.reset()
    run(params)


def _client_parses(adapter: str) -> int:
    # the network client classifies a request as read or write (may it
    # be retried?) with one parse of its source
    return 1 if adapter.startswith("Remote") else 0


# ----------------------------------------------------------------------
# single node
# ----------------------------------------------------------------------

@pytest.mark.parametrize("adapter", ADAPTERS)
def test_uncached_select_checks_once_and_ships_no_ir(social, tally, adapter):
    _run(social, tally, adapter, SELECT, SELECT_PARAMS)
    assert tally.calls["check"] == 1
    assert tally.ir_calls == (0, 0, 0)
    assert tally.calls["classify"] == _client_parses(adapter)
    server_parses = 0 if adapter in PREPARED else 1
    assert tally.calls["parse"] == server_parses + _client_parses(adapter)
    front = ["substitute", "typecheck"]
    if adapter not in PREPARED:
        front.insert(0, "parse")
    assert tally.stages == [front + ["execute"]]
    assert social.server.ir_bytes_shipped == 0


@pytest.mark.parametrize("adapter", ONE_SHOT)
def test_cache_hit_skips_the_front_end(social, tally, adapter):
    run = ADAPTERS[adapter](social, SELECT)
    run(SELECT_PARAMS)
    tally.reset()
    run(SELECT_PARAMS)
    assert tally.calls["check"] == 0
    assert tally.ir_calls == (0, 0, 0)
    assert tally.stages == [["cache", "execute"]]


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_script_rechecks_only_after_the_epoch_moves(berlin, tally, adapter):
    spec = QUERIES["berlin_q2"]
    statements = parse_script(spec.graql).statements
    first_write = next(i for i, s in enumerate(statements) if statement_is_write(s))
    rechecks = len(statements) - 1 - first_write
    assert rechecks > 0  # the chain's later statements read the write
    _run(berlin, tally, adapter, spec.graql, {"Product1": "product3"})
    assert tally.calls["check"] == len(statements) + rechecks
    assert tally.ir_calls == (0, 0, 0)
    front = ["substitute", "typecheck"]
    if adapter not in PREPARED:
        front.insert(0, "parse")
    # the script-level stages lead the first statement; the statement
    # after the write carries its re-check
    assert tally.stages == [
        front + ["plan", "execute", "materialize"],
        ["typecheck", "execute"],
    ]


#: a fusable pair over every review path (benchmarks/bench_s3b1_pipelining.py)
REVIEW_PAIR = """
select y.id from graph
PersonVtx ( ) <--reviewer-- ReviewVtx ( ) --reviewFor--> def y: ProductVtx ( )
into table allReviews

select top 10 id, count(*) as n from table allReviews
group by id order by n desc, id asc
"""


@pytest.mark.parametrize(
    "source, params",
    [
        (QUERIES["berlin_q2"].graql, {"Product1": "product3"}),
        (REVIEW_PAIR, None),
    ],
    ids=["berlin_q2", "review_pair"],
)
def test_execute_pipelined_matches_execute(berlin, tally, source, params):
    db = berlin.db
    tally.reset()
    want = db.execute(source, params)
    sequential = dict(tally.calls), list(tally.stages)
    tally.reset()
    got, stats = db.execute_pipelined(source, params, num_chunks=4)
    assert len(stats) == 1  # the pair ran fused
    assert (dict(tally.calls), tally.stages) == sequential
    assert sequential[0]["check"] == 3 and sequential[0]["parse"] == 1
    assert got[-1].table.to_rows() == want[-1].table.to_rows()


# ----------------------------------------------------------------------
# cluster backend: IR is shipped
# ----------------------------------------------------------------------

CLUSTER_SCRIPT = (
    "select * from graph Person ( ) --follows--> Person ( ) into subgraph G\n"
    "select name from table People where age > %MinAge%"
)


@pytest.mark.parametrize("adapter", CLUSTER_ADAPTERS)
def test_cluster_ships_each_statement_once(cluster, tally, adapter):
    shipped = cluster.server.ir_bytes_shipped
    _run(cluster, tally, adapter, CLUSTER_SCRIPT, SELECT_PARAMS)
    # the backend runs the front end's resolutions: two script-level
    # checks, plus one re-check after `into subgraph G` moves the epoch
    assert tally.calls["check"] == 3
    assert tally.ir_calls == (2, 2, 2)
    assert cluster.server.ir_bytes_shipped > shipped
    for stages in tally.stages:
        assert "compile_ir" in stages and "decode_ir" in stages
