"""Every adapter allows, rejects and answers a script the same way.

Four behaviours once differed by route and are pinned here on each
adapter that runs the server's one statement pipeline:

* a ``reader`` account cannot write through any connection;
* an ill-typed script runs no statement at all (the whole script is
  checked before the first one executes);
* ``prepare()`` accepts every script a one-shot run accepts and returns
  the same rows;
* ``execute_pipelined`` writes to the store what ``execute`` of the same
  script writes, and nothing for its chunks.
"""

from __future__ import annotations

import datetime as dt
import os

import numpy as np
import pytest

from repro import Database, connect
from repro.durability.wal import read_wal
from repro.errors import AccessError, CatalogError, TypeCheckError
from repro.net import GraqlServer, RemoteConnection
from repro.workloads.berlin import COUNTRIES, QUERIES, berlin_database, generate_berlin
from tests.conftest import (
    CITY_ROWS,
    FOLLOW_ROWS,
    PEOPLE_ROWS,
    SOCIAL_DDL,
    build_social_db,
)

ILL_TYPED = "create table Ok(id integer)\nselect * from table Nope"

#: the reader's write attempts: DDL, ingest, and an ``into`` result
WRITES = (
    "create table X(id integer)",
    "ingest table People {csv}",
    "select name from table People into table Z",
)


def _csv(tmp_path) -> str:
    path = tmp_path / "people.csv"
    path.write_text("id,name,country,age,score,joined\n")
    return str(path)


def _catalog_state(db: Database) -> tuple:
    cat = db.catalog
    return cat.epoch, sorted(cat.tables), sorted(cat.vertices), sorted(cat.edges)


def _wal_state(db: Database) -> tuple:
    store = db.store
    return store.seq, os.path.getsize(store.wal_path)


# ----------------------------------------------------------------------
# a reader cannot write in-process
# ----------------------------------------------------------------------

class TestReaderCannotWrite:
    @pytest.mark.parametrize("how", ["db.connect", "connect(db)"])
    def test_in_memory(self, tmp_path, how):
        db = build_social_db()
        db.server.create_user("admin", "ro", "reader")
        conn = db.connect("ro") if how == "db.connect" else connect(db, "ro")
        before = _catalog_state(db)
        for source in WRITES:
            with pytest.raises(AccessError, match="lacks 'writer' rights"):
                conn.execute(source.format(csv=_csv(tmp_path)))
        assert _catalog_state(db) == before
        # reads still work for the same account
        assert conn.execute("select name from table People")[-1].table.num_rows

    def test_durable_path(self, tmp_path):
        path = str(tmp_path / "ro.db")
        db = Database.open(path, fsync="off")
        db.execute(
            "create table People(id varchar(8), name varchar(16), "
            "country varchar(4), age integer, score float, joined date)"
        )
        db.server.create_user("admin", "ro", "reader")
        db.close()
        with connect(path, "ro", fsync="off") as conn:
            owned = conn._owned_db
            before = _catalog_state(owned), _wal_state(owned)
            for source in WRITES:
                with pytest.raises(AccessError, match="lacks 'writer' rights"):
                    conn.execute(source.format(csv=_csv(tmp_path)))
            assert (_catalog_state(owned), _wal_state(owned)) == before


# ----------------------------------------------------------------------
# an ill-typed script runs no statement
# ----------------------------------------------------------------------

class TestIllTypedScriptRunsNothing:
    def _assert_rejected(self, run) -> None:
        with pytest.raises((TypeCheckError, CatalogError)):
            run(ILL_TYPED)

    def test_database_execute(self):
        db = Database()
        self._assert_rejected(db.execute)
        assert "Ok" not in db.catalog.tables

    def test_connection(self):
        db = Database()
        self._assert_rejected(connect(db).execute)
        assert "Ok" not in db.catalog.tables

    def test_server_submit(self):
        db = Database()
        self._assert_rejected(lambda s: db.server.submit("admin", s))
        assert "Ok" not in db.catalog.tables

    def test_wire(self):
        db = Database()
        srv = GraqlServer(db)
        srv.start()
        try:
            with RemoteConnection(srv.url) as conn:
                self._assert_rejected(conn.execute)
        finally:
            srv.shutdown()
        assert "Ok" not in db.catalog.tables

    def test_durable_store_after_reopen(self, tmp_path):
        path = str(tmp_path / "half.db")
        db = Database.open(path, fsync="off")
        before = _wal_state(db)
        self._assert_rejected(db.execute)
        assert _wal_state(db) == before
        db.close()
        with Database.open(path, fsync="off") as again:
            assert "Ok" not in again.catalog.tables


# ----------------------------------------------------------------------
# prepare() accepts every catalog script
# ----------------------------------------------------------------------

SCALE = 200

#: the inproc_analytic benchmark's parameter values, plus fixed values
#: for the parameters only the other catalog scripts take
ANALYTIC_VALUES = {
    "Country1": COUNTRIES[0],
    "Country2": COUNTRIES[1],
    "Threshold": 1500,
    "Type1": "type2",
    "Day": dt.date(2010, 6, 1),
    "MinProp": 500,
}


def _params(name: str, data) -> dict:
    source = QUERIES[name].graql
    values = {**QUERIES[name].params(np.random.default_rng(3), data), **ANALYTIC_VALUES}
    return {k: v for k, v in values.items() if f"%{k}%" in source}


def _digest(results) -> list:
    """Order-insensitive rows of the last result (ids, for a subgraph)."""
    last = results[-1]
    if last.table is not None:
        return sorted(repr(tuple(row)) for row in last.table.iter_rows())
    sg = last.subgraph
    return [
        (kind, name, sorted(ids.tolist()))
        for kind, parts in (("v", sg.vertices), ("e", sg.edges))
        for name, ids in sorted(parts.items())
    ]


@pytest.fixture
def berlin():
    return berlin_database(scale=SCALE, seed=7), generate_berlin(SCALE, seed=7)


def _assert_prepare_matches_one_shot(conn, data, wire: bool = False) -> None:
    # prepare everything first: a script's ``into`` tables must not exist
    # yet, or a per-statement check against the live catalog would pass
    # by accident
    prepared = {name: conn.prepare(QUERIES[name].graql) for name in QUERIES}
    for name in sorted(QUERIES):
        params = _params(name, data)
        if wire:
            # wire parameters are JSON: a date travels as its ISO text
            params = {
                k: v.isoformat() if isinstance(v, dt.date) else v
                for k, v in params.items()
            }
        want = _digest(conn.execute(QUERIES[name].graql, params))
        assert _digest(prepared[name].execute(params)) == want, name


def test_prepare_matches_one_shot_in_process(berlin):
    db, data = berlin
    _assert_prepare_matches_one_shot(db.connect(), data)


def test_prepare_matches_one_shot_over_the_wire(berlin):
    db, data = berlin
    srv = GraqlServer(db)
    srv.start()
    try:
        with RemoteConnection(srv.url) as conn:
            _assert_prepare_matches_one_shot(conn, data, wire=True)
    finally:
        srv.shutdown(drain=True)


# ----------------------------------------------------------------------
# execute_pipelined takes the same route
# ----------------------------------------------------------------------

#: a fusable pair: one follows-path per row, counted per target
BROAD_PAIR = """
select y.id from graph
Person ( ) --follows--> def y: Person ( )
into table T1

select id, count(*) as n from table T1
group by id order by n desc, id asc
"""


def _social_store(path: str) -> Database:
    db = Database.open(path, fsync="off", checkpoint_every=0)
    db.execute(SOCIAL_DDL)
    for name, rows in (
        ("People", PEOPLE_ROWS),
        ("Cities", CITY_ROWS),
        ("Follows", FOLLOW_ROWS),
    ):
        db.ingest_rows(name, rows)
    return db


def _appended(db: Database, run) -> tuple:
    """*run*'s return value and the (kind, name) of each WAL record it
    appended."""
    seq = db.store.seq
    out = run()
    records = read_wal(db.store.wal_path).records
    return out, [(r["kind"], r["data"].get("name")) for r in records if r["seq"] > seq]


class TestExecutePipelinedRoute:
    def test_ill_typed_script_runs_nothing(self, tmp_path):
        path = str(tmp_path / "ill.db")
        db = Database.open(path, fsync="off")
        db.execute("create table Products(id integer)")
        before = _wal_state(db)
        with pytest.raises(TypeCheckError):
            db.execute_pipelined(
                "create table Z(id integer)\nselect nope from table Products"
            )
        assert "Z" not in db.catalog.tables
        assert _wal_state(db) == before
        db.close()
        with Database.open(path, fsync="off") as again:
            assert "Z" not in again.catalog.tables

    def test_chunks_leave_nothing_in_the_store(self, tmp_path):
        path = str(tmp_path / "pipe.db")
        db = _social_store(path)
        _, sequential = _appended(db, lambda: db.execute(BROAD_PAIR))
        subgraphs = sorted(db.catalog.subgraphs), sorted(db.db.subgraphs)
        (_, stats), pipelined = _appended(
            db, lambda: db.execute_pipelined(BROAD_PAIR, num_chunks=4)
        )
        assert stats[0].chunks == 4  # the pair really ran fused
        assert sequential == [("result_table", "T1")]
        assert pipelined == sequential
        assert (sorted(db.catalog.subgraphs), sorted(db.db.subgraphs)) == subgraphs
        db.close()
        with Database.open(path, fsync="off") as again:
            assert "__pipeline_chunk_" not in str(again.schema())
            assert (
                sorted(again.catalog.subgraphs), sorted(again.db.subgraphs)
            ) == subgraphs
