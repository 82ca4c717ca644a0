"""Deterministic concurrency stress: 8+ threads sharing one server.

The invariants hold under *any* interleaving, so the test is
deterministic in outcome even though scheduling is not:

* no lost updates — every writer's ingest lands exactly once;
* no torn catalog reads — DDL pairs created in one script are visible
  atomically (both or neither), checked through ``Catalog.scratch_copy``
  taken under the serving layer's read lock (the ``graql check`` path);
* plan-cache invalidation — readers never observe row counts moving
  backwards while writers only append.
"""

from __future__ import annotations

import threading

from repro import Database
from tests.conftest import FOLLOW_ROWS, PEOPLE_ROWS, SOCIAL_DDL

READERS = 6
WRITERS = 2
READER_ITERS = 15
WRITER_ITERS = 8

PEOPLE_Q = "select name from table People where age > 30"


def _build_db() -> Database:
    db = Database()
    db.execute(SOCIAL_DDL)
    db.execute("create table Counters(v integer)")
    db.db.ingest_rows("People", PEOPLE_ROWS)
    db.db.ingest_rows("Follows", FOLLOW_ROWS)
    db.catalog.refresh(db.db)
    return db


def test_mixed_select_ddl_ingest_stress():
    db = _build_db()
    errors: list[BaseException] = []
    start = threading.Barrier(READERS + WRITERS)

    def writer(w: int) -> None:
        try:
            start.wait(timeout=30)
            for i in range(WRITER_ITERS):
                # paired DDL in one script: must become visible atomically
                db.execute(
                    f"create table A{w}_{i}(x integer)\n"
                    f"create table B{w}_{i}(x integer)"
                )
                db.ingest_rows("Counters", [(w * 1000 + i,)])
        except BaseException as e:  # noqa: BLE001 - collected for the assert
            errors.append(e)

    def reader(r: int) -> None:
        try:
            start.wait(timeout=30)
            last_count = 0
            for _ in range(READER_ITERS):
                # static data: always the same answer, cache hit or miss
                t = db.query(PEOPLE_Q)
                assert sorted(row[0] for row in t.iter_rows()) == [
                    "Alice", "Carol", "Eve",
                ]
                # growing data: row counts never move backwards
                # (a stale plan-cache entry would violate this)
                n = db.query("select v from table Counters").num_rows
                assert n >= last_count, f"count went backwards: {n} < {last_count}"
                last_count = n
                # torn-read check through the scratch-copy path
                with db.server.lock.read_locked():
                    cat = db.catalog.scratch_copy()
                for w in range(WRITERS):
                    for i in range(WRITER_ITERS):
                        a = f"A{w}_{i}" in cat.tables
                        b = f"B{w}_{i}" in cat.tables
                        assert a == b, f"torn catalog read at A/B{w}_{i}"
        except BaseException as e:  # noqa: BLE001
            errors.append(e)

    threads = [
        threading.Thread(target=writer, args=(w,)) for w in range(WRITERS)
    ] + [threading.Thread(target=reader, args=(r,)) for r in range(READERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors[0]

    # no lost updates: every ingest landed exactly once
    final = db.query("select v from table Counters")
    values = sorted(row[0] for row in final.iter_rows())
    assert values == sorted(
        w * 1000 + i for w in range(WRITERS) for i in range(WRITER_ITERS)
    )
    # every DDL pair exists
    for w in range(WRITERS):
        for i in range(WRITER_ITERS):
            assert f"A{w}_{i}" in db.catalog.tables
            assert f"B{w}_{i}" in db.catalog.tables
    # the final read is answerable from a fresh cache entry
    r = db.execute(PEOPLE_Q)[0]
    r2 = db.execute(PEOPLE_Q)[0]
    assert r2.profile.cache_hit is True
    assert r.table is not None


def test_concurrent_submissions_from_caller_threads():
    """Many threads submitting to one server, each on its own thread."""
    db = _build_db()
    results: list = [None] * 16
    start = threading.Barrier(len(results))

    def caller(i: int) -> None:
        start.wait(timeout=30)
        results[i] = db.server.submit("admin", PEOPLE_Q)

    threads = [
        threading.Thread(target=caller, args=(i,)) for i in range(len(results))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert [r[0].table.num_rows for r in results] == [3] * 16
    db.server.close()


def test_scratch_copy_while_writer_is_waiting():
    """Regression: ``scratch_copy`` under the read lock must snapshot a
    consistent catalog even while a writer thread is blocked waiting for
    the write lock (the ``graql check`` scenario)."""
    db = _build_db()
    lock = db.server.lock
    writer_done = threading.Event()

    with lock.read_locked():
        t = threading.Thread(
            target=lambda: (
                db.execute("create table WhileChecking(i integer)"),
                writer_done.set(),
            )
        )
        t.start()
        # the writer is (or will be) parked behind our read hold; the
        # snapshot below must neither block on it nor tear
        cat = db.catalog.scratch_copy()
        assert "People" in cat.tables
        assert "WhileChecking" not in cat.tables  # not visible yet
        assert cat.epoch == db.catalog.epoch
    assert writer_done.wait(timeout=30)
    t.join(timeout=30)
    assert "WhileChecking" in db.catalog.tables
    # snapshots taken after the write see the new table
    with lock.read_locked():
        assert "WhileChecking" in db.catalog.scratch_copy().tables
