"""SERVE-1 — the serving layer's two performance claims (docs/API.md).

1. **Plan cache**: a cache hit replaces the cold front-end pipeline
   (parse -> typecheck -> plan resolution) with a key computation and an
   LRU lookup.  Asserted: the hit path is >= 5x faster than the compile
   work it skips.
2. **Concurrent serving**: read-only submissions share the catalog under
   the read lock, each on the thread that submitted it (as a
   ``GraqlServer`` session does).  Asserted: 8 caller threads drain a
   batch of selects >= 2x faster than 1 caller thread — gated on
   ``os.cpu_count() >= 2`` because a single hardware thread cannot run
   two Python threads at once; on 1-core hosts the assertion degrades to
   a sanity floor (8 threads must not *lose* more than half of one
   thread's throughput to coordination overhead).

Both halves also assert result correctness, so the benchmark doubles as
a regression test under ``--benchmark-disable`` in CI.
"""

from __future__ import annotations

import os
import threading
import time

from repro import Database
from repro.graql.parser import parse_script
from repro.graql.typecheck import check_statement

CACHE_SPEEDUP_FLOOR = 5.0
PARALLEL_SPEEDUP_FLOOR = 2.0
ONE_CORE_SANITY_FLOOR = 0.5

DDL = """
create table People(id varchar(10), name varchar(16), country varchar(8),
                    age integer)
create table Follows(src varchar(10), dst varchar(10))
create vertex Person(id) from table People
create edge follows with vertices (Person as A, Person as B)
from table Follows
where Follows.src = A.id and Follows.dst = B.id
"""

QUERY = (
    "select y.id from graph Person (age > 30) --follows--> "
    "def y: Person (country = 'US')"
)


def _bench_db() -> Database:
    db = Database()
    db.execute(DDL)
    db.ingest_rows(
        "People",
        [
            (f"p{i}", f"N{i}", "US" if i % 3 else "DE", 20 + i % 50)
            for i in range(500)
        ],
    )
    db.ingest_rows(
        "Follows", [(f"p{i}", f"p{(i * 7 + 1) % 500}") for i in range(1500)]
    )
    return db


def test_cache_hit_beats_cold_compile(benchmark):
    db = _bench_db()
    rounds = 200

    def cold_compile() -> None:
        script = parse_script(QUERY)
        for stmt in script.statements:
            check_statement(stmt, db.catalog)

    # populate, then time the hit path the engine runs instead of compiling
    db.execute(QUERY)
    cache = db.server.cache

    def cache_hit():
        key = cache.key(QUERY, None, db.catalog.epoch)
        return cache.lookup(key)

    assert cache_hit() is not None

    t0 = time.perf_counter()
    for _ in range(rounds):
        cold_compile()
    compile_s = (time.perf_counter() - t0) / rounds

    t0 = time.perf_counter()
    for _ in range(rounds):
        cache_hit()
    hit_s = (time.perf_counter() - t0) / rounds

    speedup = compile_s / hit_s
    assert speedup >= CACHE_SPEEDUP_FLOOR, (
        f"plan-cache hit only {speedup:.1f}x faster than cold compile "
        f"(floor {CACHE_SPEEDUP_FLOOR}x)"
    )
    # and a hit returns the same rows as a cold execution
    warm = db.query(QUERY)
    db.server.cache.invalidate()
    cold = db.query(QUERY)
    assert sorted(map(tuple, warm.iter_rows())) == sorted(
        map(tuple, cold.iter_rows())
    )

    benchmark.pedantic(cache_hit, rounds=rounds, iterations=1)
    benchmark.extra_info["compile_ms"] = round(compile_s * 1000, 4)
    benchmark.extra_info["hit_ms"] = round(hit_s * 1000, 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)


def _run_batch(threads: int, submissions: int) -> float:
    """Wall-clock seconds for *threads* caller threads to drain
    *submissions* read queries through ``Server.submit``."""
    db = _bench_db()
    server = db.server
    expected = db.query(QUERY).num_rows
    counts: list[int] = []
    errors: list[BaseException] = []

    def caller(share: int) -> None:
        try:
            for _ in range(share):
                counts.append(server.submit("admin", QUERY)[0].table.num_rows)
        except BaseException as e:  # noqa: BLE001 - re-raised below
            errors.append(e)

    shares = [
        submissions // threads + (i < submissions % threads)
        for i in range(threads)
    ]
    workers = [threading.Thread(target=caller, args=(n,)) for n in shares]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    elapsed = time.perf_counter() - t0
    assert not any(w.is_alive() for w in workers), "caller thread hung"
    if errors:
        raise errors[0]
    assert counts == [expected] * submissions
    server.close()
    return elapsed


def test_parallel_read_throughput(benchmark):
    submissions = 24
    serial = _run_batch(1, submissions)
    threaded = _run_batch(8, submissions)
    speedup = serial / threaded

    cores = os.cpu_count() or 1
    if cores >= 2:
        assert speedup >= PARALLEL_SPEEDUP_FLOOR, (
            f"8 caller threads only {speedup:.2f}x over 1 on {cores} cores "
            f"(floor {PARALLEL_SPEEDUP_FLOOR}x)"
        )
    else:
        # one hardware thread: parallel speedup is impossible, but the
        # server must not collapse under its own coordination
        assert speedup >= ONE_CORE_SANITY_FLOOR, (
            f"8 caller threads at {speedup:.2f}x of one thread's throughput "
            f"on a 1-core host (sanity floor {ONE_CORE_SANITY_FLOOR}x)"
        )

    def run():
        return _run_batch(8, submissions)

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["submissions"] = submissions
    benchmark.extra_info["serial_s"] = round(serial, 4)
    benchmark.extra_info["threaded_s"] = round(threaded, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
