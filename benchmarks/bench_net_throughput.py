"""NET-1 — the wire tax (docs/NETWORK.md).

Measures what the network layer costs relative to the in-process path
on identical workloads against one shared engine:

1. **One-shot latency**: `RemoteConnection.execute` vs. the same
   statement through an in-process connection onto the same server.  The remote
   path adds framing, one socket round trip and result re-
   materialization; asserted only to stay within a sane multiple, since
   loopback latency dwarfs nothing here.
2. **Prepared vs. one-shot over the wire**: prepared execution skips
   the per-request parse exactly as it does in-process —
   asserted faster than one-shot against a *cold* plan cache (the
   apples-to-apples case; a warm plan cache makes one-shot equivalent,
   which is the cache doing its job), and row-identical.
3. **Streamed row throughput**: rows/second through BATCH frames for a
   multi-thousand-row result, recorded for EXPERIMENTS.md.

Correctness is asserted throughout (remote rows == local rows), so the
benchmark doubles as a regression test under ``--benchmark-disable``.
"""

from __future__ import annotations

import time

from repro import Database, connect
from repro.net import GraqlServer

# remote one-shot must stay within this multiple of in-process one-shot
# on loopback (it pays framing + a round trip + re-materialization)
WIRE_TAX_CEILING = 25.0
# prepared must beat one-shot-that-compiles, modulo measurement noise
PREPARED_NOISE_MARGIN = 1.1

ROWS = 4000
QUERY = "select id, name, age from table People where age > %MinAge%"


def _bench_db() -> Database:
    db = Database()
    db.execute(
        "create table People(id varchar(10), name varchar(16), age integer)"
    )
    db.ingest_rows(
        "People",
        [(f"p{i}", f"N{i}", 20 + i % 60) for i in range(ROWS)],
    )
    return db


def _time(fn, rounds: int) -> float:
    fn()  # warm (connection buffers, cache, allocator)
    t0 = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - t0) / rounds


def test_wire_tax_and_prepared_speedup(benchmark):
    db = _bench_db()
    srv = GraqlServer(db)
    srv.start()
    rounds = 30
    try:
        remote = connect(srv.url)
        local = connect(db.server)
        params = {"MinAge": 70}

        expected = sorted(
            tuple(r)
            for r in local.execute(QUERY, params=params)[-1].table.iter_rows()
        )

        def remote_one_shot():
            return remote.execute(QUERY, params=params)[-1].table

        def local_one_shot():
            return local.execute(QUERY, params=params)[-1].table

        assert sorted(tuple(r) for r in remote_one_shot().iter_rows()) == expected

        remote_s = _time(remote_one_shot, rounds)
        local_s = _time(local_one_shot, rounds)
        tax = remote_s / local_s
        assert tax <= WIRE_TAX_CEILING, (
            f"remote one-shot {tax:.1f}x in-process (ceiling "
            f"{WIRE_TAX_CEILING}x): the wire is charging too much"
        )

        ps = remote.prepare(QUERY)
        assert (
            sorted(tuple(r) for r in ps.execute(params)[-1].table.iter_rows())
            == expected
        )
        def remote_prepared():
            return ps.execute(params)[-1].table

        cache = db.server.cache

        def remote_one_shot_cold():
            # a cold plan cache: every request pays the full front end,
            # which is exactly what prepare() amortizes away
            cache.invalidate()
            return remote.execute(QUERY, params=params)[-1].table

        prepared_s = _time(remote_prepared, rounds)
        cold_s = _time(remote_one_shot_cold, rounds)
        assert prepared_s <= cold_s * PREPARED_NOISE_MARGIN, (
            f"prepared {prepared_s * 1e3:.2f}ms vs cold one-shot "
            f"{cold_s * 1e3:.2f}ms over the wire: binding-only execution "
            f"must not cost more than recompiling"
        )

        # streamed row throughput through a row-at-a-time-free cursor
        cur = remote.cursor(batch_size=512)
        t0 = time.perf_counter()
        cur.execute("select id, name, age from table People")
        n = len(cur.fetchall())
        stream_s = time.perf_counter() - t0
        assert n == ROWS
        rows_per_s = n / stream_s

        benchmark.pedantic(remote_one_shot, rounds=rounds, iterations=1)
        benchmark.extra_info["remote_one_shot_ms"] = round(remote_s * 1e3, 3)
        benchmark.extra_info["remote_cold_one_shot_ms"] = round(cold_s * 1e3, 3)
        benchmark.extra_info["local_one_shot_ms"] = round(local_s * 1e3, 3)
        benchmark.extra_info["remote_prepared_ms"] = round(prepared_s * 1e3, 3)
        benchmark.extra_info["wire_tax"] = round(tax, 2)
        benchmark.extra_info["stream_rows_per_s"] = int(rows_per_s)
        remote.close()
    finally:
        srv.shutdown()
