"""The five workloads: data, operation cycles, set-up and checks.

Every workload is one closed-loop client.  ``--seed`` draws the
parameters, the cold-operation slots and the ingest batches; the Berlin
dataset itself is the stated input size (``generate_berlin`` at a fixed
data seed), so two seeds do the same kind and amount of work on
different keys.  README.md says why each workload exists.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import shutil
import time
from contextlib import ExitStack
from typing import Any, Optional

import numpy as np

from repro import Database, RemoteConnection
from repro.net import ping
from repro.workloads.berlin import COUNTRIES, QUERIES, berlin_database

import procs

BERLIN_DATA_SEED = 7
POINT_SCALE = 2000
ANALYTIC_SCALE = 5000
#: cursor / stream batch size (== repro.DEFAULT_BATCH_ROWS)
BATCH_ROWS = 1024

# -- point lookups: pure reads (no ``into``), so the plan cache applies --
POINT_QUERIES = {
    "fig9_type_match": (
        "select ProductVtx.id from graph "
        "ProductVtx (id = %Product1%) <--[]-- [ ]"
    ),
    "fig11_endpoints": (
        "select PersonVtx, ProducerVtx from graph "
        "PersonVtx ( ) <--reviewer-- ReviewVtx ( ) --reviewFor--> ProductVtx ( ) "
        "--producer--> ProducerVtx (country = %Country1%)"
    ),
    "bi_reviewers": (
        "select PersonVtx.id from graph "
        "ProducerVtx (id = %Producer1%) <--producer-- ProductVtx ( ) "
        "<--reviewFor-- ReviewVtx (ratings_1 >= %MinRating%) "
        "--reviewer--> PersonVtx ( )"
    ),
    "bi_ratings": (
        "select p.id as product, ReviewVtx.ratings_1 as r1 from graph "
        "ProducerVtx (id = %Producer1%) <--producer-- def p: ProductVtx ( ) "
        "<--reviewFor-- ReviewVtx ( )"
    ),
    "berlin_q2": (
        "select y.id from graph "
        "ProductVtx (id = %Product1%) --feature--> FeatureVtx ( ) "
        "<--feature-- def y: ProductVtx (id <> %Product1%)"
    ),
}
POINT_PREPARED = ("fig9_type_match", "fig11_endpoints")
#: parameter sets per template; the cycle is POINT_PARAM_SETS rounds
POINT_PARAM_SETS = 256
#: distinct parameter sets the one-shot templates cycle through: 3
#: templates x 16 = 48 hot keys, which with the cold inserts between two
#: uses of a key (64 distinct keys) fit the 128-entry PlanCache
POINT_HOT_SETS = 16
COLD_FRACTION = 0.2

ANALYTIC_QUERIES = (
    "berlin_q1", "fig13_full_table", "bi_price", "bi_features", "bi_valid_offers",
)
ANALYTIC_PARAM_SETS = 4

#: narrow, wide, narrow: with the narrow table twice per cycle the median
#: statement is a narrow one and p95 a wide one — two alternating
#: statements would leave p50 balanced between the two modes
STREAM_CYCLE = (
    ("stream_product_features", "select * from table ProductFeatures"),
    ("stream_offers", "select * from table Offers"),
    ("stream_product_features", "select * from table ProductFeatures"),
)

# -- ingest_read_mix --
INGEST_PEOPLE = 20_000
INGEST_CITIES = 200
INGEST_BATCH_ROWS = 25
#: write statements per second of ``--seconds`` (count-boxed: the tables
#: grow, so both sides of a comparison must do the same statements)
INGEST_WRITES_PER_SECOND = 24
INGEST_WARMUP_WRITES = 10
INGEST_FSYNC = "always"
INGEST_DDL = """
create table People(id integer, city varchar(16), age integer)
create table Knows(src integer, dst integer)
create vertex Person(id) from table People
create edge knows with vertices (Person as A, Person as B)
from table Knows where Knows.src = A.id and Knows.dst = B.id
"""
INGEST_INDEX = "create index by_city on Person(city)"
INGEST_READ = (
    "select B.id from graph Person (city = %C%) --knows--> def B: Person ( )"
)


def digest(rows) -> str:
    """Order-insensitive digest of a result: sorted canonical rows."""
    lines = sorted(json.dumps(list(r), default=lambda o: o.item()) for r in rows)
    return hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()


def inline_params(source: str, params: dict[str, Any]) -> str:
    """*source* with every ``%Param%`` replaced by its literal."""
    for name, value in params.items():
        lit = f"'{value}'" if isinstance(value, str) else str(value)
        source = source.replace(f"%{name}%", lit)
    return source


class Op:
    """One operation of a cycle.

    ``mode`` is how it is issued: ``prepared`` (bind and execute a
    prepared statement), ``oneshot`` (script text + parameters, through
    the plan cache), ``cold`` (literals inlined and a fresh trailing
    comment per execution, so the text was never seen before), or
    ``write`` (an ``ingest table`` statement).
    """

    __slots__ = (
        "name", "mode", "source", "params", "stmt", "expected", "is_write", "batch",
    )

    def __init__(self, name: str, mode: str, source: str, params: Optional[dict]) -> None:
        self.name = name
        self.mode = mode
        self.source = source
        self.params = params
        #: the prepared statement (mode ``prepared``), bound at set-up
        self.stmt = None
        #: rows the operation must deliver (ingested rows for a write)
        self.expected = -1
        self.is_write = mode == "write"
        #: which seeded batch an ingest statement loads
        self.batch = -1

    def text(self, serial: int) -> str:
        if self.mode == "cold":
            return f"{self.source}\n// cold {serial}"
        return self.source

    def key(self) -> tuple:
        return (self.mode, self.source, json.dumps(self.params, sort_keys=True, default=str))


class Workload:
    """Set-up, operation cycle, execution and checks of one workload."""

    name = ""
    #: seconds of statements issued before the window so caches, column
    #: statistics and lazy pools are filled (never more than half a window)
    warmup_seconds = 1.5

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.ops: list[Op] = []
        #: failed checks outside the timed window (digests, oracles)
        self.check_failures = 0
        self.checks = 0

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        """Everything before the warm-up; timed as ``setup_s``.  Whatever
        a failed set-up had already started is stopped again."""
        self._cleanup = ExitStack()
        try:
            self._setup(self._cleanup)
        except BaseException:
            self._cleanup.close()
            raise

    def _setup(self, cleanup: ExitStack) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        self._cleanup.close()

    def warmup_box(self) -> dict:
        """``drive`` bound of the warm-up."""
        return {"seconds": min(self.warmup_seconds, self.seconds / 2)}

    def window_box(self) -> dict:
        """``drive`` bound of the measured window."""
        return {"seconds": self.seconds}

    def engine_pid(self) -> int:
        """The process whose ``VmHWM`` is ``peak_rss_mb``."""
        return os.getpid()

    # -- what the traced pass (layers.py) needs -------------------------
    #: operations per round of the cycle; traced and plain rounds alternate
    round_len = 1
    #: operations of the count-boxed pass the engine's counters are read around
    counting_ops = 0

    def metrics_snapshot(self) -> dict:
        """``MetricsRegistry.snapshot()`` of the engine under test."""
        raise NotImplementedError

    def replication_metrics(self, window) -> dict:
        return {}

    # -- execution ------------------------------------------------------
    def run_op(self, op: Op, text: str) -> tuple[int, bool]:
        rows = self.fetch(op, text)
        return len(rows), len(rows) == op.expected

    def fetch(self, op: Op, text: str) -> list:
        """Execute *op* through the DB-API surface; all rows fetched."""
        cur = self.cur
        cur.execute(op.stmt if op.mode == "prepared" else text, op.params)
        return cur.fetchall()

    # -- correctness ----------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.check_failures += 1
            print(f"CHECK FAILED [{self.name}]: {what}")

    def build_twin(self) -> None:
        """Build what the checks compare against (not part of set-up)."""

    def verify_ops(self) -> None:
        """Digest every distinct operation against the oracle and record
        the row count each execution in the window must reproduce."""
        seen: dict[tuple, int] = {}
        for i, op in enumerate(self.ops):
            key = op.key()
            if key not in seen:
                want = self.oracle_rows(op)
                got = self.fetch(op, op.text(-1 - i))
                self.check(
                    digest(got) == digest(want),
                    f"{op.name} ({op.mode}) {op.params}: digest differs from oracle",
                )
                seen[key] = len(want)
            op.expected = seen[key]

    def finish(self) -> None:
        """Checks after the window (replica, crash recovery)."""


# ----------------------------------------------------------------------
# Berlin operation cycles
# ----------------------------------------------------------------------

def point_ops(seed: int, scale: int, cold: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    n_producers = max(scale // 25, 2)
    products = rng.permutation(scale)[:POINT_PARAM_SETS]
    producers = rng.integers(n_producers, size=POINT_PARAM_SETS)
    countries = [COUNTRIES[i % len(COUNTRIES)] for i in rng.permutation(POINT_PARAM_SETS)]
    n_cold = int(POINT_PARAM_SETS * COLD_FRACTION) if cold else 0
    cold_slots = {
        name: set(rng.permutation(POINT_PARAM_SETS)[:n_cold].tolist())
        for name in POINT_QUERIES
    }
    ops = []
    for i in range(POINT_PARAM_SETS):
        for name, source in POINT_QUERIES.items():
            prepared = name in POINT_PREPARED
            j = i if prepared else i % POINT_HOT_SETS
            values = {
                "Product1": f"product{products[j]}",
                "Producer1": f"producer{producers[j]}",
                "Country1": countries[j],
                "MinRating": 5,
            }
            params = {k: v for k, v in values.items() if f"%{k}%" in source}
            if i in cold_slots[name]:
                ops.append(Op(name, "cold", inline_params(source, params), None))
            else:
                ops.append(Op(name, "prepared" if prepared else "oneshot", source, params))
    return ops


def analytic_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(ANALYTIC_PARAM_SETS):
        values = {
            "Country1": COUNTRIES[0],
            "Country2": COUNTRIES[1],
            "Threshold": int(rng.integers(1400, 1600)),
            # one depth-1 type (about a quarter of the products) for every
            # parameter set: with several, bi_price splits into sub-modes and
            # the median statement of the cycle falls between two of them
            "Type1": "type2",
            "Day": dt.date(2010, 1, 1) + dt.timedelta(days=int(rng.integers(365))),
            "MinProp": int(rng.integers(400, 600)),
        }
        for name in ANALYTIC_QUERIES:
            source = QUERIES[name].graql
            params = {k: v for k, v in values.items() if f"%{k}%" in source}
            ops.append(Op(name, "oneshot", source, params))
    return ops


def stream_ops() -> list[Op]:
    return [Op(name, "oneshot", source, None) for name, source in STREAM_CYCLE]


def last_table(results):
    return next(r.table for r in reversed(results) if r.table is not None)


class Berlin(Workload):
    """A workload over the Berlin dataset.  ``twin`` is an in-process
    database holding the same rows as the engine under test: the oracle
    every distinct operation is digested against, and where the traced
    pass probes the engine layers."""

    scale = 0
    twin: Database

    def build_ops(self) -> list[Op]:
        raise NotImplementedError

    def oracle_rows(self, op: Op) -> list:
        """The reference answer: one-shot, in-process."""
        return last_table(self.twin.execute(op.source, op.params)).to_rows()


class BerlinLocal(Berlin):
    """In-process: ``Database.connect()`` onto a Berlin database (which
    is therefore its own twin: prepared == one-shot is what is checked)."""

    def _setup(self, cleanup: ExitStack) -> None:
        self.twin = self.db = cleanup.enter_context(
            berlin_database(scale=self.scale, seed=BERLIN_DATA_SEED)
        )
        self.conn = cleanup.enter_context(self.db.connect())
        self.cur = self.conn.cursor(batch_size=BATCH_ROWS)
        self.ops = self.build_ops()
        bind_prepared(self.ops, self.conn)

    def metrics_snapshot(self) -> dict:
        return self.db.metrics.snapshot()


def bind_prepared(ops: list[Op], conn) -> None:
    prepared: dict[str, Any] = {}
    for op in ops:
        if op.mode == "prepared":
            if op.name not in prepared:
                prepared[op.name] = conn.prepare(op.source)
            op.stmt = prepared[op.name]


class InprocPoint(BerlinLocal):
    name = "inproc_point"
    scale = POINT_SCALE
    round_len = len(POINT_QUERIES)
    counting_ops = 64 * len(POINT_QUERIES)

    def build_ops(self) -> list[Op]:
        return point_ops(self.seed, self.scale, cold=True)


class InprocAnalytic(BerlinLocal):
    name = "inproc_analytic"
    scale = ANALYTIC_SCALE
    round_len = len(ANALYTIC_QUERIES)
    counting_ops = len(ANALYTIC_QUERIES)

    def build_ops(self) -> list[Op]:
        return analytic_ops(self.seed)


class BerlinRemote(Berlin):
    """``RemoteConnection`` -> ``GRQLNET1`` -> ``GraqlServer`` child; the
    twin is an identically seeded database in the benchmark process
    (remote == in-process is what is checked)."""

    scale = POINT_SCALE

    def _setup(self, cleanup: ExitStack) -> None:
        self.server = procs.ServerProc(
            self.workdir, "server",
            ["berlin", "--scale", str(self.scale), "--data-seed", str(BERLIN_DATA_SEED)],
        )
        cleanup.callback(self.server.stop)
        self.server.start()
        self.conn = cleanup.enter_context(
            RemoteConnection(self.server.url, batch_rows=BATCH_ROWS)
        )
        self.cur = self.conn.cursor(batch_size=BATCH_ROWS)
        self.ops = self.build_ops()
        bind_prepared(self.ops, self.conn)

    def engine_pid(self) -> int:
        return self.server.pid

    def build_twin(self) -> None:
        self.twin = berlin_database(scale=self.scale, seed=BERLIN_DATA_SEED)

    def metrics_snapshot(self) -> dict:
        return self.server.metrics()


class RemotePoint(BerlinRemote):
    name = "remote_point"
    round_len = len(POINT_QUERIES)
    counting_ops = 64 * len(POINT_QUERIES)

    def build_ops(self) -> list[Op]:
        return point_ops(self.seed, self.scale, cold=False)


class RemoteStream(BerlinRemote):
    name = "remote_stream"
    round_len = len(STREAM_CYCLE)
    counting_ops = len(STREAM_CYCLE)

    def build_ops(self) -> list[Op]:
        return stream_ops()


# ----------------------------------------------------------------------
# ingest_read_mix
# ----------------------------------------------------------------------

def csv_text(columns) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in zip(*columns))


class IngestReadMix(Workload):
    """Durable primary (``fsync always``) + one streaming replica; 2 writes
    : 1 read over one connection.  Count-boxed: ``--seconds`` fixes the
    number of statements, not the time they take."""

    name = "ingest_read_mix"
    flush_policy = INGEST_FSYNC
    round_len = 3  # write, write, read
    #: the fixed warm-up prefix: 10 writes and their 5 reads
    counting_ops = INGEST_WARMUP_WRITES + INGEST_WARMUP_WRITES // 2

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        super().__init__(seed, seconds, workdir)
        rng = np.random.default_rng(seed)
        n = INGEST_PEOPLE
        self.n_writes = max(2, int(INGEST_WRITES_PER_SECOND * seconds))
        total_writes = INGEST_WARMUP_WRITES + self.n_writes
        self.city = rng.integers(INGEST_CITIES, size=n)
        self.age = 20 + np.arange(n) % 60
        self.src = rng.integers(n, size=n + total_writes * INGEST_BATCH_ROWS)
        self.dst = rng.integers(n, size=self.src.size)
        self.read_cities = rng.permutation(INGEST_CITIES)
        self._setups = 0

    def batch_rows(self, k: int) -> slice:
        start = INGEST_PEOPLE + k * INGEST_BATCH_ROWS
        return slice(start, start + INGEST_BATCH_ROWS)

    def batch_csv(self, k: int) -> str:
        rows = self.batch_rows(k)
        return csv_text((self.src[rows], self.dst[rows]))

    def people_csv(self) -> str:
        cities = [f"city{c}" for c in self.city]
        return csv_text((range(INGEST_PEOPLE), cities, self.age))

    def preload_csv(self) -> str:
        return csv_text((self.src[:INGEST_PEOPLE], self.dst[:INGEST_PEOPLE]))

    def _setup(self, cleanup: ExitStack) -> None:
        self._setups += 1
        self.dir = os.path.join(self.workdir, f"cluster{self._setups}")
        os.makedirs(self.dir)
        cleanup.callback(shutil.rmtree, self.dir, ignore_errors=True)

        def write(name: str, text: str) -> str:
            path = os.path.join(self.dir, name)
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            return path

        people = write("people.csv", self.people_csv())
        knows = write("knows.csv", self.preload_csv())
        total_writes = INGEST_WARMUP_WRITES + self.n_writes
        self.ops = []
        for k in range(total_writes):
            text = self.batch_csv(k)
            path = write(f"batch{k}.csv", text)
            op = Op("ingest_knows", "write", f"ingest table Knows '{path}'", None)
            op.expected = INGEST_BATCH_ROWS
            op.batch = k
            self.ops.append(op)
            if k % 2 == 1:
                city = int(self.read_cities[(k // 2) % INGEST_CITIES])
                read = Op("person_knows", "prepared", INGEST_READ, {"C": f"city{city}"})
                # NumPy oracle: edges visible after k+1 batches whose
                # source person lives in the city
                visible = self.src[: self.batch_rows(k).stop]
                read.expected = int(np.count_nonzero(self.city[visible] == city))
                self.ops.append(read)
        self.primary_dir = os.path.join(self.dir, "primary.db")
        self.primary = procs.ServerProc(
            self.dir, "primary",
            ["durable", "--db", self.primary_dir, "--fsync", INGEST_FSYNC],
        )
        cleanup.callback(self.primary.stop)
        self.primary.start()
        self.replica = procs.ServerProc(
            self.dir, "replica",
            ["replica", "--db", os.path.join(self.dir, "replica.db"),
             "--replica-of", self.primary.url, "--fsync", INGEST_FSYNC],
        )
        cleanup.callback(self.replica.stop)
        self.replica.start()
        self.conn = cleanup.enter_context(
            RemoteConnection(self.primary.url, batch_rows=BATCH_ROWS)
        )
        self.cur = self.conn.cursor(batch_size=BATCH_ROWS)
        self.conn.execute(INGEST_DDL)
        self.conn.execute(f"ingest table People '{people}'")
        self.conn.execute(f"ingest table Knows '{knows}'")
        self.conn.execute(INGEST_INDEX)
        bind_prepared(self.ops, self.conn)

    def warmup_box(self) -> dict:
        return {"count": self.counting_ops}

    def window_box(self) -> dict:
        return {"count": len(self.ops) - self.counting_ops}

    def metrics_snapshot(self) -> dict:
        return self.primary.metrics()

    def replication_metrics(self, window) -> dict:
        """Shipping is off the acknowledgment path: measure how far the
        replica trails when the client stops, and the rate it sustained."""
        drain_s = self.drain()
        records = sum(self.ops[i].is_write for i in window.op_index)
        return {
            "drain_ms": drain_s * 1000.0,
            "records_per_s": records / (window.end - window.start + drain_s),
        }

    def engine_pid(self) -> int:
        return self.primary.pid

    def run_op(self, op: Op, text: str) -> tuple[int, bool]:
        if op.is_write:
            results = self.conn.execute(text)
            return 0, results[-1].count == op.expected
        return super().run_op(op, text)

    def verify_ops(self) -> None:
        """Reads are checked against the NumPy oracle inside the window
        (``Op.expected``); nothing to digest beforehand."""

    # -- after the window ----------------------------------------------
    def drain(self, timeout: float = 30.0) -> float:
        """Wait until the replica has acknowledged everything the
        primary committed; returns the seconds waited."""
        t0 = time.perf_counter()
        while True:
            pong = ping(self.primary.url)
            peers = pong.get("replicas") or []
            if peers and peers[0]["ack_seq"] >= pong["seq"]:
                return time.perf_counter() - t0
            if time.perf_counter() - t0 > timeout:
                raise RuntimeError(f"replica never caught up: {pong}")
            time.sleep(0.002)

    def finish(self) -> None:
        want_rows = self.src.size
        self.drain()
        count_q = "select count(*) as n from table Knows"
        on_primary = self.conn.execute(count_q)[-1].table.to_rows()[0][0]
        with RemoteConnection(self.replica.url) as rc:
            on_replica = rc.execute(count_q)[-1].table.to_rows()[0][0]
        self.check(on_primary == want_rows, f"primary has {on_primary} Knows rows, oracle {want_rows}")
        self.check(on_replica == on_primary, f"replica has {on_replica} Knows rows, primary {on_primary}")
        self.crash_check()

    def crash_check(self) -> None:
        """SIGKILL the primary after the last acknowledgment, recover its
        directory, and require every acknowledged batch to be there."""
        self.conn.close()
        self.primary.kill()
        with Database.open(self.primary_dir, fsync="off") as recovered:
            cols = recovered.table("Knows").column_dict()
            self.check(
                np.array_equal(cols["src"], self.src) and np.array_equal(cols["dst"], self.dst),
                "recovered Knows table differs from the acknowledged rows",
            )


WORKLOADS: dict[str, type] = {
    w.name: w
    for w in (InprocPoint, InprocAnalytic, RemotePoint, RemoteStream, IngestReadMix)
}
