"""The traced pass: where one statement's time goes, layer by layer.

Nothing under ``src/repro`` is instrumented.  After an operation's
end-to-end call has been timed, the benchmark *replays* it through the
public functions of each layer — on the in-process twin for the engine
layers, on the real result for the codec, on an open session for the
socket floor — and records a span around every call: name, start, end,
parent, operation id.  The parent link is logical, not temporal: a
replayed child runs after its parent's call, so a span's **self time**
is its duration minus the durations of its children.

    e2e                         the DB-API call, as the user sees it
    |- serve.call               connection-level execute, results only
    |  |- graql.frontend        parse / substitute / typecheck / IR, as this path paid it
    |  |- query.execute         execute_checked on every statement
    |  |  `- query.plan         plan_graph_select on every graph statement
    |  `- serve.admit / serve.lock / serve.cache_lookup   timed alone on fresh objects
    |- storage.materialize      Table.iter_batches into Row objects
    |- net.encode / net.decode / net.rtt_floor            remote workloads
    |- graph.refresh            ingest into the view-backed twin ...
    |  `- storage.ingest        ... minus the same rows into a view-less twin
    `- durability.wal_append / durability.fsync           WalWriter alone

The layer table is the median self time per layer over the traced
operations; ``unattributed_ms`` is the traced end-to-end median minus
their sum, so the budget adds up by construction and what the replays
do not explain is visible.  Traced and plain rounds alternate, and
``trace_overhead_frac`` compares their medians.  Counts (cache hits,
wire bytes, fsyncs, WAL bytes) come from the engine's own counters over
a count-boxed plain pass, so they repeat exactly for a seed.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import time
from contextlib import contextmanager
from statistics import median
from typing import Iterator, Optional

from repro import Database, connect
from repro.analysis.verifier import verify_statement_ir
from repro.durability import WalWriter
from repro.graql.compiler import compile_script
from repro.graql.ir import decode_statement
from repro.graql.params import substitute_statement
from repro.graql.parser import parse_script
from repro.graql.typecheck import CheckedGraphSelect, check_statement
from repro.net import FrameSocket, PROTOCOL_VERSION, decode_frame, encode_frame, parse_url
from repro.net import frame as ft
from repro.net.protocol import decode_result, encode_results, table_from_meta
from repro.obs import MetricsRegistry
from repro.query import plan_graph_select
from repro.query.executor import execute_checked
from repro.serve import AdmissionController, PlanCache, RWLock
from repro.serve.engine import script_is_write
from repro.storage.table import Row

import measure
import procs
import workloads as wk

#: layer metrics that are times on the blocking path of one statement;
#: together with ``unattributed_ms`` they sum to ``traced_latency_p50_ms``
TIME_LAYERS = {
    "graql.frontend_ms": ("graql.frontend",),
    "serve.overhead_ms": ("serve.call", "serve.admit", "serve.lock", "serve.cache_lookup"),
    "query.plan_ms": ("query.plan",),
    "query.execute_ms": ("query.execute",),
    "storage.materialize_ms": ("storage.materialize",),
    "storage.ingest_ms": ("storage.ingest",),
    "net.rtt_floor_ms": ("net.rtt_floor",),
    "net.encode_ms": ("net.encode",),
    "net.decode_ms": ("net.decode",),
    "graph.refresh_ms": ("graph.refresh",),
    "durability.wal_append_ms": ("durability.wal_append",),
    "durability.fsync_ms": ("durability.fsync",),
}
SERVE_PARTS_US = {
    "serve.admit_us": "serve.admit",
    "serve.lock_us": "serve.lock",
    "serve.cache_lookup_us": "serve.cache_lookup",
}


class Spans:
    """Spans kept in memory; written as JSON-lines when the pass ends."""

    def __init__(self) -> None:
        #: [id, parent id or None, operation id, name, start, end]
        self.rows: list[list] = []

    def add(self, name: str, op: int, parent: Optional[int], start: float, end: float) -> int:
        self.rows.append([len(self.rows), parent, op, name, start, end])
        return len(self.rows) - 1

    @contextmanager
    def span(self, name: str, op: int, parent: Optional[int]) -> Iterator[int]:
        sid = self.add(name, op, parent, time.perf_counter(), 0.0)
        try:
            yield sid
        finally:
            self.rows[sid][5] = time.perf_counter()

    def write(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")

    def durations_ms(self, name: str) -> list[float]:
        return [(r[5] - r[4]) * 1000.0 for r in self.rows if r[3] == name]

    def self_ms(self) -> dict[str, dict[int, float]]:
        """name -> operation id -> self time (duration minus children)."""
        own = [(r[5] - r[4]) * 1000.0 for r in self.rows]
        for r in self.rows:
            if r[1] is not None:
                own[r[1]] -= (r[5] - r[4]) * 1000.0
        out: dict[str, dict[int, float]] = {}
        for r in self.rows:
            by_op = out.setdefault(r[3], {})
            by_op[r[2]] = by_op.get(r[2], 0.0) + own[r[0]]
        return out


class PingSession:
    """An open, authenticated session used only for PING/PONG: frame
    encode, socket, the server's session-thread wake-up, and back — the
    floor under every remote statement, with no engine work."""

    def __init__(self, url: str) -> None:
        sock = socket.create_connection(parse_url(url), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.fs = FrameSocket(sock)
        self.fs.send_magic()
        self.fs.send_frame(ft.FT_HELLO, {"proto": PROTOCOL_VERSION, "user": "admin"})
        ftype, payload = self.fs.recv_frame()
        if ftype != ft.FT_HELLO_OK:
            self.fs.close()
            raise RuntimeError(f"ping session refused: {payload}")

    def ping(self) -> dict:
        self.fs.send_frame(ft.FT_PING, {})
        ftype, payload = self.fs.recv_frame()
        if ftype != ft.FT_PONG:
            raise RuntimeError(f"expected PONG, got frame type {ftype}")
        return payload

    def close(self) -> None:
        self.fs.close()


# ----------------------------------------------------------------------
# The wire codec, replayed on a real result
# ----------------------------------------------------------------------

def encode_exchange(request: dict, results: list, batches: list) -> list[bytes]:
    """What client and server put on the wire for one statement."""
    header = encode_results(results)
    frames = [encode_frame(ft.FT_EXECUTE, request), encode_frame(ft.FT_RESULT, header)]
    streamed = 0
    if header["stream"] is not None:
        for batch in batches:
            frames.append(encode_frame(ft.FT_BATCH, {"rows": [list(r) for r in batch]}))
            streamed += len(batch)
    frames.append(encode_frame(ft.FT_DONE, {"rows": streamed}))
    return frames


def decode_exchange(frames: list[bytes]) -> list:
    """What server and client do with those bytes: the request decoded,
    the results rebuilt, every streamed row turned back into a ``Row``."""
    decode_frame(frames[0])
    _, header, _ = decode_frame(frames[1])
    results = [decode_result(p) for p in header["results"]]
    stream = header.get("stream")
    raw: list[tuple] = []
    rows: list = []
    if stream is not None:
        meta = header["results"][stream["index"]]["table"]
        row_cls = Row.make_class([name for name, _ in meta["columns"]])
    for blob in frames[2:]:
        ftype, payload, _ = decode_frame(blob)
        if ftype == ft.FT_BATCH:
            batch = [tuple(r) for r in payload["rows"]]
            raw.extend(batch)
            rows.extend(row_cls(r) for r in batch)
    if stream is not None:
        results[stream["index"]].table = table_from_meta(meta, raw)
    return rows


# ----------------------------------------------------------------------
# Probes: replay one operation through each layer
# ----------------------------------------------------------------------

class EngineProbe:
    """Read operations of the Berlin workloads, on the in-process twin."""

    def __init__(self, wl: wk.Berlin) -> None:
        self.db = wl.twin
        self.remote = isinstance(wl, wk.BerlinRemote)
        # a GraqlServer session executes over the IR transport; an
        # in-process workload's own connection is the 'local' transport
        self.conn = connect(self.db.server, transport="ir") if self.remote else wl.conn
        self.prepared: dict[str, object] = {}
        #: script text -> does it take the write lock (parsed once)
        self.is_write: dict[str, bool] = {}
        self.pinger = PingSession(wl.server.url) if self.remote else None
        self.admission = AdmissionController(40, metrics=MetricsRegistry())
        self.lock = RWLock()
        self.cache = PlanCache(metrics=MetricsRegistry())
        self.examined = 0
        self.rows_out = 0
        self.materialized_rows = 0
        self.lag_records: list[int] = []

    def close(self) -> None:
        if self.pinger is not None:
            self.pinger.close()

    def statement(self, op: wk.Op):
        if not self.remote:
            return op.stmt
        if op.name not in self.prepared:
            self.prepared[op.name] = self.conn.prepare(op.source)
        return self.prepared[op.name]

    def resolve(self, statements, params) -> list:
        catalog = self.db.catalog
        return [
            check_statement(substitute_statement(s, params) if params else s, catalog)
            for s in statements
        ]

    def frontend(self, op: wk.Op, text: str, hit: bool) -> Optional[list]:
        """The front-end work this operation's path pays; the checked
        statements, or None when the path never produced them (a plan
        cache hit parses for classification and nothing else)."""
        catalog = self.db.catalog
        if self.remote:
            parse_script(text)  # RemoteConnection classifies read/write client-side
        if op.mode == "prepared":
            stmt = self.statement(op)
            return self.resolve([decode_statement(ir) for ir in stmt.ir], op.params)
        script = parse_script(text)
        if hit:
            return None
        if not self.remote:
            return self.resolve(script.statements, op.params)
        checked = []
        for cs in compile_script(script, catalog, op.params):
            verify_statement_ir(cs.ir, catalog)
            checked.append(check_statement(decode_statement(cs.ir), catalog))
        return checked

    def replay(self, sp: Spans, e2e: int, i: int, op: wk.Op, text: str) -> None:
        db = self.db
        with sp.span("serve.call", i, e2e) as call:
            if op.mode == "prepared":
                results = self.statement(op).execute(op.params)
            else:
                results = self.conn.execute(text, op.params)
        hit = all(r.profile.cache_hit for r in results)
        with sp.span("graql.frontend", i, call):
            checked = self.frontend(op, text, hit)
        if checked is None:
            checked = self.resolve(parse_script(text).statements, op.params)
        with sp.span("query.execute", i, call) as execute:
            executed = [execute_checked(db.db, db.catalog, c) for c in checked]
        with sp.span("query.plan", i, execute):
            for c in checked:
                if isinstance(c, CheckedGraphSelect):
                    plan_graph_select(c, db.catalog)
        with sp.span("serve.admit", i, call):
            self.admission.release(self.admission.admit("admin"))
        if op.source not in self.is_write:
            self.is_write[op.source] = script_is_write(parse_script(op.source))
        write = self.is_write[op.source]
        with sp.span("serve.lock", i, call):
            with (self.lock.write_locked() if write else self.lock.read_locked()):
                pass
        if op.mode != "prepared" and not write:
            with sp.span("serve.cache_lookup", i, call):
                self.cache.lookup(self.cache.key(text, op.params, 0))
        for r in executed:
            self.examined += r.profile.edges_scanned + r.profile.attr_seek_rows
        self.rows_out += executed[-1].profile.rows_out
        table = wk.last_table(results)
        with sp.span("storage.materialize", i, e2e):
            batches = list(table.iter_batches(wk.BATCH_ROWS))
        self.materialized_rows += table.num_rows
        if self.remote:
            request = {"source": text, "batch_rows": wk.BATCH_ROWS}
            if op.params:
                request["params"] = op.params
            with sp.span("net.encode", i, e2e):
                frames = encode_exchange(request, results, batches)
            with sp.span("net.decode", i, e2e):
                decode_exchange(frames)
            with sp.span("net.rtt_floor", i, e2e):
                self.pinger.ping()


class IngestProbe:
    """Write statements of ``ingest_read_mix``: two in-memory twins (one
    with the views and the index, one with bare tables) kept in step
    with the server, a ``WalWriter`` of its own, and a ping session."""

    def __init__(self, wl: wk.IngestReadMix) -> None:
        self.wl = wl
        self.viewed = Database()
        self.viewed.execute(wk.INGEST_DDL)
        self.plain = Database()
        self.plain.execute(wk.INGEST_DDL.split("create vertex")[0])
        for db in (self.viewed, self.plain):
            db.ingest_text("People", wl.people_csv())
            db.ingest_text("Knows", wl.preload_csv())
        self.viewed.execute(wk.INGEST_INDEX)
        self.applied = 0
        self.wal = WalWriter(os.path.join(wl.dir, "probe-wal.log"), fsync="off")
        self.pinger = PingSession(wl.primary.url)
        self.examined = self.rows_out = self.materialized_rows = 0
        self.lag_records: list[int] = []

    def close(self) -> None:
        self.pinger.close()
        self.wal.close()

    def catch_up(self, batch: int) -> None:
        """Apply the batches of plain rounds, so the twins are the size
        the server's tables are when *batch* arrives."""
        while self.applied < batch:
            text = self.wl.batch_csv(self.applied)
            self.viewed.ingest_text("Knows", text)
            self.plain.ingest_text("Knows", text)
            self.applied += 1

    def replay(self, sp: Spans, e2e: int, i: int, op: wk.Op, text: str) -> None:
        self.catch_up(op.batch)
        rows = self.wl.batch_csv(op.batch)
        with sp.span("graph.refresh", i, e2e) as refresh:
            self.viewed.ingest_text("Knows", rows)
        with sp.span("storage.ingest", i, refresh):
            self.plain.ingest_text("Knows", rows)
        self.applied += 1
        with sp.span("graql.frontend", i, e2e):
            parse_script(text)  # client-side classification
            check_statement(parse_script(text).statements[0], self.viewed.catalog)
        record = {
            "seq": self.applied, "epoch": self.viewed.catalog.epoch, "repl": 0,
            "kind": "ingest", "data": {"table": "Knows", "csv": rows},
        }
        with sp.span("durability.wal_append", i, e2e):
            self.wal.append(record)
        with sp.span("durability.fsync", i, e2e):
            self.wal.sync()
        with sp.span("net.rtt_floor", i, e2e):
            pong = self.pinger.ping()
        self.lag_records.extend(p["lag_records"] for p in pong.get("replicas") or [])


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------

def counter_sum(snapshot: dict, name: str) -> float:
    """A counter summed over its label sets."""
    return sum(v for k, v in snapshot.items() if k.split("{")[0] == name)


def counted(wl: wk.Workload) -> tuple[measure.Window, dict]:
    """A count-boxed plain pass between two reads of the engine's own
    counters: the same statements every time, so the counts repeat."""
    before = wl.metrics_snapshot()
    w = measure.drive(wl.ops, wl.run_op, count=wl.counting_ops)
    after = wl.metrics_snapshot()

    def delta(name: str) -> float:
        return counter_sum(after, name) - counter_sum(before, name)

    def ratio(total: float, per: float) -> float:
        return total / per if per else 0.0

    writes = sum(wl.ops[i].is_write for i in w.op_index)
    user_bytes = sum(
        len(wl.batch_csv(wl.ops[i].batch)) for i in w.op_index if wl.ops[i].is_write
    )
    wire = delta("graql_net_bytes_sent_total") + delta("graql_net_bytes_received_total")
    return w, {
        "graql.cache_hit_ratio": ratio(
            delta("graql_statements_cached_total"), delta("graql_statements_total")
        ),
        "net.bytes_per_row": ratio(wire, sum(w.rows)),
        "durability.fsyncs_per_stmt": ratio(delta("graql_wal_fsyncs_total"), writes),
        "durability.wal_bytes_per_user_byte": ratio(delta("graql_wal_bytes_total"), user_bytes),
    }


def traced_pass(wl: wk.Workload, log_path: str) -> tuple[int, int, dict, dict]:
    """``(attempted, failed, per-layer values, detail)``."""
    counting, values = counted(wl)
    probe = IngestProbe(wl) if isinstance(wl, wk.IngestReadMix) else EngineProbe(wl)
    sp = Spans()
    on_path = any(op.is_write for op in wl.ops)  # writes, where there are any
    #: operation name -> latencies, of the plain and of the traced rounds
    plain_ms: dict[str, list[float]] = {}
    traced_by_name: dict[str, list[float]] = {}

    def after(i: int, op: wk.Op, t0: float, t1: float, ok: bool) -> None:
        if not ok or op.is_write != on_path:
            return
        if (i // wl.round_len) % 2 == 0:
            plain_ms.setdefault(op.name, []).append((t1 - t0) * 1000.0)
            return
        traced_by_name.setdefault(op.name, []).append((t1 - t0) * 1000.0)
        e2e = sp.add("e2e", i, None, t0, t1)
        # a cold operation's replay needs text of its own, never seen either
        probe.replay(sp, e2e, i, op, op.text(-1 - i))
        # the replay's garbage is not the next statement's to collect; the
        # young generations only, because a full collection walks the whole
        # heap and leaves the caches cold (inproc_point: +15% on the next
        # statement; no collection: +20% on remote_stream)
        gc.collect(1)

    try:
        window = measure.drive(
            wl.ops, wl.run_op, first=counting.next, after=after,
            align=2 * wl.round_len, **wl.window_box()
        )
        replication = wl.replication_metrics(window)
    finally:
        probe.close()
        sp.write(log_path)

    traced_ms = sp.durations_ms("e2e")
    if set(plain_ms) != set(traced_by_name):
        raise RuntimeError("the traced pass did not reach every operation both ways")
    by_name = sp.self_ms()
    ops_traced = sorted(by_name["e2e"])

    def layer_median(names: tuple) -> float:
        return median(
            sum(by_name.get(n, {}).get(op, 0.0) for n in names) for op in ops_traced
        )

    p50 = median(traced_ms)
    for metric, names in TIME_LAYERS.items():
        values[metric] = layer_median(names)
    for metric, name in SERVE_PARTS_US.items():
        values[metric] = layer_median((name,)) * 1000.0
    values["traced_latency_p50_ms"] = p50
    values["unattributed_ms"] = p50 - sum(values[m] for m in TIME_LAYERS)
    # per operation name, so that a cycle of cheap and dear statements
    # compares like with like; then the median name
    values["trace_overhead_frac"] = median(
        median(traced_by_name[name]) / median(plain_ms[name]) - 1.0 for name in plain_ms
    )
    values["query.rows_examined_per_row_out"] = (
        probe.examined / probe.rows_out if probe.rows_out else 0.0
    )
    materialize_s = sum(by_name.get("storage.materialize", {}).values()) / 1000.0
    values["storage.rows_per_s"] = (
        probe.materialized_rows / materialize_s if materialize_s else 0.0
    )
    values["replication.lag_records_max"] = max(probe.lag_records, default=0)
    values["replication.drain_ms"] = replication.get("drain_ms", 0.0)
    values["replication.records_per_s"] = replication.get("records_per_s", 0.0)
    detail = {
        "traced_ops": len(traced_ms),
        "plain_ops": sum(map(len, plain_ms.values())),
        "counting_ops": counting.attempted,
        "plain_latency_p50_ms": median(ms for v in plain_ms.values() for ms in v),
        "spans": len(sp.rows),
        "span_log": os.path.relpath(log_path, procs.ROOT),
        "layer_share": {m: values[m] / p50 for m in (*TIME_LAYERS, "unattributed_ms")},
    }
    return (
        counting.attempted + window.attempted,
        counting.failed + window.failed,
        values,
        detail,
    )
