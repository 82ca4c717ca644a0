"""The closed-loop driver and the end-to-end statistics.

One client, one connection: the next statement is issued only after the
previous result is fully fetched.  A failed statement (raised, refused,
or wrong row count) is counted and contributes no latency.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

import numpy as np

#: throughput and row rate are the median of this many equal slices of
#: the window, so one stall moves one slice only
SLICES = 5

class Window:
    """What one driven window observed, per operation issued."""

    def __init__(self, start: float) -> None:
        self.start = start
        self.end = start
        #: index the next window continues the cycle from
        self.next = 0
        self.op_index: list[int] = []
        self.latency_s: list[float] = []
        self.done_at: list[float] = []
        self.rows: list[int] = []
        self.ok: list[bool] = []

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.ok)


def drive(
    ops: Sequence,
    run_op: Callable,
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    first: int = 0,
    after: Optional[Callable] = None,
    align: int = 1,
) -> Window:
    """Issue ``ops[first], ops[first+1], ...`` (cycling) until *seconds*
    have passed or *count* operations were issued.

    ``run_op(op, text)`` executes one operation and returns
    ``(rows_delivered, ok)``; the statement text is built before the
    clock starts so text generation is not billed to the engine.
    ``after(i, op, t0, t1, ok)``, if given, runs outside the timed call
    (the traced pass replays the operation there).  A time-boxed window
    ends on a multiple of *align* operations, so that whole rounds of
    the cycle are issued.
    """
    n = len(ops)
    w = Window(time.perf_counter())
    deadline = None if seconds is None else w.start + seconds
    i = first
    while True:
        op = ops[i % n]
        text = op.text(i)
        t0 = time.perf_counter()
        try:
            rows, ok = run_op(op, text)
        except Exception as e:  # noqa: BLE001 - any failure is a failed op
            print(f"operation {op.name} failed: {type(e).__name__}: {e}")
            rows, ok = 0, False
        t1 = time.perf_counter()
        w.op_index.append(i % n)
        w.latency_s.append(t1 - t0)
        w.done_at.append(t1)
        w.rows.append(rows)
        w.ok.append(ok)
        if after is not None:
            after(i, op, t0, t1, ok)
        i += 1
        if count is not None and i - first >= count:
            break
        if (
            deadline is not None
            and time.perf_counter() >= deadline
            and (i - first) % align == 0
        ):
            break
    w.end = w.done_at[-1]
    w.next = i
    return w


def tail_percentile(n: int) -> float:
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = 50.0
    for p in (90.0, 95.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def median_slice_rate(w: Window, weights: np.ndarray) -> float:
    edges = np.linspace(w.start, w.end, SLICES + 1)
    per_slice, _ = np.histogram(np.asarray(w.done_at), bins=edges, weights=weights)
    return float(np.median(per_slice / np.diff(edges)))


def end_to_end(w: Window, ops: Sequence) -> tuple[dict, dict]:
    """``(metrics, diagnostics)`` of a window.

    ``latency_*`` are over the write statements when the workload has
    any, over every statement otherwise; ``read_latency_p50_ms`` is over
    the read statements (equal to ``latency_p50_ms`` on read-only
    workloads).  A failed statement contributes to no figure.
    """
    ok = np.asarray(w.ok)
    lat_ms = np.asarray(w.latency_s) * 1000.0
    rows = np.asarray(w.rows, dtype=float) * ok
    is_write = np.asarray([ops[i].is_write for i in w.op_index])
    primary = lat_ms[ok & is_write] if is_write.any() else lat_ms[ok]
    reads = lat_ms[ok & ~is_write]
    if primary.size == 0 or reads.size == 0:
        raise RuntimeError("no statement succeeded; nothing to measure")
    metrics = {
        "throughput_ops_s": median_slice_rate(w, ok.astype(float)),
        "latency_p50_ms": float(np.percentile(primary, 50)),
        "latency_p95_ms": float(np.percentile(primary, 95)),
        "read_latency_p50_ms": float(np.percentile(reads, 50)),
        "rows_per_s": median_slice_rate(w, rows),
    }
    tail = tail_percentile(primary.size)
    diagnostics = {
        "window_s": w.end - w.start,
        "latency_samples": int(primary.size),
        "read_latency_samples": int(reads.size),
        "latency_tail_percentile": tail,
        "latency_tail_ms": float(np.percentile(primary, tail)),
        "latency_max_ms": float(primary.max()),
        "rows_delivered": int(rows.sum()),
    }
    return metrics, diagnostics
