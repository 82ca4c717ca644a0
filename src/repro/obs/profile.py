"""Query profiles: what a statement actually did, measured.

A :class:`QueryProfile` rides on every
:class:`~repro.query.executor.StatementResult` (unless
``QueryOptions(profile=False)``) and carries:

* **per-stage wall time** — parse / substitute / typecheck / plan /
  execute / materialize (``cache`` on a plan-cache hit), plus
  ``compile_ir`` / ``decode_ir`` when the statement was shipped to a
  cluster backend;
* **per-step estimated vs. actual cardinality** — the planner's
  frontier-recurrence estimates next to the sizes the executor really
  produced, per atom and step, with both direction costs and the
  chosen direction's q-error (``max(est/actual, actual/est)``);
* **executor counters** — edge-index lookups and edges scanned;
* **distributed counters** (cluster runs) — per-superstep frontier
  sizes, bytes shipped, envelope/message counts, retries, failovers and
  injected faults;
* optionally a **span tree** (``QueryOptions(trace=True)``).

``render()`` is the ``explain analyze`` text; ``to_dict()`` is the
machine-readable schema documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import SIZE_BUCKETS, MetricsRegistry
from repro.obs.trace import Span

#: cap on retained per-superstep entries (bounds profile memory on
#: pathological queries; the totals keep counting past the cap)
MAX_SUPERSTEP_ENTRIES = 128


class StepProfile:
    """One step of one atom: estimate(s) vs. measured cardinality."""

    __slots__ = ("index", "kind", "detail", "est_forward", "est_backward", "actual")

    def __init__(
        self,
        index: int,
        kind: str,  # 'vertex' | 'edge' | 'regex'
        detail: str,
        est_forward: Optional[float] = None,
        est_backward: Optional[float] = None,
        actual: Optional[int] = None,
    ) -> None:
        self.index = index
        self.kind = kind
        self.detail = detail
        self.est_forward = est_forward
        self.est_backward = est_backward
        self.actual = actual

    def estimated(self, direction: str) -> Optional[float]:
        return self.est_forward if direction == "forward" else self.est_backward

    def q_error(self, direction: str) -> Optional[float]:
        """``max(est/actual, actual/est)`` of *direction*'s estimate, both
        clamped to one row so an empty step stays finite; None until
        the step has an estimate and an actual."""
        est = self.estimated(direction)
        if est is None or self.actual is None:
            return None
        est, actual = max(est, 1.0), max(float(self.actual), 1.0)
        return max(est / actual, actual / est)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "detail": self.detail,
            "est_forward": self.est_forward,
            "est_backward": self.est_backward,
            "actual": self.actual,
        }


class AtomProfile:
    """One atom's plan choice and per-step numbers."""

    __slots__ = (
        "index", "direction", "cost_forward", "cost_backward", "forced",
        "steps", "access", "access_est", "access_forced",
    )

    def __init__(
        self,
        index: int,
        direction: str,
        cost_forward: float,
        cost_backward: float,
        forced: Optional[str] = None,
        access: Optional[str] = None,
        access_est: Optional[float] = None,
        access_forced: Optional[str] = None,
    ) -> None:
        self.index = index
        self.direction = direction
        self.cost_forward = cost_forward
        self.cost_backward = cost_backward
        #: why the direction was not the cost winner ('options' | 'label-ref')
        self.forced = forced
        #: anchor access path, e.g. ``"index-seek(by_age)"`` or ``"scan"``
        self.access = access
        #: estimated candidate rows out of the access path
        self.access_est = access_est
        #: why the access path ignored the cost model (None | 'hint')
        self.access_forced = access_forced
        self.steps: list[StepProfile] = []

    def access_line(self) -> Optional[str]:
        """The ``access: index-seek(I) est=...`` fragment, or None."""
        if self.access is None:
            return None
        txt = f"access: {self.access}"
        if self.access_est is not None:
            txt += f" est={self.access_est:.1f}"
        if self.access_forced:
            txt += f" (forced by {self.access_forced})"
        return txt

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "direction": self.direction,
            "cost_forward": self.cost_forward,
            "cost_backward": self.cost_backward,
            "forced": self.forced,
            "access": self.access,
            "access_est": self.access_est,
            "access_forced": self.access_forced,
            "steps": [
                dict(s.to_dict(), q_error=s.q_error(self.direction))
                for s in self.steps
            ],
        }


class QueryProfile:
    """Everything measured while executing one statement."""

    def __init__(self, kind: str = "") -> None:
        self.kind = kind  # 'ddl' | 'ingest' | 'table' | 'subgraph'
        self.strategy: Optional[str] = None
        #: ordered (stage name, milliseconds)
        self.stages: list[tuple[str, float]] = []
        self.atoms: list[AtomProfile] = []
        #: edge-index lookups (one per index consulted per step)
        self.index_hits = 0
        #: edges touched by those lookups
        self.edges_scanned = 0
        #: secondary attribute-index seeks (one per anchor seek)
        self.attr_seeks = 0
        #: candidate rows those seeks produced
        self.attr_seek_rows = 0
        #: rows (table) or vertices (subgraph) in the result
        self.rows_out = 0
        #: distributed-execution counters; None for single-node runs
        self.dist: Optional[dict] = None
        #: pipelined-pair stats (chunks / peak rows); None when not fused
        self.pipeline: Optional[dict] = None
        #: root span of the trace (QueryOptions(trace=True) only)
        self.trace: Optional[Span] = None
        #: what the ingest's view refresh consumed (ingest statements
        #: only): a :class:`~repro.graph.delta.RefreshReport`
        self.refresh = None
        #: True when the serving layer answered from the plan cache —
        #: parse/typecheck were skipped (rendered as ``cache: hit``)
        self.cache_hit = False

    # ------------------------------------------------------------------
    # Stage timing
    # ------------------------------------------------------------------
    def add_stage(self, name: str, ms: float) -> None:
        self.stages.append((name, ms))

    @contextmanager
    def time_stage(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_stage(name, (time.perf_counter() - t0) * 1000.0)

    def stage_ms(self, name: str) -> Optional[float]:
        for n, ms in self.stages:
            if n == name:
                return ms
        return None

    @property
    def total_ms(self) -> float:
        return sum(ms for _, ms in self.stages)

    # ------------------------------------------------------------------
    # Dist counters
    # ------------------------------------------------------------------
    def ensure_dist(self) -> dict:
        if self.dist is None:
            self.dist = {
                "supersteps": 0,
                "messages": 0,
                "bytes": 0,
                "retries": 0,
                "failovers": 0,
                "backoff_ms": 0.0,
                "extra_messages": 0,
                "extra_bytes": 0,
                "faults": {},
                "steps": [],  # per-superstep entries (capped)
            }
        return self.dist

    def record_superstep(
        self,
        phase: str,
        frontier: int,
        messages: int,
        nbytes: int,
        retries: int = 0,
    ) -> None:
        d = self.ensure_dist()
        d["supersteps"] += 1
        d["messages"] += messages
        d["bytes"] += nbytes
        d["retries"] += retries
        if len(d["steps"]) < MAX_SUPERSTEP_ENTRIES:
            d["steps"].append(
                {
                    "phase": phase,
                    "frontier": frontier,
                    "messages": messages,
                    "bytes": nbytes,
                    "retries": retries,
                }
            )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The ``explain analyze`` text block for this statement."""
        head = f"PROFILE (kind={self.kind or '?'}"
        if self.strategy:
            head += f", strategy={self.strategy}"
        head += f", rows={self.rows_out})"
        lines = [head]
        if self.cache_hit:
            lines.append("  cache: hit")
        if self.stages:
            stage_txt = " ".join(f"{n}={ms:.3f}ms" for n, ms in self.stages)
            lines.append(f"  stages: {stage_txt} total={self.total_ms:.3f}ms")
        for ap in self.atoms:
            forced = f", forced by {ap.forced}" if ap.forced else ""
            lines.append(
                f"  atom {ap.index}: direction={ap.direction} "
                f"(cost fwd={ap.cost_forward:.1f}, bwd={ap.cost_backward:.1f}"
                f"{forced})"
            )
            access_line = ap.access_line()
            if access_line is not None:
                lines.append(f"    {access_line}")
            for sp in ap.steps:
                est = sp.estimated(ap.direction)
                est_txt = f"{est:.1f}" if est is not None else "?"
                actual_txt = str(sp.actual) if sp.actual is not None else "?"
                q = sp.q_error(ap.direction)
                q_txt = f"{q:.2f}" if q is not None else "?"
                lines.append(
                    f"    step {sp.index} {sp.kind:<6} {sp.detail:<28} "
                    f"est={est_txt:>10} actual={actual_txt:>8} q={q_txt:>6}"
                )
        if self.index_hits or self.edges_scanned:
            lines.append(
                f"  index: {self.index_hits} lookups, "
                f"{self.edges_scanned} edges scanned"
            )
        if self.attr_seeks:
            lines.append(
                f"  attr-index: {self.attr_seeks} seeks, "
                f"{self.attr_seek_rows} candidate rows"
            )
        if self.refresh is not None:
            views = " ".join(f"{n}({k})={rows}" for n, k, rows in self.refresh.views)
            lines.append(
                f"  refresh: {self.refresh.seconds * 1000.0:.3f}ms "
                f"rows consumed: {views or 'none'}"
            )
        if self.pipeline is not None:
            lines.append(
                "  pipeline: chunks={chunks} paths={total_paths} "
                "peak_partial_rows={peak_partial_rows}".format(**self.pipeline)
            )
        if self.dist is not None:
            d = self.dist
            lines.append(
                f"  dist: supersteps={d['supersteps']} messages={d['messages']} "
                f"bytes={d['bytes']} retries={d['retries']} "
                f"failovers={d['failovers']}"
            )
            for i, s in enumerate(d["steps"]):
                lines.append(
                    f"    superstep {i} [{s['phase']}]: frontier={s['frontier']} "
                    f"messages={s['messages']} bytes={s['bytes']}"
                    + (f" retries={s['retries']}" if s["retries"] else "")
                )
            if d.get("faults"):
                faults = " ".join(
                    f"{k}={v}" for k, v in sorted(d["faults"].items())
                )
                lines.append(f"    faults: {faults}")
        if self.trace is not None:
            lines.append("  trace:")
            lines.append(
                "\n".join("    " + l for l in self.trace.render().splitlines())
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "kind": str(self.kind),
            "strategy": self.strategy,
            "cache_hit": self.cache_hit,
            "stages": [{"name": n, "ms": round(ms, 3)} for n, ms in self.stages],
            "atoms": [a.to_dict() for a in self.atoms],
            "index_hits": self.index_hits,
            "edges_scanned": self.edges_scanned,
            "attr_seeks": self.attr_seeks,
            "attr_seek_rows": self.attr_seek_rows,
            "rows_out": self.rows_out,
            "dist": self.dist,
            "pipeline": self.pipeline,
            "refresh": None
            if self.refresh is None
            else {
                "ms": round(self.refresh.seconds * 1000.0, 3),
                "views": [
                    {"view": n, "kind": k, "rows": rows} for n, k, rows in self.refresh.views
                ],
            },
            "trace": self.trace.to_dict() if self.trace is not None else None,
        }

    def __repr__(self) -> str:
        return (
            f"QueryProfile(kind={self.kind!r}, strategy={self.strategy!r}, "
            f"stages={len(self.stages)}, total={self.total_ms:.3f}ms)"
        )


# ----------------------------------------------------------------------
# Registry recording
# ----------------------------------------------------------------------

def record_profile_metrics(registry: MetricsRegistry, profile: QueryProfile) -> None:
    """Fold one statement's profile into a metrics registry.

    Called at the session/server boundary after each statement, so every
    layer contributes through the profile instead of threading the
    registry through executor internals (metric names:
    docs/OBSERVABILITY.md).  Instruments are resolved by name once per
    registry (and statement kind, stage or strategy) and cached there:
    a warm statement makes no get-or-create lookup.
    """
    kind = profile.kind or "unknown"
    registry.cached(
        ("statements", kind),
        lambda: registry.counter(
            "graql_statements_total", "statements executed", labels={"kind": kind}
        ),
    ).inc()
    for name, ms in profile.stages:
        registry.cached(
            ("stage", name),
            lambda: registry.histogram(
                "graql_stage_seconds", "per-stage wall time", labels={"stage": name}
            ),
        ).observe(ms / 1000.0)
    if profile.index_hits:
        registry.cached(
            "index_hits",
            lambda: registry.counter("graql_index_hits_total", "edge-index lookups"),
        ).inc(profile.index_hits)
    if profile.edges_scanned:
        registry.cached(
            "edges_scanned",
            lambda: registry.counter(
                "graql_edges_scanned_total", "edges touched by index lookups"
            ),
        ).inc(profile.edges_scanned)
    if profile.attr_seeks:
        registry.cached(
            "index_seeks",
            lambda: registry.counter(
                "graql_index_seeks_total", "secondary attribute-index seeks"
            ),
        ).inc(profile.attr_seeks)
        registry.cached(
            "index_seek_rows",
            lambda: registry.counter(
                "graql_index_seek_rows_total",
                "candidate rows produced by attribute-index seeks",
            ),
        ).inc(profile.attr_seek_rows)
    if profile.refresh is not None:
        record_refresh_metrics(registry, profile.refresh)
    registry.cached(
        "rows_out",
        lambda: registry.histogram(
            "graql_rows_out",
            "result rows (tables) or vertices (subgraphs)",
            buckets=SIZE_BUCKETS,
        ),
    ).observe(float(profile.rows_out))
    strategy = profile.strategy
    if strategy:
        registry.cached(
            ("plans", strategy),
            lambda: registry.counter(
                "graql_plans_total",
                "planned graph selects",
                labels={"strategy": strategy},
            ),
        ).inc()
    d = profile.dist
    if d is not None:
        registry.counter(
            "graql_dist_supersteps_total", "communication supersteps"
        ).inc(d["supersteps"])
        registry.counter(
            "graql_dist_messages_total", "remote message envelopes"
        ).inc(d["messages"])
        registry.counter(
            "graql_dist_bytes_total", "payload+envelope bytes shipped"
        ).inc(d["bytes"])
        registry.counter(
            "graql_dist_retries_total", "superstep retries"
        ).inc(d["retries"])
        registry.counter(
            "graql_dist_failovers_total", "partition failovers"
        ).inc(d["failovers"])
        hist = registry.histogram(
            "graql_dist_frontier_size",
            "per-superstep frontier sizes",
            buckets=SIZE_BUCKETS,
        )
        for s in d["steps"]:
            hist.observe(float(s["frontier"]))
        for fault, count in d.get("faults", {}).items():
            if isinstance(count, (int, float)) and count:
                registry.counter(
                    "graql_dist_faults_total",
                    "injected faults observed",
                    labels={"fault": fault},
                ).inc(count)


def record_refresh_metrics(registry: MetricsRegistry, report) -> None:
    """Fold one view refresh (a :class:`~repro.graph.delta.RefreshReport`)
    into a metrics registry.  The rows counter is the work done — rows
    past the views' watermarks — so it repeats exactly for the same
    statements whatever the tables already hold."""
    if not report:
        return
    registry.histogram(
        "graql_view_refresh_seconds",
        "wall time of one delta refresh of the views an ingest touched",
    ).observe(report.seconds)
    for view, kind, rows in report.views:
        registry.counter(
            "graql_view_refresh_rows_total",
            "relation rows consumed by view refreshes",
            labels={"view": view, "kind": kind},
        ).inc(rows)
