"""Metrics registry: counters, gauges, histograms + Prometheus text export.

A :class:`MetricsRegistry` is a process-local, dependency-free metrics
store in the Prometheus data model: instruments are identified by a
metric *name* plus an optional immutable *label set*, and the registry
renders the classic text exposition format so the numbers can be pasted
into any Prometheus-compatible tooling (or just diffed in tests).

Design constraints (docs/OBSERVABILITY.md):

* **Cheap when idle** — instruments are plain attribute bumps; nothing
  allocates on the hot path once an instrument exists.
* **Resettable** — ``reset()`` zeroes every instrument without dropping
  registrations, so per-query deltas are easy to take in tests and the
  ``graql profile`` CLI.
* **Deterministic rendering** — output is sorted by (name, labels) so
  golden tests and diffs are stable.
* **Thread-safe** — the serving layer feeds one registry from many
  worker threads, so registration and every instrument mutation take a
  lock (per-instrument for the hot bump path, registry-wide for
  get-or-create / reset / render).

Metric names used by the engine are documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Hashable, Mapping, Optional, Sequence, TypeVar

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram buckets, in seconds (latency-shaped, Prometheus-style)
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: size-shaped buckets (bytes, frontier sizes, row counts)
SIZE_BUCKETS: tuple[float, ...] = (
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
)

LabelKey = tuple[tuple[str, str], ...]
_I = TypeVar("_I")


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    """Render a sample value: integral floats without the trailing .0."""
    if value == int(value):
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are the upper bounds of the finite buckets; an implicit
    ``+Inf`` bucket always exists.  ``bucket_counts[i]`` counts samples
    ``<= buckets[i]`` *non*-cumulatively here; rendering accumulates.
    """

    __slots__ = (
        "buckets", "bucket_counts", "inf_count", "sum", "count", "_lock"
    )

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bs = tuple(float(b) for b in buckets)
        if not bs:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bs) != sorted(bs):
            raise ValueError("histogram buckets must be sorted ascending")
        self.buckets = bs
        self.bucket_counts = [0] * len(bs)
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.inf_count += 1

    def cumulative_counts(self) -> list[int]:
        """Counts for ``le=bound`` lines, cumulative, +Inf last."""
        out = []
        running = 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        out.append(running + self.inf_count)
        return out

    def reset(self) -> None:
        with self._lock:
            self.bucket_counts = [0] * len(self.buckets)
            self.inf_count = 0
            self.sum = 0.0
            self.count = 0


class MetricsRegistry:
    """Named instruments with label sets and a text exposition."""

    def __init__(self) -> None:
        # name -> (kind, help, {label_key: instrument})
        self._metrics: dict[str, tuple[str, str, dict[LabelKey, object]]] = {}
        # guards registration and iteration; instruments self-lock bumps
        self._lock = threading.Lock()
        #: instruments a hot caller resolved once, under its own keys
        #: (see :meth:`cached`); emptied with the registrations by clear()
        self._handles: dict[Hashable, object] = {}
        #: get-or-create lookups by name so far (the per-statement
        #: recording path must make none once warm)
        self.lookups = 0

    # ------------------------------------------------------------------
    # Instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def _get(
        self,
        kind: str,
        name: str,
        help_text: str,
        labels: Optional[Mapping[str, str]],
        factory,
    ):
        key = _label_key(labels)
        with self._lock:
            self.lookups += 1
            if name not in self._metrics:
                if not _NAME_RE.match(name):
                    raise ValueError(f"invalid metric name {name!r}")
                self._metrics[name] = (kind, help_text, {})
            existing_kind, _, series = self._metrics[name]
            if existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing_kind}, "
                    f"not {kind}"
                )
            inst = series.get(key)
            if inst is None:
                inst = factory()
                series[key] = inst
            return inst

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        return self._get("counter", name, help_text, labels, Counter)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        return self._get("gauge", name, help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(
            "histogram", name, help_text, labels, lambda: Histogram(buckets)
        )

    def cached(self, key: Hashable, make: Callable[[], _I]) -> _I:
        """The instrument cached under *key*, resolved by ``make()`` on
        first use: a caller on a hot path names its instruments once
        instead of looking them up by name and label set every time.

        No lock: ``make`` is a get-or-create of this registry, so two
        threads racing on a cold key resolve the same instrument."""
        inst = self._handles.get(key)
        if inst is None:
            inst = self._handles[key] = make()
        return inst  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every instrument, keeping registrations and label sets."""
        with self._lock:
            for _, _, series in self._metrics.values():
                for inst in series.values():
                    inst.reset()  # type: ignore[attr-defined]

    def clear(self) -> None:
        """Drop every registration entirely."""
        with self._lock:
            self._metrics.clear()
            self._handles.clear()

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        """Current value of a counter/gauge (KeyError if absent)."""
        kind, _, series = self._metrics[name]
        inst = series[_label_key(labels)]
        if kind == "histogram":
            raise ValueError("use get_histogram() for histograms")
        return inst.value  # type: ignore[attr-defined]

    def get_histogram(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Histogram:
        kind, _, series = self._metrics[name]
        if kind != "histogram":
            raise ValueError(f"metric {name!r} is a {kind}")
        return series[_label_key(labels)]  # type: ignore[return-value]

    def _items(self):
        """Stable (name, kind, help, [(key, inst)]) view for rendering."""
        with self._lock:
            return [
                (name, kind, help_text, sorted(series.items()))
                for name, (kind, help_text, series) in sorted(
                    self._metrics.items()
                )
            ]

    def snapshot(self) -> dict:
        """Plain-dict view (counters/gauges: value; histograms: sum/count)."""
        out: dict = {}
        for name, kind, _, items in self._items():
            for key, inst in items:
                label_txt = _render_labels(key)
                if kind == "histogram":
                    out[name + label_txt] = {
                        "sum": inst.sum,  # type: ignore[attr-defined]
                        "count": inst.count,  # type: ignore[attr-defined]
                    }
                else:
                    out[name + label_txt] = inst.value  # type: ignore[attr-defined]
        return out

    def render_prometheus(self) -> str:
        """The classic text exposition format, deterministically ordered."""
        lines: list[str] = []
        for name, kind, help_text, items in self._items():
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for key, inst in items:
                if kind == "histogram":
                    cum = inst.cumulative_counts()  # type: ignore[attr-defined]
                    bounds = [
                        _fmt(b) for b in inst.buckets  # type: ignore[attr-defined]
                    ] + ["+Inf"]
                    for bound, c in zip(bounds, cum):
                        bkey = key + (("le", bound),)
                        lines.append(
                            f"{name}_bucket{_render_labels(bkey)} {c}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(key)} "
                        f"{_fmt(inst.sum)}"  # type: ignore[attr-defined]
                    )
                    lines.append(
                        f"{name}_count{_render_labels(key)} "
                        f"{inst.count}"  # type: ignore[attr-defined]
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(key)} "
                        f"{_fmt(inst.value)}"  # type: ignore[attr-defined]
                    )
        return "\n".join(lines) + ("\n" if lines else "")
