"""The plan/statement cache.

Repeated dashboard-style queries pay the front-end pipeline (parse ->
substitute -> typecheck -> plan resolution) on every submission even
though nothing about them changed.  The cache keeps the *resolution* —
the substituted statement plus its
:class:`~repro.graql.typecheck.CheckedGraphSelect` — keyed on:

* the canonical script text (whitespace-collapsed, so formatting
  differences don't defeat the cache),
* the parameter signature (name/value pairs — substitution bakes values
  into the statement, so different values are different plans),
* the catalog epoch it was checked against.

The epoch in the key is the invalidation mechanism: DDL and ingest bump
:attr:`~repro.catalog.Catalog.epoch`, so every entry compiled before the
change misses from then on and ages out of the LRU.  Only pure-read
programs (no DDL/ingest/``into``) are cached — anything with effects
must re-execute its effects anyway.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Any, Mapping, Optional

from repro.obs.metrics import MetricsRegistry

_WS = re.compile(r"\s+")

#: cache key: (canonical script, params signature, catalog epoch)
CacheKey = "tuple[str, tuple, int]"


def canonical_script(source: str) -> str:
    """Collapse insignificant whitespace so reformatted scripts share a key.

    GraQL has no significant whitespace outside quoted strings; quoted
    strings are left intact by splitting on them first.
    """
    parts = re.split(r"('(?:[^'\\]|\\.)*')", source)
    out = []
    for i, part in enumerate(parts):
        if i % 2:  # quoted string: verbatim
            out.append(part)
        else:
            out.append(_WS.sub(" ", part))
    return "".join(out).strip()


def params_signature(params: Optional[Mapping[str, Any]]) -> tuple:
    """A hashable, order-insensitive signature of the parameter binding."""
    if not params:
        return ()
    return tuple(sorted(params.items()))


class CacheEntry:
    """One cached program resolution."""

    __slots__ = ("checked", "epoch")

    def __init__(self, checked: list, epoch: int) -> None:
        #: per-statement resolution, ready for
        #: :func:`repro.query.executor.execute_checked`
        self.checked = checked
        self.epoch = epoch


class PlanCache:
    """Thread-safe LRU over compiled statement resolutions."""

    def __init__(
        self,
        capacity: int = 128,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def key(
        self, source: str, params: Optional[Mapping[str, Any]], epoch: int
    ) -> tuple:
        return (canonical_script(source), params_signature(params), epoch)

    def lookup(self, key: tuple) -> Optional[CacheEntry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._count("hits")
            return entry

    def store(self, key: tuple, checked: list) -> None:
        with self._lock:
            self._entries[key] = CacheEntry(checked, key[2])
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop everything (DDL/ingest already invalidates via the epoch
        key; this additionally frees the memory of the stale entries)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _count(self, which: str) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.cached(
                ("plan_cache", which),
                lambda: metrics.counter(
                    f"graql_plan_cache_{which}_total", f"plan cache {which}"
                ),
            ).inc()

    def __repr__(self) -> str:
        return (
            f"PlanCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
