"""Regression tests for the Server close path (admission, worker pool).

Both behaviors here were found by ``graql devcheck`` against the
engine's own source:

* GDL034 — the ``pool`` property lacked a ``_check_open`` guard, so an
  asynchronous submission racing ``close()`` could lazily recreate the
  executor *after* close drained it, leaving a zombie pool of
  non-daemon workers that outlives the engine.
* GDL010 — ``close()`` called ``pool.shutdown(wait=True)`` while
  holding ``_pool_lock``, blocking every concurrent ``pool`` access for
  the full drain.  It now swaps the pool out under the lock and drains
  outside it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.server import Server
from repro.errors import ClosedError


def make_engine(**kw) -> Server:
    return Server(serving_opts=kw)


class TestPoolGuard:
    def test_pool_raises_closed_error_after_close(self):
        eng = make_engine()
        eng.pool  # lazily created while open
        eng.close()
        with pytest.raises(ClosedError):
            eng.pool

    def test_close_before_first_use_still_guards(self):
        eng = make_engine()
        eng.close()
        with pytest.raises(ClosedError):
            eng.pool
        assert eng._pool is None  # never created, never leaked

    def test_submit_work_after_close_rejected(self):
        eng = make_engine()
        eng.close()
        with pytest.raises(ClosedError):
            eng.submit_work("admin", False, lambda: 1)

    def test_close_is_idempotent(self):
        eng = make_engine()
        eng.pool
        eng.close()
        eng.close()  # second drain must be a no-op, not an error


class TestCloseDoesNotHoldPoolLock:
    def test_pool_lock_free_while_draining(self):
        """While close() waits for a slow job, _pool_lock must be
        acquirable — the drain happens outside the lock."""
        eng = make_engine(max_workers=1)
        release = threading.Event()
        started = threading.Event()

        def slow():
            started.set()
            release.wait(timeout=5)

        fut = eng.pool.submit(slow)
        assert started.wait(timeout=5)

        closer = threading.Thread(target=eng.close, daemon=True)
        closer.start()
        # give close() time to reach shutdown(wait=True)
        deadline = time.monotonic() + 2
        while eng._pool is not None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert eng._pool is None, "close() never swapped the pool out"

        acquired = eng._pool_lock.acquire(timeout=1)
        assert acquired, "_pool_lock held across the drain"
        eng._pool_lock.release()

        release.set()
        closer.join(timeout=5)
        assert not closer.is_alive()
        assert fut.done()

    def test_close_waits_for_inflight_work(self):
        eng = make_engine(max_workers=1)
        done = []
        fut = eng.pool.submit(lambda: done.append(time.sleep(0.05)))
        eng.close()
        assert fut.done() and done, "close() returned before the drain"
