"""Regression tests for the Server close path.

After :meth:`Server.close` every way in — a script submission, a
locked callback, a connection — raises :class:`ClosedError`, and a
second ``close()`` is a no-op.
"""

from __future__ import annotations

import pytest

from repro.engine.server import Server
from repro.errors import ClosedError


class TestCloseGuard:
    def test_submit_and_run_work_after_close_rejected(self):
        eng = Server()
        eng.close()
        with pytest.raises(ClosedError):
            eng.submit("admin", "create table T(id integer)")
        with pytest.raises(ClosedError):
            eng.run_work("admin", False, lambda: 1)
        with pytest.raises(ClosedError):
            eng.connect()
        assert eng.admission.in_flight == 0  # nothing was admitted

    def test_close_is_idempotent(self):
        eng = Server()
        eng.close()
        eng.close()  # a second close must be a no-op, not an error
        assert eng.closed
