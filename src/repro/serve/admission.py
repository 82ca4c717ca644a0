"""Admission control for the shared server.

Load shedding happens *before* a submission takes the catalog lock: it
is admitted only if (a) the submissions in flight server-wide — running
or waiting for the lock — are under ``max_in_flight``, and (b) the
submitting user is under their per-user in-flight limit.  Otherwise
:class:`~repro.errors.ServerBusy` is raised immediately (backpressure the
client can retry on), and the rejection is counted in the metrics
registry.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import ServerBusy
from repro.obs.metrics import Gauge, MetricsRegistry


class AdmissionTicket:
    """Proof of admission; hand it back via :meth:`AdmissionController.release`."""

    __slots__ = ("user", "_released")

    def __init__(self, user: str) -> None:
        self.user = user
        self._released = False


def _inflight_gauge(metrics: MetricsRegistry) -> Gauge:
    return metrics.cached(
        "inflight",
        lambda: metrics.gauge(
            "graql_inflight_submissions",
            "submissions admitted and not yet finished",
        ),
    )


class AdmissionController:
    """Server-wide + per-user in-flight admission.

    ``max_in_flight`` bounds the submissions running or waiting for the
    catalog lock server-wide.  ``per_user_limit`` bounds one user's in-flight
    submissions so a single chatty client cannot monopolize the server.
    """

    def __init__(
        self,
        max_in_flight: int,
        per_user_limit: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_in_flight <= 0:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        self.max_in_flight = max_in_flight
        self.per_user_limit = per_user_limit
        self.metrics = metrics
        self._lock = threading.Lock()
        self._in_flight = 0
        self._per_user: dict[str, int] = {}

    # ------------------------------------------------------------------
    def admit(self, user: str) -> AdmissionTicket:
        """Admit one submission or raise :class:`ServerBusy`."""
        with self._lock:
            if self._in_flight >= self.max_in_flight:
                self._count_rejection("queue_full")
                raise ServerBusy(
                    f"server at capacity ({self._in_flight} in flight, "
                    f"limit {self.max_in_flight}); retry later",
                    reason="queue_full",
                )
            held = self._per_user.get(user, 0)
            if self.per_user_limit is not None and held >= self.per_user_limit:
                self._count_rejection("user_limit")
                raise ServerBusy(
                    f"user {user!r} already has {held} submissions in flight "
                    f"(limit {self.per_user_limit}); retry later",
                    reason="user_limit",
                )
            self._in_flight += 1
            self._per_user[user] = held + 1
            if self.metrics is not None:
                _inflight_gauge(self.metrics).set(self._in_flight)
        return AdmissionTicket(user)

    def release(self, ticket: AdmissionTicket) -> None:
        with self._lock:
            if ticket._released:
                return
            ticket._released = True
            self._in_flight -= 1
            left = self._per_user.get(ticket.user, 1) - 1
            if left <= 0:
                self._per_user.pop(ticket.user, None)
            else:
                self._per_user[ticket.user] = left
            if self.metrics is not None:
                _inflight_gauge(self.metrics).set(self._in_flight)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def _count_rejection(self, reason: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                f"graql_admission_rejections_{reason}_total",
                f"submissions rejected with ServerBusy({reason})",
            ).inc()

    def __repr__(self) -> str:
        return (
            f"AdmissionController(in_flight={self._in_flight}, "
            f"max={self.max_in_flight}, per_user={self.per_user_limit})"
        )
