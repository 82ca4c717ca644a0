"""The typed execution-options API.

:class:`QueryOptions` replaces the ad-hoc ``force_direction`` /
``force_strategy`` string kwargs that used to be threaded through
:class:`~repro.engine.session.Database`, ``Server.submit`` and the
executor.  One frozen dataclass
rides the whole pipeline — session -> server -> executor -> cluster —
so planner pins, timeout budgets and observability switches compose
instead of growing one kwarg per layer.

The legacy kwargs were deprecated for one release (with a
``DeprecationWarning`` shim) and are now **removed**: no entry point
accepts them, so passing one raises Python's own :class:`TypeError`
(migration table: docs/API.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

_DIRECTIONS = (None, "forward", "backward")


def _name_tuple(value: Union[None, str, tuple, list], field: str) -> tuple[str, ...]:
    """Normalize a hint field to a tuple of index names."""
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (tuple, list)) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ValueError(
        f"{field} must be an index name or a sequence of index names, "
        f"got {value!r}"
    )


@dataclass(frozen=True)
class Hints:
    """Planner hints: pin or forbid secondary-index access paths.

    ``use_index`` forces the named indexes to be used for any anchor step
    they are applicable to, overriding the cost model; ``no_index``
    forbids them (an empty tuple forbids nothing — pass every index name,
    or use :data:`NO_INDEXES`, to force full scans).  Index names are
    validated when the query is planned: an unknown name raises
    :class:`~repro.errors.PlanError` listing the indexes that do exist.
    """

    use_index: tuple[str, ...] = ()
    no_index: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "use_index", _name_tuple(self.use_index, "use_index")
        )
        object.__setattr__(
            self, "no_index", _name_tuple(self.no_index, "no_index")
        )
        overlap = set(self.use_index) & set(self.no_index)
        if overlap:
            raise ValueError(
                f"index name(s) in both use_index and no_index: "
                f"{', '.join(sorted(overlap))}"
            )

    def names(self) -> tuple[str, ...]:
        """Every index name the hints mention (for plan-time validation)."""
        return self.use_index + self.no_index

    def to_payload(self) -> dict[str, list[str]]:
        """Wire form (see :mod:`repro.net.protocol`)."""
        out: dict[str, list[str]] = {}
        if self.use_index:
            out["use_index"] = list(self.use_index)
        if self.no_index:
            out["no_index"] = list(self.no_index)
        return out
_STRATEGIES = (None, "set", "bindings")
_EXPLAIN_MODES = (False, True, "plan", "analyze")


@dataclass(frozen=True)
class QueryOptions:
    """Execution options for one statement (or a whole script).

    Attributes
    ----------
    direction:
        Pin every atom's sweep direction (``"forward"`` / ``"backward"``)
        instead of letting the planner pick the cheaper one.  Used by the
        S3B ablation benchmarks.
    strategy:
        Pin the execution strategy (``"set"`` / ``"bindings"``) instead
        of the planner's choice.
    timeout:
        Per-statement wall-clock budget in seconds for the distributed
        backend; a statement that blows it degrades to single-node
        execution (see docs/RELIABILITY.md).
    trace:
        Capture a span tree of the execution
        (``StatementResult.profile.trace``).
    explain:
        ``"analyze"`` asks result renderers (``Database.explain_analyze``,
        the ``graql profile`` CLI) for profile-annotated plan output;
        ``"plan"``/``True`` for plan-only.  Execution itself always runs.
    profile:
        Attach a :class:`~repro.obs.profile.QueryProfile` to every
        ``StatementResult`` (stage timings, estimated vs. actual
        cardinalities, index hits, dist counters).  On by default; turn
        off to shave the last few microseconds from a hot loop.
    hints:
        Planner :class:`Hints` pinning or forbidding secondary-index
        access paths (validated at plan time).
    """

    direction: Optional[str] = None
    strategy: Optional[str] = None
    timeout: Optional[float] = None
    trace: bool = False
    explain: Union[bool, str] = False
    profile: bool = True
    hints: Optional[Hints] = None

    def __post_init__(self) -> None:
        if self.hints is not None and not isinstance(self.hints, Hints):
            raise ValueError(
                f"hints must be a Hints instance, got {type(self.hints).__name__}"
            )
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS[1:]}, got "
                f"{self.direction!r}"
            )
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"strategy must be one of {_STRATEGIES[1:]}, got "
                f"{self.strategy!r}"
            )
        if self.explain not in _EXPLAIN_MODES:
            raise ValueError(
                f"explain must be one of {_EXPLAIN_MODES}, got {self.explain!r}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (seconds)")

    # ------------------------------------------------------------------
    def with_timeout(self, timeout: Optional[float]) -> "QueryOptions":
        """This options set with a (possibly inherited) timeout filled in."""
        if timeout is None or self.timeout is not None:
            return self
        return replace(self, timeout=timeout)

    @property
    def wants_analyze(self) -> bool:
        return self.explain == "analyze"


#: the all-defaults instance reused on unconfigured calls (avoids one
#: allocation per statement on the hot path)
DEFAULT_OPTIONS = QueryOptions()


def resolve_options(options: Optional[QueryOptions] = None) -> QueryOptions:
    """Normalize an optional ``options`` argument.

    Plain calls (``options=None``) return the shared default instance so
    the hot path allocates nothing.
    """
    return options if options is not None else DEFAULT_OPTIONS
