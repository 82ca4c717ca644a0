"""Data statistics for dynamic query planning (Section III-B).

    "Examples of these properties could be number of instances of vertex
    and edge types, as well as statistical properties of the degree
    distribution of a vertex type with respect to an edge type."

:class:`DegreeStats` summarizes the degree distribution,
:class:`ColumnStats` summarizes one attribute column (distinct count,
null fraction, equi-depth histogram), and :func:`estimate_selectivity`
turns a step condition into a retained-fraction estimate.  With column
statistics the estimate interpolates real value distributions; without
them the System-R constants below are the fallback.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.storage import idsets
from repro.storage.expr import (
    BinOp,
    ColRef,
    Const,
    Expr,
    IsNull,
    Not,
)

# Default selectivity guesses (System-R style heuristics)
SEL_EQ_DEFAULT = 0.1
SEL_RANGE = 1.0 / 3.0
SEL_NEQ = 0.9
SEL_FALLBACK = 0.5

#: equi-depth histogram resolution; each bucket holds ~1/B of the rows,
#: so any range estimate is within built_rows/B of the true count
HISTOGRAM_BINS = 64

#: column statistics survive a catalog refresh while the row count has
#: drifted by at most this fraction since they were built
STATS_STALENESS_FRAC = 0.2


class DegreeStats:
    """Degree-distribution summary of one edge type w.r.t. its endpoints.

    Defined over the out- and in-degree arrays; :meth:`of_indexes` gives
    the same figures from the totals a CSR index keeps, without reading
    a degree.
    """

    def __init__(self, out_degrees: np.ndarray, in_degrees: np.ndarray) -> None:
        self.avg_out = float(out_degrees.mean()) if len(out_degrees) else 0.0
        self.max_out = int(out_degrees.max()) if len(out_degrees) else 0
        self.frac_out_nonzero = (
            float((out_degrees > 0).mean()) if len(out_degrees) else 0.0
        )
        self.avg_in = float(in_degrees.mean()) if len(in_degrees) else 0.0
        self.max_in = int(in_degrees.max()) if len(in_degrees) else 0
        self.frac_in_nonzero = (
            float((in_degrees > 0).mean()) if len(in_degrees) else 0.0
        )

    @classmethod
    def of_indexes(cls, forward, reverse) -> "DegreeStats":
        """The stats of the edges in two
        :class:`~repro.graph.edge_index.EdgeIndex` directions, from their
        ``num_edges``, ``num_sources``, ``max_degree`` and
        ``nonempty_sources`` (a mean over integer degrees is their sum
        over their count, so the figures equal the array-based ones)."""
        stats = cls.__new__(cls)
        stats.avg_out, stats.max_out, stats.frac_out_nonzero = _summary(forward)
        stats.avg_in, stats.max_in, stats.frac_in_nonzero = _summary(reverse)
        return stats

    def expansion_factor(self, outgoing: bool) -> float:
        """Expected frontier growth when traversing this edge type."""
        return self.avg_out if outgoing else self.avg_in

    def __repr__(self) -> str:
        return (
            f"DegreeStats(out: avg={self.avg_out:.2f} max={self.max_out}, "
            f"in: avg={self.avg_in:.2f} max={self.max_in})"
        )


def _summary(index) -> tuple[float, int, float]:
    n = index.num_sources
    if n == 0:
        return 0.0, 0, 0.0
    return index.num_edges / n, index.max_degree, index.nonempty_sources / n


class ColumnStats:
    """Summary statistics of one attribute column.

    Equi-depth histogram: ``bins`` holds B+1 edges taken at the value
    quantiles of the non-null rows, so every bucket covers ~1/B of the
    rows and a range estimate is off by at most one bucket (the
    "histogram error bound": ``built_rows / B`` rows).
    """

    __slots__ = ("ndv", "null_frac", "built_rows", "bins", "min_val", "max_val", "numeric")

    def __init__(
        self,
        ndv: int,
        null_frac: float,
        built_rows: int,
        bins: Optional[np.ndarray],
        min_val: Any,
        max_val: Any,
        numeric: bool,
    ) -> None:
        self.ndv = ndv
        self.null_frac = null_frac
        self.built_rows = built_rows
        self.bins = bins
        self.min_val = min_val
        self.max_val = max_val
        self.numeric = numeric

    # ------------------------------------------------------------------
    def eq_selectivity(self, value: Any = None) -> float:
        """P(attr = literal).

        With a literal and a histogram, the estimate is the histogram
        mass at the value: equi-depth bucket edges repeat for heavy
        hitters, so the edge span of *value* measures its frequency to
        within one bucket.  A value occupying no edge span (anything
        rarer than a bucket) falls back to per-distinct uniformity.
        """
        if self.built_rows == 0 or self.ndv <= 0:
            return SEL_EQ_DEFAULT
        uniform = (1.0 - self.null_frac) / self.ndv
        if value is None or self.bins is None or len(self.bins) < 2:
            return uniform
        v = self._comparable(value)
        if v is None:
            return uniform
        mass = self._frac_below(v, inclusive=True) - self._frac_below(
            v, inclusive=False
        )
        mass *= 1.0 - self.null_frac
        bucket = 1.0 / (len(self.bins) - 1)
        return mass if mass > bucket else min(uniform, bucket)

    def range_selectivity(self, op: str, value: Any) -> float:
        """P(attr <op> literal) interpolated from the histogram."""
        if self.built_rows == 0:
            return SEL_RANGE
        if self.bins is None or len(self.bins) < 2:
            return SEL_RANGE
        value = self._comparable(value)
        if value is None:
            return SEL_RANGE
        if op == "<":
            frac = self._frac_below(value, inclusive=False)
        elif op == "<=":
            frac = self._frac_below(value, inclusive=True)
        elif op == ">":
            frac = 1.0 - self._frac_below(value, inclusive=True)
        elif op == ">=":
            frac = 1.0 - self._frac_below(value, inclusive=False)
        else:
            return SEL_RANGE
        return frac * (1.0 - self.null_frac)

    def null_selectivity(self, negated: bool) -> float:
        return (1.0 - self.null_frac) if negated else self.null_frac

    def _comparable(self, value: Any):
        """Coerce a literal into the histogram's value domain."""
        if self.numeric:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return None
            return value
        return str(value)

    def _frac_below(self, value: Any, *, inclusive: bool) -> float:
        """Fraction of non-null rows with attr < value (<= if inclusive)."""
        edges = self.bins
        nb = len(edges) - 1
        side = "right" if inclusive else "left"
        try:
            i = int(np.searchsorted(edges, value, side=side))
        except TypeError:
            return SEL_RANGE
        if i <= 0:
            return 0.0
        if i > nb:
            return 1.0
        lo, hi = edges[i - 1], edges[i]
        if self.numeric and hi > lo:
            within = min(max((float(value) - float(lo)) / (float(hi) - float(lo)), 0.0), 1.0)
        else:
            within = 0.5  # strings / repeated edges: mid-bucket assumption
        return ((i - 1) + within) / nb

    def error_bound_rows(self) -> float:
        """Worst-case row error of a histogram range estimate."""
        if self.bins is None or len(self.bins) < 2:
            return float(self.built_rows)
        return self.built_rows / (len(self.bins) - 1)

    def __repr__(self) -> str:
        return (
            f"ColumnStats(ndv={self.ndv}, null_frac={self.null_frac:.3f}, "
            f"rows={self.built_rows}, bins={0 if self.bins is None else len(self.bins) - 1})"
        )


def build_column_stats(
    arr: np.ndarray,
    null_mask: np.ndarray,
    bins: int = HISTOGRAM_BINS,
) -> ColumnStats:
    """Collect :class:`ColumnStats` over one vid-aligned attribute array."""
    n = len(arr)
    if n == 0:
        return ColumnStats(0, 0.0, 0, None, None, None, True)
    null_frac = float(null_mask.mean())
    vals = arr[~null_mask]
    numeric = arr.dtype != np.dtype(object)
    if len(vals) == 0:
        return ColumnStats(0, null_frac, n, None, None, None, numeric)
    if not numeric:
        vals = np.array([str(v) for v in vals], dtype=object)
    ndv = distinct_count(vals)
    svals = np.sort(vals, kind="stable")
    nb = max(1, min(bins, len(svals)))
    edges = svals[np.linspace(0, len(svals) - 1, nb + 1).astype(np.int64)]
    lo = svals[0] if svals.dtype == object else svals[0].item()
    hi = svals[-1] if svals.dtype == object else svals[-1].item()
    return ColumnStats(ndv, null_frac, n, edges, lo, hi, numeric)


def estimate_selectivity(
    cond: Optional[Expr],
    distinct_counts: Optional[dict[str, int]] = None,
    column_stats: Optional[dict[str, ColumnStats]] = None,
) -> float:
    """Estimate the fraction of instances a step condition retains.

    *column_stats* maps attribute names to :class:`ColumnStats`; literal
    comparisons then use real distinct counts, null fractions and
    equi-depth histograms.  *distinct_counts* (attribute -> NDV) is the
    coarser fallback; without either the System-R defaults apply.  The
    result is clamped to (0, 1].
    """
    if cond is None:
        return 1.0
    sel = _estimate(cond, distinct_counts or {}, column_stats or {})
    return float(min(max(sel, 1e-9), 1.0))


def _estimate(cond: Expr, distincts: dict[str, int], stats: dict[str, ColumnStats]) -> float:
    if isinstance(cond, BinOp):
        if cond.op == "and":
            return _estimate(cond.left, distincts, stats) * _estimate(
                cond.right, distincts, stats
            )
        if cond.op == "or":
            a = _estimate(cond.left, distincts, stats)
            b = _estimate(cond.right, distincts, stats)
            return min(a + b, 1.0)
        if cond.op == "=":
            ref = _literal_comparison_ref(cond)
            if ref is not None and ref[0] in stats:
                return stats[ref[0]].eq_selectivity(ref[2])
            attr = _literal_comparison_attr(cond)
            if attr is not None and distincts.get(attr, 0) > 0:
                return 1.0 / distincts[attr]
            return SEL_EQ_DEFAULT
        if cond.op in ("<>", "!="):
            ref = _literal_comparison_ref(cond)
            if ref is not None and ref[0] in stats:
                cs = stats[ref[0]]
                return max(
                    1.0 - cs.null_frac - cs.eq_selectivity(ref[2]), 0.0
                )
            return SEL_NEQ
        if cond.op in ("<", "<=", ">", ">="):
            ref = _literal_comparison_ref(cond)
            if ref is not None:
                attr, op, value = ref
                if attr in stats:
                    return stats[attr].range_selectivity(op, value)
            return SEL_RANGE
        return SEL_FALLBACK
    if isinstance(cond, Not):
        return 1.0 - _estimate(cond.operand, distincts, stats)
    if isinstance(cond, IsNull):
        attr = cond.operand.name if isinstance(cond.operand, ColRef) else None
        if attr is not None and attr in stats:
            return stats[attr].null_selectivity(cond.negated)
        return 0.1 if not cond.negated else 0.9
    return SEL_FALLBACK


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _literal_comparison_attr(cond: BinOp) -> Optional[str]:
    """The attribute name if *cond* compares a column against a literal."""
    if isinstance(cond.left, ColRef) and isinstance(cond.right, Const):
        return cond.left.name
    if isinstance(cond.right, ColRef) and isinstance(cond.left, Const):
        return cond.right.name
    return None


def _literal_comparison_ref(cond: BinOp) -> Optional[tuple[str, str, Any]]:
    """(attr, normalized op, literal) with the column on the left."""
    if isinstance(cond.left, ColRef) and isinstance(cond.right, Const):
        return cond.left.name, cond.op, cond.right.value
    if isinstance(cond.right, ColRef) and isinstance(cond.left, Const):
        return cond.right.name, _FLIPPED.get(cond.op, cond.op), cond.left.value
    return None


def distinct_count(arr: np.ndarray) -> int:
    """Number of distinct values in a column array (catalog refresh)."""
    if arr.dtype == np.dtype(object):
        return len({v for v in arr})
    if arr.dtype.kind == "f":
        nan = np.isnan(arr)
        if nan.any():  # NaNs count as one value, as np.unique counts them
            return len(idsets.unique(arr[~nan])) + 1
    return len(idsets.unique(arr))
