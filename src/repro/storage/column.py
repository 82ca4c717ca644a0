"""Columnar attribute storage.

A :class:`Column` pairs a flat NumPy array with its GraQL
:class:`~repro.dtypes.DataType`.  All bulk movement is expressed as NumPy
fancy indexing (``take``) or boolean masking (``filter``) so downstream
operators stay vectorized; per-row access exists only for materialization
and tests.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.dtypes import DataType
from repro.dtypes.datatypes import KIND_BOOL, KIND_NUMERIC, KIND_STRING
from repro.dtypes.values import BOOL_NULL, INT_NULL


class Column:
    """A typed, immutable column of values."""

    __slots__ = ("dtype", "data")

    def __init__(self, dtype: DataType, data: np.ndarray) -> None:
        if data.dtype != dtype.numpy_dtype:
            data = data.astype(dtype.numpy_dtype)
        self.dtype = dtype
        self.data = data

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, dtype: DataType, values: Sequence[Any]) -> "Column":
        """Build a column from Python values already in stored form."""
        if dtype.numpy_dtype == np.dtype(object):
            arr = np.empty(len(values), dtype=object)
            arr[:] = list(values)
        else:
            arr = np.asarray(values, dtype=dtype.numpy_dtype)
            if arr.shape == (0,):
                arr = np.empty(0, dtype=dtype.numpy_dtype)
        return cls(dtype, arr)

    @classmethod
    def empty(cls, dtype: DataType) -> "Column":
        return cls(dtype, np.empty(0, dtype=dtype.numpy_dtype))

    @classmethod
    def nulls(cls, dtype: DataType, n: int) -> "Column":
        """A column of *n* NULLs."""
        if dtype.numpy_dtype == np.dtype(object):
            arr = np.empty(n, dtype=object)
        else:
            arr = np.full(n, dtype.null_value, dtype=dtype.numpy_dtype)
        return cls(dtype, arr)

    # ------------------------------------------------------------------
    # Bulk operations (vectorized)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by int index array (the core data-movement op)."""
        return Column(self.dtype, self.data[indices])

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where boolean *mask* is True."""
        return Column(self.dtype, self.data[mask])

    def concat(self, other: "Column") -> "Column":
        if self.dtype != other.dtype:
            raise ValueError(
                f"cannot concat {self.dtype.ddl()} with {other.dtype.ddl()}"
            )
        return Column(self.dtype, np.concatenate([self.data, other.data]))

    def null_mask(self) -> np.ndarray:
        """Boolean array, True where the value is NULL."""
        kind = self.dtype.kind
        if self.data.dtype == np.dtype(object):
            return np.equal(self.data, None)
        if kind == KIND_NUMERIC and self.data.dtype == np.float64:
            return np.isnan(self.data)
        if kind == KIND_BOOL:
            return self.data == BOOL_NULL
        # int64-backed kinds (integer, date) share the int64-min sentinel
        return self.data == INT_NULL

    def sort_key(self) -> np.ndarray:
        """An array safe to pass to argsort/lexsort (NULLs sort first).

        Object (string) columns map None to the empty string (a copy is
        made only when there are NULLs); numeric and date sentinels
        already sort below all real values.
        """
        if self.data.dtype == np.dtype(object):
            nulls = self.null_mask()
            if not nulls.any():
                return self.data
            out = self.data.copy()
            out[nulls] = ""
            return out
        if self.data.dtype == np.float64:
            out = self.data.copy()
            out[np.isnan(out)] = -np.inf
            return out
        return self.data

    # ------------------------------------------------------------------
    # Scalar access (cold path)
    # ------------------------------------------------------------------
    def value(self, i: int) -> Any:
        v = self.data[i]
        if isinstance(v, np.generic):
            return v.item()
        return v

    def values(self) -> list[Any]:
        return [self.value(i) for i in range(len(self.data))]

    def slice_values(self, start: int, stop: int) -> list[Any]:
        """Python values for rows ``[start, stop)`` in one vectorized pass
        (``ndarray.tolist`` converts the whole slice at C speed; object
        arrays hold Python values already)."""
        chunk = self.data[start:stop]
        if chunk.dtype == object:
            return list(chunk)
        return chunk.tolist()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Column({self.dtype.ddl()}, n={len(self)})"

