"""In-memory tables: a named schema plus aligned columns.

Tables are *logically immutable*: every operator returns a new ``Table``
sharing column arrays where possible (views, not copies — per the HPC
guidance).  The only mutating operations are :meth:`Table.append_rows`,
used by atomic CSV ingest, and its rollback :meth:`Table.truncate`; both
replace the column set wholesale, never resizing an array in place.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import CatalogError
from repro.storage.column import Column
from repro.storage.schema import ColumnDef, Schema


class Row(tuple):
    """One result row: a tuple whose fields are also name-addressable.

    Supports positional access (``row[0]``, unpacking), mapping-style
    access (``row["id"]``) and attribute access (``row.id``) — the
    cursor/driver convention.  Rows are produced lazily by
    :meth:`Table.iter_batches`; the schema's column names are shared
    across every row of a batch, so the per-row overhead is one extra
    slot.
    """

    __slots__ = ()

    #: column names, positionally aligned with the tuple; an instance
    #: attribute is impossible on a tuple subclass with empty
    #: ``__slots__``, so each result schema gets its own Row subclass
    #: (one class per table, shared by every row)
    _names: tuple[str, ...] = ()

    @classmethod
    def make_class(cls, names: Sequence[str]) -> type:
        """A Row subclass bound to *names* (one per result schema)."""
        return type("Row", (cls,), {"__slots__": (), "_names": tuple(names)})

    def keys(self) -> tuple[str, ...]:
        return self._names

    def as_dict(self) -> dict[str, Any]:
        return dict(zip(self._names, self))

    def __getitem__(self, key):  # type: ignore[override]
        if isinstance(key, str):
            try:
                return tuple.__getitem__(self, self._names.index(key))
            except ValueError:
                raise KeyError(key) from None
        return tuple.__getitem__(self, key)

    def __getattr__(self, name: str) -> Any:
        try:
            return tuple.__getitem__(self, self._names.index(name))
        except ValueError:
            raise AttributeError(
                f"row has no column {name!r} (columns: {', '.join(self._names)})"
            ) from None

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self._names, self))
        return f"Row({inner})"


class Table:
    """A named, strongly-typed, columnar table."""

    def __init__(self, name: str, schema: Schema, columns: list[Column] | None = None) -> None:
        self.name = name
        self.schema = schema
        if columns is None:
            columns = [Column.empty(c.dtype) for c in schema]
        if len(columns) != len(schema):
            raise CatalogError(
                f"table {name!r}: {len(columns)} columns for {len(schema)} schema entries"
            )
        n = len(columns[0]) if columns else 0
        for c in columns:
            if len(c) != n:
                raise CatalogError(f"table {name!r}: ragged column lengths")
        self.columns = columns
        #: column names -> (rows covered, index): see :meth:`lookup_index`
        self._lookups: dict[tuple[str, ...], tuple[int, Any]] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, name: str, schema: Schema, rows: Iterable[Sequence[Any]]) -> "Table":
        """Build a table from row tuples of stored values."""
        rows = list(rows)
        cols = []
        for i, cdef in enumerate(schema):
            cols.append(Column.from_values(cdef.dtype, [r[i] for r in rows]))
        return cls(name, schema, cols)

    @classmethod
    def from_texts(cls, name: str, schema: Schema, rows: Iterable[Sequence[str]]) -> "Table":
        """Build a table by parsing textual fields (CSV-style)."""
        rows = list(rows)
        cols = []
        for i, cdef in enumerate(schema):
            cols.append(
                Column.from_values(cdef.dtype, [cdef.dtype.parse(r[i]) for r in rows])
            )
        return cls(name, schema, cols)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        return self.columns[self.schema.index_of(name)]

    def column_at(self, i: int) -> Column:
        return self.columns[i]

    def _row_class(self) -> type:
        cls = getattr(self, "_row_cls", None)
        names = tuple(self.schema.names())
        if cls is None or cls._names != names:
            cls = Row.make_class(names)
            self._row_cls = cls
        return cls

    def row(self, i: int) -> "Row":
        cls = self._row_class()
        return cls(c.value(i) for c in self.columns)

    def iter_rows(self) -> Iterator["Row"]:
        for batch in self.iter_batches():
            yield from batch

    def iter_batches(self, batch_size: int = 1024) -> Iterator[list["Row"]]:
        """Yield rows in batches of up to *batch_size*.

        Row production is vectorized per batch: each column is sliced
        and converted to Python values once per batch (one
        ``Column.values`` call) instead of one ``c.value(i)`` round-trip
        per cell.  This is what cursor streaming (``fetchmany``) sits
        on: rows materialize as the consumer advances, never all at
        once.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        cls = self._row_class()
        n = self.num_rows
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            cols = [c.slice_values(start, stop) for c in self.columns]
            yield [cls(vals) for vals in zip(*cols)]

    def to_rows(self) -> list["Row"]:
        return list(self.iter_rows())

    def column_dict(self) -> dict[str, np.ndarray]:
        """Raw arrays keyed by column name (zero-copy)."""
        return {c.name: col.data for c, col in zip(self.schema, self.columns)}

    # ------------------------------------------------------------------
    # Vectorized transformations (return new tables)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray, name: str | None = None) -> "Table":
        return Table(name or self.name, self.schema, [c.take(indices) for c in self.columns])

    def filter(self, mask: np.ndarray, name: str | None = None) -> "Table":
        return Table(name or self.name, self.schema, [c.filter(mask) for c in self.columns])

    def project(self, names: Sequence[str], name: str | None = None) -> "Table":
        idx = [self.schema.index_of(n) for n in names]
        return Table(
            name or self.name,
            Schema(self.schema.columns[i] for i in idx),
            [self.columns[i] for i in idx],
        )

    def rename_columns(self, mapping: dict[str, str], name: str | None = None) -> "Table":
        cols = [
            ColumnDef(mapping.get(c.name, c.name), c.dtype) for c in self.schema
        ]
        return Table(name or self.name, Schema(cols), list(self.columns))

    def with_column(self, cdef: ColumnDef, col: Column, name: str | None = None) -> "Table":
        if len(col) != self.num_rows and self.num_columns > 0:
            raise CatalogError(
                f"column length {len(col)} != table rows {self.num_rows}"
            )
        return Table(
            name or self.name,
            Schema(list(self.schema.columns) + [cdef]),
            list(self.columns) + [col],
        )

    def slice(self, start: int, stop: int | None = None) -> "Table":
        """Rows ``[start:stop)`` as a table over views of the columns."""
        return Table(
            self.name, self.schema, [Column(c.dtype, c.data[start:stop]) for c in self.columns]
        )

    def head(self, n: int, name: str | None = None) -> "Table":
        return self.take(np.arange(min(n, self.num_rows)), name)

    def concat(self, other: "Table", name: str | None = None) -> "Table":
        if other.schema.types() != self.schema.types():
            raise CatalogError(
                f"cannot concat tables with different schemas: "
                f"{self.name!r} vs {other.name!r}"
            )
        return Table(
            name or self.name,
            self.schema,
            [a.concat(b) for a, b in zip(self.columns, other.columns)],
        )

    # ------------------------------------------------------------------
    # Mutation (ingest only)
    # ------------------------------------------------------------------
    def append_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append stored-form rows in place (atomic-ingest building block)."""
        appended = Table.from_rows(self.name, self.schema, rows)
        merged = self.concat(appended)
        self.columns = merged.columns

    def truncate(self, num_rows: int) -> None:
        """Drop the rows past *num_rows*: the rollback of an ingest whose
        view refresh failed."""
        self.columns = self.slice(0, num_rows).columns
        self._lookups = {}

    def lookup_index(self, names: Sequence[str]):
        """A :class:`~repro.storage.indexes.SortedIndex` from the values of
        columns *names* (in ``sort_key`` form, rows with a NULL in any of
        them left out) to their row ids.

        Built on first use and, because tables only grow, brought up to
        date by merging the rows appended since — so probing a big table
        with a small batch costs the batch, not a sort of the table.
        """
        from repro.storage.indexes import SortedIndex

        names = tuple(names)
        covered, index = self._lookups.get(names, (0, None))
        if index is None or covered < self.num_rows:
            tails = [
                Column(c.dtype, c.data[covered:]) for c in map(self.column, names)
            ]
            null = np.zeros(self.num_rows - covered, dtype=bool)
            for c in tails:
                null |= c.null_mask()
            valid = np.flatnonzero(~null)
            values = [c.sort_key()[valid] for c in tails]
            ids = valid + covered
            index = SortedIndex(values, ids) if index is None else index.extended(values, ids)
            self._lookups[names] = (self.num_rows, index)
        return index

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def pretty(self, limit: int = 20) -> str:
        """Fixed-width textual rendering (CLI output)."""
        names = self.schema.names()
        shown = [
            [c.dtype.format(col.value(i)) or "NULL" for c, col in zip(self.schema, self.columns)]
            for i in range(min(limit, self.num_rows))
        ]
        widths = [
            max(len(n), *(len(r[j]) for r in shown)) if shown else len(n)
            for j, n in enumerate(names)
        ]
        lines = [
            " | ".join(n.ljust(w) for n, w in zip(names, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for r in shown:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(r, widths)))
        if self.num_rows > limit:
            lines.append(f"... ({self.num_rows} rows total)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.num_rows}, cols={self.schema.names()})"
