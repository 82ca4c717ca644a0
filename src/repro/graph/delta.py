"""What one refresh adds to a view, and what one refresh round touched.

Vertex and edge types are select-project-join views over append-only
tables, hence *monotone*: the view over ``T ∪ ΔT`` is the old view plus
a term driven by ``ΔT`` alone.  A refresh therefore never rebuilds; it
computes a delta object holding the complete **new** arrays (each one
copy of the old array with the new entries merged in by
:func:`~repro.storage.indexes.sorted_insert` — a concatenation when they
all go at the end — never a resize of the old one) and the view
publishes them by plain attribute assignment once every dependent
structure of the same round has computed its own.  Anything that still
holds the previous arrays — a streaming cursor, a ``repro.dist``
partition — keeps a consistent snapshot.  Besides those copies, a
refresh costs O(batch · log |E|).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: the id array of an empty view
NO_IDS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class IdDelta:
    """The ids (vids or eids) one refresh added to a view.

    This is all a dependent index (CSR adjacency, attribute index)
    needs to merge the new entries into its sorted arrays.
    """

    #: the new ids, ascending, in the view's *new* numbering
    inserted: np.ndarray
    #: row of the attribute table behind each inserted id (None when
    #: the view exposes no attributes)
    source_rows: Optional[np.ndarray]
    #: old id -> new id, or None when the old ids are unchanged (the
    #: new ones were appended at the end)
    renumber: Optional[np.ndarray] = None


@dataclass
class RefreshReport:
    """What one ``GraphDB.refresh_dependents`` call consumed and touched.

    The catalog re-derives the metadata of exactly these names; the
    metrics and ``graql profile`` report the rows, which count the work
    done: rows past the watermarks, not rows in the tables.
    """

    #: the tables that grew
    tables: set[str] = field(default_factory=set)
    #: ``(view name, "vertex" | "edge", rows consumed)`` per refreshed view
    views: list[tuple[str, str, int]] = field(default_factory=list)
    #: attribute indexes merged
    indexes: set[str] = field(default_factory=set)
    seconds: float = 0.0

    def names(self, kind: str) -> set[str]:
        return {name for name, k, _ in self.views if k == kind}

    def __bool__(self) -> bool:
        return bool(self.tables)
