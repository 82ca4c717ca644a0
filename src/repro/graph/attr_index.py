"""Named secondary indexes over vertex/edge attributes (``create index``).

A :class:`GraphAttrIndex` binds an index name to a target vertex or edge
type and an attribute column list, and owns the range-capable
:class:`~repro.storage.indexes.AttributeIndex` built over the target's
vid/eid-aligned attribute arrays.  The index is delta-maintained exactly
like the bidirectional edge indexes: whenever an ingest refreshed the
target view, ``GraphDB.refresh_dependents`` merges the new vids/eids into
the sorted arrays (:meth:`GraphAttrIndex.merged`, a ``lex_search`` per
batch instead of a re-sort) and publishes the result together with the
view, so lookups are never stale.  Entries are ordered by ``(attributes,
id)`` and ids follow the views' canonical order, so the merged arrays are
the ones a build over the final view would give.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.graph.edge import EdgeType
from repro.graph.vertex import VertexType
from repro.storage.column import Column
from repro.storage.indexes import AttributeIndex

KIND_VERTEX = "vertex"
KIND_EDGE = "edge"


class GraphAttrIndex:
    """One built ``create index I on V(a, ...)`` object."""

    def __init__(
        self,
        name: str,
        target: Union[VertexType, EdgeType],
        attrs: list[str],
    ) -> None:
        self.name = name
        self.target = target
        self.attrs = list(attrs)
        self.kind = KIND_VERTEX if isinstance(target, VertexType) else KIND_EDGE
        self.index: Optional[AttributeIndex] = None
        self.index = self.merged(target.snapshot())

    def merged(self, delta) -> AttributeIndex:
        """The index with the ids a vertex/edge delta added merged in.
        Publishes nothing: the caller assigns ``self.index``."""
        ids = delta.ids
        table = self.target.table if self.kind == KIND_VERTEX else self.target.assoc_table
        arrays = []
        masks = []
        for a in self.attrs:
            col = table.column(a)
            arr = col.data[ids.source_rows]
            arrays.append(arr)
            masks.append(Column(col.dtype, arr).null_mask())
        return AttributeIndex(arrays, masks, ids.inserted, self.index, ids.renumber)

    @property
    def target_name(self) -> str:
        return self.target.name

    @property
    def num_entries(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        cols = ", ".join(self.attrs)
        return (
            f"GraphAttrIndex({self.name!r} on {self.target.name}({cols}), "
            f"entries={self.num_entries})"
        )
