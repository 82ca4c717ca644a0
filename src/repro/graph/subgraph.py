"""Named subgraph results (Section II-C).

A query's ``into subgraph G`` output is a set of vertices and edges drawn
from the overall graph — possibly disconnected, and possibly spanning many
vertex/edge types.  Because vertex types partition V and edge types
partition E (Section II-A1), a subgraph is exactly: per-type sorted vid
arrays plus per-type sorted eid arrays.  Vids/eids refer back into the
database's types, so a subgraph is a lightweight selection, not a copy.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.storage import idsets

_EMPTY = np.empty(0, dtype=np.int64)


def _clean(ids: Iterable[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
    return idsets.unique(arr)


class Subgraph:
    """A per-type selection of vertices and edges."""

    def __init__(
        self,
        name: str,
        vertices: Mapping[str, np.ndarray] | None = None,
        edges: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        self.name = name
        self.vertices: dict[str, np.ndarray] = {
            k: _clean(v) for k, v in (vertices or {}).items() if len(v)
        }
        self.edges: dict[str, np.ndarray] = {
            k: _clean(v) for k, v in (edges or {}).items() if len(v)
        }

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def vertex_ids(self, type_name: str) -> np.ndarray:
        return self.vertices.get(type_name, _EMPTY)

    def edge_ids(self, type_name: str) -> np.ndarray:
        return self.edges.get(type_name, _EMPTY)

    def has_vertex_type(self, type_name: str) -> bool:
        return type_name in self.vertices

    @property
    def num_vertices(self) -> int:
        return sum(len(v) for v in self.vertices.values())

    @property
    def num_edges(self) -> int:
        return sum(len(e) for e in self.edges.values())

    # ------------------------------------------------------------------
    # Set algebra (or-composition, Section II-B3)
    # ------------------------------------------------------------------
    def union(self, other: "Subgraph", name: str | None = None) -> "Subgraph":
        vertices: dict[str, np.ndarray] = {}
        for k in set(self.vertices) | set(other.vertices):
            vertices[k] = idsets.union(self.vertex_ids(k), other.vertex_ids(k))
        edges: dict[str, np.ndarray] = {}
        for k in set(self.edges) | set(other.edges):
            edges[k] = idsets.union(self.edge_ids(k), other.edge_ids(k))
        return Subgraph(name or self.name, vertices, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgraph):
            return NotImplemented
        return (
            {k: tuple(v) for k, v in self.vertices.items()}
            == {k: tuple(v) for k, v in other.vertices.items()}
            and {k: tuple(v) for k, v in self.edges.items()}
            == {k: tuple(v) for k, v in other.edges.items()}
        )

    def __repr__(self) -> str:
        v = {k: len(v) for k, v in self.vertices.items()}
        e = {k: len(x) for k, x in self.edges.items()}
        return f"Subgraph({self.name!r}, vertices={v}, edges={e})"
