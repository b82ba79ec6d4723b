"""Core undirected simple graph used by every algorithm in this package.

The paper (Section 2) considers an undirected, unweighted simple graph
``G = (V, E)``.  This module provides that substrate: an adjacency-set
graph with arbitrary hashable vertex labels, canonical edge tuples, and
the handful of bulk operations (induced subgraphs, copies) the search
algorithms need.

Design notes
------------
* Vertices are arbitrary hashable objects.  Each vertex receives a stable
  integer *insertion index* so that an edge ``{u, v}`` always has one
  canonical tuple representation ``(u, v)`` with ``index(u) < index(v)``.
  Canonical tuples make edge dictionaries deterministic without requiring
  the labels themselves to be orderable.
* ``neighbors`` returns the internal adjacency set for speed.  Callers
  must treat it as read-only; every mutating algorithm in this package
  copies before modifying.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, Optional, Set, Tuple

from repro.errors import GraphError, VertexNotFoundError, EdgeNotFoundError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class Graph:
    """An undirected simple graph with hashable vertex labels.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs inserted at construction.
        Self-loops raise :class:`~repro.errors.GraphError`; duplicate
        edges are silently ignored (the graph is simple).
    vertices:
        Optional iterable of vertices inserted (possibly isolated) before
        the edges.

    Examples
    --------
    >>> g = Graph(edges=[("a", "b"), ("b", "c")])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    """

    __slots__ = ("_adj", "_index", "_next_index", "_num_edges")

    def __init__(self, edges: Optional[Iterable[Edge]] = None,
                 vertices: Optional[Iterable[Vertex]] = None) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._index: Dict[Vertex, int] = {}
        self._next_index = 0
        self._num_edges = 0
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> bool:
        """Insert ``v`` if absent.  Returns ``True`` if it was inserted."""
        if v in self._adj:
            return False
        self._adj[v] = set()
        self._index[v] = self._next_index
        self._next_index += 1
        return True

    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert the undirected edge ``{u, v}``, adding missing endpoints.

        Returns ``True`` if the edge was new, ``False`` if it already
        existed.  Raises :class:`GraphError` on a self-loop.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed in a simple graph")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        return True

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``; raises :class:`EdgeNotFoundError` if absent."""
        adj_u = self._adj.get(u)
        if adj_u is None or v not in adj_u:
            raise EdgeNotFoundError(u, v)
        adj_u.discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1

    def discard_edge(self, u: Vertex, v: Vertex) -> bool:
        """Remove the edge if present.  Returns ``True`` if removed."""
        adj_u = self._adj.get(u)
        if adj_u is None or v not in adj_u:
            return False
        adj_u.discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        return True

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges; raises if ``v`` is absent."""
        if v not in self._adj:
            raise VertexNotFoundError(v)
        for u in self._adj[v]:
            self._adj[u].discard(v)
        self._num_edges -= len(self._adj[v])
        del self._adj[v]
        del self._index[v]

    def remove_isolated_vertices(self) -> int:
        """Drop all degree-0 vertices; returns how many were removed.

        Used by graph sparsification (paper Section 4.1), which deletes
        low-trussness edges and then discards the vertices they strand.
        """
        isolated = [v for v, nbrs in self._adj.items() if not nbrs]
        for v in isolated:
            del self._adj[v]
            del self._index[v]
        return len(isolated)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return self._num_edges

    def has_vertex(self, v: Vertex) -> bool:
        """Whether ``v`` is a vertex of this graph."""
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        adj_u = self._adj.get(u)
        return adj_u is not None and v in adj_u

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """The adjacency set ``N(v)``.  Treat the returned set as read-only."""
        try:
            return self._adj[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degree(self, v: Vertex) -> int:
        """``d(v) = |N(v)|``."""
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        """``d_max``, the maximum degree (0 on an empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def vertices(self) -> Iterator[Vertex]:
        """Iterate vertices in insertion order."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate every edge once, as canonical ``(u, v)`` tuples."""
        index = self._index
        for u, nbrs in self._adj.items():
            iu = index[u]
            for v in nbrs:
                if iu < index[v]:
                    yield (u, v)

    def vertex_index(self, v: Vertex) -> int:
        """The stable insertion index used to canonicalise edges."""
        try:
            return self._index[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def canonical_edge(self, u: Vertex, v: Vertex) -> Edge:
        """The unique tuple form of the undirected edge ``{u, v}``.

        The tuple is ordered by the vertices' insertion indices, so the
        same unordered pair always yields the same tuple for this graph.
        """
        index = self._index
        try:
            iu, iv = index[u], index[v]
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None
        return (u, v) if iu < iv else (v, u)

    def common_neighbors(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """``N(u) ∩ N(v)``, iterating the smaller adjacency set."""
        nu, nv = self.neighbors(u), self.neighbors(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        return {w for w in nu if w in nv}

    def support(self, u: Vertex, v: Vertex) -> int:
        """Edge support: the number of triangles containing edge ``{u, v}``.

        This is ``sup(e) = |N(u) ∩ N(v)|`` (paper Section 2.2).
        """
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        nu, nv = self._adj[u], self._adj[v]
        if len(nu) > len(nv):
            nu, nv = nv, nu
        return sum(1 for w in nu if w in nv)

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """A structural copy sharing vertex labels but no adjacency sets.

        The copy preserves insertion indices, so canonical edge tuples
        computed on the original remain canonical on the copy.
        """
        clone = Graph.__new__(Graph)
        clone._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        clone._index = dict(self._index)
        clone._next_index = self._next_index
        clone._num_edges = self._num_edges
        return clone

    def branch(self, touched: Iterable[Vertex]) -> "Graph":
        """A copy that shares every adjacency set except ``touched``'s.

        The successor-graph counterpart of :meth:`copy`: the vertex
        dicts are copied (two C-level dict copies), but only the
        adjacency sets of ``touched`` vertices are duplicated — every
        other vertex's set is *the same object* in both graphs.  The
        caller may therefore only change edges whose endpoints are all
        in ``touched`` (new vertices get fresh sets and are safe);
        mutating any other vertex's adjacency would reach into this
        graph.  Vertices of ``touched`` not in the graph are ignored.
        """
        clone = Graph.__new__(Graph)
        clone._adj = dict(self._adj)
        for v in touched:
            nbrs = clone._adj.get(v)
            if nbrs is not None:
                clone._adj[v] = set(nbrs)
        clone._index = dict(self._index)
        clone._next_index = self._next_index
        clone._num_edges = self._num_edges
        return clone

    def induced_subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """The subgraph induced by ``vertices`` (paper Section 2, ``G_S``).

        Vertices absent from the graph are ignored.  The subgraph's
        insertion order follows this graph's order, so canonical edges
        agree between parent and subgraph.
        """
        keep = {v for v in vertices if v in self._adj}
        ordered = sorted(keep, key=self._index.__getitem__)
        sub = Graph(vertices=ordered)
        for v in ordered:
            for u in self._adj[v]:
                if u in keep and self._index[v] < self._index[u]:
                    sub.add_edge(v, u)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """The subgraph formed by the given edges and their endpoints."""
        sub = Graph()
        for u, v in edges:
            if not self.has_edge(u, v):
                raise EdgeNotFoundError(u, v)
            sub.add_edge(u, v)
        return sub

    def degree_order(self) -> Dict[Vertex, int]:
        """Rank vertices by ``(degree, insertion index)``.

        The returned mapping gives each vertex its position in that total
        order; triangle listing orients each edge from lower to higher
        rank so every triangle is enumerated exactly once.
        """
        ordered = sorted(self._adj, key=lambda v: (len(self._adj[v]), self._index[v]))
        return {v: rank for rank, v in enumerate(ordered)}

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"

    def __eq__(self, other: Any) -> bool:
        """Structural equality: same vertex set and same edge set."""
        if not isinstance(other, Graph):
            return NotImplemented
        if self.num_vertices != other.num_vertices or self.num_edges != other.num_edges:
            return False
        if set(self._adj) != set(other._adj):
            return False
        return all(self._adj[v] == other._adj[v] for v in self._adj)

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # type: ignore[assignment]  # mutable container
