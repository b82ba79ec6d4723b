"""GCT: global-information-based search with a compressed index (Section 6).

GCT improves on the TSD approach in three ways, all reproduced here:

1. **Fast ego-network extraction** (Algorithm 7 lines 1–4): one global
   triangle pass appends each edge ``(u, v)`` to the ego-network of each
   common neighbour ``w``; every triangle is touched three times instead
   of six.
2. **Bitmap-based truss decomposition** (lines 5–14): ego-networks are
   decomposed with bitmap adjacency and popcount supports.
3. **GCT-index** (Algorithm 8): the TSD forest is compressed into
   *supernodes* (vertices connected by edges of one trussness level
   within a social context) and *superedges* (the forest edges between
   different levels).  A query needs only Lemma 3:
   ``score(v) = N_k − M_k`` where ``N_k``/``M_k`` count supernodes /
   superedges with trussness/weight ≥ ``k``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.errors import IndexFormatError, InvalidParameterError
from repro.graph.graph import Graph, Vertex, Edge
from repro.graph.egonet import iter_ego_edge_lists
from repro.truss.bitmap_decomposition import bitmap_truss_decomposition
from repro.core.bounds import count_at_least
from repro.core.results import (
    CanonicalTopR,
    SearchResult,
    build_entries,
    canonical_zero_fill,
)
from repro.core.tsd import (
    BuildProfile,
    ForestEdge,
    TSDIndex,
    canonical_kruskal_order,
    carry_records,
    select_records,
)
from repro.util.dsu import DisjointSet
from repro.util.jsonio import dumps_payload
from repro.util.timing import StopWatch

# Supernode: (trussness, members tuple).  Superedge: (i, j, weight) with
# i/j indexing the vertex's supernode list.
Supernode = Tuple[int, Tuple[Vertex, ...]]
Superedge = Tuple[int, int, int]

_PERSIST_VERSION = 1


def assemble_gct(vertices: Sequence[Vertex],
                 weighted_edges: Iterable[Tuple[Edge, int]]
                 ) -> Tuple[List[Supernode], List[Superedge]]:
    """Algorithm 8: build supernodes and superedges for one ego-network.

    ``weighted_edges`` carries ego edge trussnesses (or, equivalently,
    TSD forest edges — the bottleneck property makes both yield the same
    query answers).  Edges are scanned in decreasing weight; equal-tau
    endpoints merge supernodes, unequal ones add a superedge, and a
    connectivity union-find rejects anything that would close a cycle.

    The returned structure is *canonical with respect to* ``vertices``:
    supernode member tuples are ordered by position in ``vertices``,
    supernodes by their earliest member, and superedges are normalised
    to ``i < j`` and sorted — so any two edge sets describing the same
    weighted connectivity (full ego edges, a TSD forest) assemble to an
    identical index payload.
    """
    vertex_list = list(vertices)
    edge_list = list(weighted_edges)
    position = {u: i for i, u in enumerate(vertex_list)}
    # Vertex trussness = max incident edge weight (0 for isolated).
    vertex_tau: Dict[Vertex, int] = {u: 0 for u in vertex_list}
    for (u, w), tau in edge_list:
        if tau > vertex_tau[u]:
            vertex_tau[u] = tau
        if tau > vertex_tau[w]:
            vertex_tau[w] = tau

    snode: DisjointSet = DisjointSet(vertex_list)   # supernode membership
    conn: DisjointSet = DisjointSet(vertex_list)    # overall GCT connectivity
    members: Dict[Vertex, List[Vertex]] = {u: [u] for u in vertex_list}
    tau_of: Dict[Vertex, int] = dict(vertex_tau)    # valid at snode roots
    raw_superedges: List[Tuple[Vertex, Vertex, int]] = []

    for (u, w), tau in canonical_kruskal_order(vertex_list, edge_list,
                                               position, vertex_tau):
        if conn.connected(u, w):
            continue
        ru, rw = snode.find(u), snode.find(w)
        if ru != rw and tau_of[ru] == tau_of[rw] == tau:
            # Merge the two supernodes (Algorithm 8 lines 10-12).
            snode.union(ru, rw)
            root = snode.find(ru)
            other = rw if root == ru else ru
            members[root].extend(members.pop(other))
            tau_of[root] = tau
        else:
            # Superedge insertion (lines 13-15).
            raw_superedges.append((u, w, tau))
        conn.union(u, w)

    roots: Dict[Vertex, int] = {}
    supernodes: List[Supernode] = []
    for u in vertex_list:
        root = snode.find(u)
        if root in roots:
            continue
        if tau_of[root] < 2:
            # Isolated ego vertices: trussness 0, invisible to every
            # query with k >= 2 — not worth an index slot.
            continue
        roots[root] = len(supernodes)
        supernodes.append((tau_of[root],
                           tuple(sorted(members[root],
                                        key=position.__getitem__))))
    superedges: List[Superedge] = sorted(
        (min(roots[snode.find(u)], roots[snode.find(w)]),
         max(roots[snode.find(u)], roots[snode.find(w)]),
         tau)
        for u, w, tau in raw_superedges
    )
    return supernodes, superedges


def assemble_from_forest(forest: Sequence[ForestEdge],
                         position: Mapping[Vertex, int]
                         ) -> Tuple[List[Supernode], List[Superedge]]:
    """Algorithm 8 over one stored TSD forest: ``GCT_v`` from ``TSD_v``.

    Forests omit isolated ego vertices from edges; recovering the full
    neighbour set from the forest alone is not possible, so only
    edge-touched vertices are assembled.  Isolated ego vertices have
    trussness 0 and never affect any query with ``k >= 2``
    (:meth:`GCTIndex.build` skips them too).  ``position`` is the graph
    insertion order that makes the entry canonical.
    """
    touched = {u for u, _, _ in forest} | {w for _, w, _ in forest}
    return assemble_gct(
        sorted(touched, key=position.__getitem__),
        (((u, w), weight) for u, w, weight in forest))


def _taus_descending(nodes: Iterable[Supernode]) -> List[int]:
    return sorted((tau for tau, _ in nodes), reverse=True)


def _weights_descending(edges: Iterable[Superedge]) -> List[int]:
    return sorted((weight for _, _, weight in edges), reverse=True)


class GCTIndex:
    """GCT-index of a graph: supernode/superedge forests per vertex.

    Examples
    --------
    >>> from repro.datasets.paper import figure1_graph
    >>> index = GCTIndex.build(figure1_graph())
    >>> index.score("v", 4)
    3
    """

    def __init__(self,
                 supernodes: Dict[Vertex, List[Supernode]],
                 superedges: Dict[Vertex, List[Superedge]],
                 vertex_order: Sequence[Vertex],
                 build_profile: Optional[BuildProfile] = None,
                 tau_sorted: Optional[Dict[Vertex, List[int]]] = None,
                 weight_sorted: Optional[Dict[Vertex, List[int]]] = None
                 ) -> None:
        self._supernodes = supernodes
        self._superedges = superedges
        self._vertices: List[Vertex] = list(vertex_order)
        # Sorted (descending) weight arrays drive O(log) Lemma-3 queries.
        # With lazy providers (Mappings exposing ``tau_sorted(v)`` /
        # ``weight_sorted(v)``, e.g. the mmap-backed maps in
        # :mod:`repro.storage.lazy`) nothing is precomputed: the sorted
        # arrays decode per vertex from the record prefix on demand.
        # ``tau_sorted`` / ``weight_sorted`` hand over columns already
        # derived for exactly these records (:meth:`successor`).
        if tau_sorted is not None:
            self._tau_sorted: Optional[Dict[Vertex, List[int]]] = tau_sorted
        elif callable(getattr(supernodes, "tau_sorted", None)):
            self._tau_sorted = None
        else:
            self._tau_sorted = {v: _taus_descending(nodes)
                                for v, nodes in supernodes.items()}
        if weight_sorted is not None:
            self._weight_sorted: Optional[Dict[Vertex, List[int]]] = \
                weight_sorted
        elif callable(getattr(superedges, "weight_sorted", None)):
            self._weight_sorted = None
        else:
            self._weight_sorted = {v: _weights_descending(edges)
                                   for v, edges in superedges.items()}
        self.build_profile = build_profile

    def _taus(self, v: Vertex) -> List[int]:
        """Descending supernode taus of ``v`` (eager dict or provider)."""
        if self._tau_sorted is None:
            return self._supernodes.tau_sorted(v)
        return self._tau_sorted[v]

    def _edge_weights(self, v: Vertex) -> List[int]:
        """Descending superedge weights of ``v``."""
        if self._weight_sorted is None:
            return self._superedges.weight_sorted(v)
        return self._weight_sorted[v]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph, jobs: Optional[int] = None,
              plan=None) -> "GCTIndex":
        """Algorithm 7 end-to-end: one-shot extraction, bitmap peeling,
        Algorithm 8 assembly.  Phase timings land in :attr:`build_profile`.

        ``jobs=None`` (default) keeps this single-threaded loop; any
        other value routes through the :mod:`repro.build` pipeline
        (``0`` auto-plans, ``1`` forces the serial shared pass, ``>= 2``
        requests a worker pool — see
        :meth:`repro.build.BuildPlan.decide`), producing a
        byte-identical index (modulo the build profile).
        """
        if jobs is not None or plan is not None:
            from repro.build import build_gct_index
            return build_gct_index(graph, jobs=jobs, plan=plan)
        watch = StopWatch()
        with watch.phase("extraction"):
            ego_lists = list(iter_ego_edge_lists(graph))
        supernodes: Dict[Vertex, List[Supernode]] = {}
        superedges: Dict[Vertex, List[Superedge]] = {}
        for v, edges in ego_lists:
            neighbours = sorted(graph.neighbors(v), key=graph.vertex_index)
            with watch.phase("decomposition"):
                weights = bitmap_truss_decomposition(neighbours, edges)
            with watch.phase("assembly"):
                supernodes[v], superedges[v] = assemble_gct(
                    neighbours, weights.items())
        profile = BuildProfile(
            extraction_seconds=watch.seconds("extraction"),
            decomposition_seconds=watch.seconds("decomposition"),
            assembly_seconds=watch.seconds("assembly"),
        )
        return cls(supernodes, superedges, list(graph.vertices()), profile)

    @classmethod
    def compress(cls, tsd: TSDIndex) -> "GCTIndex":
        """Compress an existing TSD-index into a GCT-index.

        The paper describes GCT-index as "compressed from TSD-index";
        running Algorithm 8 over the stored forests yields an index with
        identical query answers (bottleneck property) without touching
        the graph again.  Ego vertices are ordered by the TSD index's
        vertex positions — the same graph insertion order :meth:`build`
        uses — so a compressed index is structurally identical to a
        freshly built one, not merely query-equivalent.
        """
        position = {v: i for i, v in enumerate(tsd.vertices)}
        supernodes: Dict[Vertex, List[Supernode]] = {}
        superedges: Dict[Vertex, List[Superedge]] = {}
        for v in tsd.vertices:
            supernodes[v], superedges[v] = assemble_from_forest(
                tsd.forest(v), position)
        return cls(supernodes, superedges, tsd.vertices)

    def successor(self, vertex_order: Sequence[Vertex],
                  entries: Mapping[Vertex, Tuple[List[Supernode],
                                                 List[Superedge]]],
                  dropped: Iterable[Vertex] = ()) -> "GCTIndex":
        """The index after an update batch; this one is left untouched.

        The GCT counterpart of :meth:`TSDIndex.successor`: ``entries``
        holds the reassembled ``(supernodes, superedges)`` of every
        vertex whose ego-network changed, in graph-position order
        (:func:`assemble_from_forest` over the repaired forests);
        ``dropped`` names vertices that left the graph.  Every other
        record and Lemma-3 column is shared with this index.  A
        lazily-loaded index decodes its records once here (a read-only
        mmap artifact cannot be patched) and stays lazy itself.
        """
        old_nodes, old_edges, old_taus, old_weights = self._eager_columns()
        nodes = {v: entry[0] for v, entry in entries.items()}
        edges = {v: entry[1] for v, entry in entries.items()}
        return GCTIndex(
            carry_records(old_nodes, nodes, dropped),
            carry_records(old_edges, edges, dropped),
            vertex_order,
            tau_sorted=carry_records(
                old_taus,
                {v: _taus_descending(found) for v, found in nodes.items()},
                dropped),
            weight_sorted=carry_records(
                old_weights,
                {v: _weights_descending(found)
                 for v, found in edges.items()},
                dropped))

    def _eager_columns(self) -> Tuple[Dict[Vertex, List[Supernode]],
                                      Dict[Vertex, List[Superedge]],
                                      Dict[Vertex, List[int]],
                                      Dict[Vertex, List[int]]]:
        """``(supernodes, superedges, taus, superedge weights)`` as plain
        dicts: the ones an eager index owns (callers copy before
        changing anything), or every record of a lazy one decoded once.
        """
        if self._tau_sorted is not None and self._weight_sorted is not None:
            return (self._supernodes, self._superedges,
                    self._tau_sorted, self._weight_sorted)
        nodes: Dict[Vertex, List[Supernode]] = {}
        edges: Dict[Vertex, List[Superedge]] = {}
        for v in self._supernodes:
            # Interleaved, so a vertex's two lookups decode one record.
            nodes[v] = self._supernodes[v]
            edges[v] = self._superedges[v]
        return (nodes, edges,
                {v: _taus_descending(found) for v, found in nodes.items()},
                {v: _weights_descending(found)
                 for v, found in edges.items()})

    # ------------------------------------------------------------------
    # Queries (Lemma 3)
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._supernodes

    @property
    def vertices(self) -> List[Vertex]:
        """Indexed vertices, in the graph's insertion order."""
        return list(self._vertices)

    def supernodes(self, v: Vertex) -> List[Supernode]:
        """The supernodes of ``GCT_v`` as ``(trussness, members)`` pairs."""
        self._check_vertex(v)
        return list(self._supernodes[v])

    def superedges(self, v: Vertex) -> List[Superedge]:
        """The superedges of ``GCT_v`` as ``(i, j, weight)`` triples."""
        self._check_vertex(v)
        return list(self._superedges[v])

    def score(self, v: Vertex, k: int) -> int:
        """Lemma 3: ``score(v) = N_k − M_k`` via two binary searches."""
        self._check_k(k)
        self._check_vertex(v)
        n_k = count_at_least(self._taus(v), k)
        m_k = count_at_least(self._edge_weights(v), k)
        return n_k - m_k

    def contexts(self, v: Vertex, k: int) -> List[Set[Vertex]]:
        """Social contexts from the supernode forest.

        Supernodes with trussness ≥ ``k`` are grouped by superedges of
        weight ≥ ``k``; each group's member union is one context.
        """
        self._check_k(k)
        self._check_vertex(v)
        qualifying = [i for i, (tau, _) in enumerate(self._supernodes[v])
                      if tau >= k]
        dsu: DisjointSet = DisjointSet(qualifying)
        for i, j, weight in self._superedges[v]:
            if weight >= k:
                dsu.union(i, j)
        contexts: List[Set[Vertex]] = []
        nodes = self._supernodes[v]
        for group in dsu.components():
            context: Set[Vertex] = set()
            for i in group:
                context.update(nodes[i][1])
            contexts.append(context)
        return contexts

    def scores_for_all(self, k: int) -> Dict[Vertex, int]:
        """``score(v)`` for every indexed vertex at one threshold.

        Two binary searches per vertex — the batch scoring path the
        effectiveness experiments use.
        """
        self._check_k(k)
        return {v: self.score(v, k) for v in self._vertices}

    def score_profile(self, v: Vertex) -> Dict[int, int]:
        """``score(v)`` for every ``k`` from 2 to the max supernode tau."""
        self._check_vertex(v)
        taus = self._taus(v)
        if not taus or taus[0] < 2:
            return {}
        weights = self._edge_weights(v)
        return {
            k: count_at_least(taus, k) - count_at_least(weights, k)
            for k in range(2, taus[0] + 1)
        }

    def top_r(self, k: int, r: int, collect_contexts: bool = True) -> SearchResult:
        """GCT top-r search: score every vertex in O(log) each, pick r.

        No pruning is needed — Lemma 3 makes every score almost free, so
        GCT simply evaluates all vertices (the paper's O(m) query bound).
        """
        self._check_k(k)
        if r < 1:
            raise InvalidParameterError(f"r must be >= 1, got {r}")
        start = time.perf_counter()
        r = min(r, max(len(self._vertices), 1))
        position = {v: i for i, v in enumerate(self._vertices)}
        collector = CanonicalTopR(r, position.__getitem__)
        for v in self._vertices:
            collector.offer(v, self.score(v, k))
        ranked = canonical_zero_fill(collector.ranked(), r, self._vertices)
        entries = build_entries(
            ranked, lambda v: self.contexts(v, k), collect_contexts)
        return SearchResult(
            method="GCT", k=k, r=r, entries=entries,
            search_space=len(self._vertices),
            elapsed_seconds=time.perf_counter() - start,
        )

    @staticmethod
    def _check_k(k: int) -> None:
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")

    def _check_vertex(self, v: Vertex) -> None:
        if v not in self._supernodes:
            raise InvalidParameterError(
                f"vertex {v!r} is not in the GCT-index")

    # ------------------------------------------------------------------
    # Size accounting and persistence (Table 3)
    # ------------------------------------------------------------------
    def payload_slots(self) -> int:
        """Logical slots: per supernode 1 tau + members; per superedge 3.

        Smaller than the TSD payload whenever social contexts contain
        internal structure — the compression Table 3 measures.
        """
        slots = len(self._supernodes)  # one key slot per vertex
        for nodes in self._supernodes.values():
            for _, members in nodes:
                slots += 1 + len(members)
        for edges in self._superedges.values():
            slots += 3 * len(edges)
        return slots

    def approx_size_bytes(self, bytes_per_slot: int = 8) -> int:
        """Size estimate for the Table 3 comparison."""
        return self.payload_slots() * bytes_per_slot

    def to_payload(self, include_profile: bool = True,
                   only: Optional[Iterable[Vertex]] = None) -> Dict:
        """The JSON-encodable artifact form of this index.

        Shared by :meth:`save` and the service layer's
        :class:`~repro.service.store.IndexStore` (labels must be
        JSON-encodable).  ``include_profile=False`` strips the
        wall-clock build profile so equivalent indexes byte-compare.
        ``only`` restricts the per-vertex records to those vertices, in
        graph-position order — the delta-write form, as in
        :meth:`TSDIndex.to_payload`.
        """
        vertices = self._vertices
        position = {v: i for i, v in enumerate(vertices)}
        supernodes, superedges = self._supernodes, self._superedges
        payload = {
            "format": "repro-gct-index",
            "version": _PERSIST_VERSION,
            "vertices": vertices,
            "supernodes": {
                str(position[v]): [[tau, [position[m] for m in members]]
                                   for tau, members in supernodes[v]]
                for v in select_records(supernodes, only, position)
            },
            "superedges": {
                str(position[v]): [list(edge) for edge in superedges[v]]
                for v in select_records(superedges, only, position)
            },
        }
        if include_profile and self.build_profile is not None:
            payload["build_profile"] = self.build_profile.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: Dict, source: str = "<payload>"
                     ) -> "GCTIndex":
        """Inverse of :meth:`to_payload`; ``source`` labels errors."""
        if payload.get("format") != "repro-gct-index":
            raise IndexFormatError(f"{source}: not a GCT-index payload")
        if payload.get("version") != _PERSIST_VERSION:
            raise IndexFormatError(
                f"{source}: unsupported version {payload.get('version')!r}")
        raw = payload["vertices"]
        vertices = [tuple(v) if isinstance(v, list) else v for v in raw]
        supernodes = {
            vertices[int(pos)]: [(tau, tuple(vertices[m] for m in members))
                                 for tau, members in nodes]
            for pos, nodes in payload["supernodes"].items()
        }
        superedges = {
            vertices[int(pos)]: [tuple(edge) for edge in edges]
            for pos, edges in payload["superedges"].items()
        }
        return cls(supernodes, superedges, vertices,
                   BuildProfile.from_payload(payload.get("build_profile")))

    def save(self, path) -> None:
        """Persist as JSON (labels must be JSON-encodable)."""
        Path(path).write_text(dumps_payload(self.to_payload()),
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "GCTIndex":
        """Inverse of :meth:`save`, build profile included."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_payload(payload, source=str(path))
