"""TSD-index: the truss-based structural diversity index (paper Section 5).

For each vertex ``v`` the TSD-index stores a *maximum spanning forest*
``TSD_v`` of the ego-network ``G_N(v)`` weighted by ego edge trussness
(Algorithm 5).  Observations 2–3 justify the structure: a tree suffices
to represent membership of a maximal connected k-truss, and taking the
*maximum*-weight forest loses no structural diversity information
(bottleneck property of maximum spanning forests).

Queries (Algorithm 6) restrict the forest to edges of weight ≥ ``k`` and
count/collect connected components — ``O(|N(v)|)`` per vertex, giving
the ``O(m)`` total search cost of Theorem 3.  The index is parameter
free: one build answers any ``(k, r)``.

:meth:`TSDIndex.top_r` follows the canonical ranking contract of
:mod:`repro.core.results` — descending score, ties broken by graph
insertion order — even though it scans vertices in *bound* order: the
early-termination test is strict (``bound < threshold``) and zero-score
slots are refilled in insertion order, so the bound-ordered scan cannot
leak its visit order into the answer.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.errors import IndexFormatError, InvalidParameterError
from repro.graph.graph import Graph, Vertex, Edge
from repro.graph.egonet import ego_network
from repro.truss.decomposition import truss_decomposition
from repro.core.bounds import tsd_upper_bound, count_at_least
from repro.core.diversity import profile_from_weights
from repro.core.results import (
    CanonicalTopR,
    SearchResult,
    build_entries,
    canonical_zero_fill,
)
from repro.util.dsu import DisjointSet
from repro.util.jsonio import dumps_payload
from repro.util.timing import StopWatch

# One forest edge: (u, w, weight); per-vertex lists are weight-descending.
ForestEdge = Tuple[Vertex, Vertex, int]

_PERSIST_VERSION = 1


@dataclass(frozen=True)
class BuildProfile:
    """Phase timings of an index build (Table 4 columns)."""

    extraction_seconds: float
    decomposition_seconds: float
    assembly_seconds: float

    @property
    def total_seconds(self) -> float:
        return (self.extraction_seconds + self.decomposition_seconds
                + self.assembly_seconds)

    def to_payload(self) -> Dict[str, float]:
        """JSON form of this profile for index persistence."""
        return {
            "extraction_seconds": self.extraction_seconds,
            "decomposition_seconds": self.decomposition_seconds,
            "assembly_seconds": self.assembly_seconds,
        }

    @staticmethod
    def from_payload(payload: Optional[Dict[str, float]]
                     ) -> Optional["BuildProfile"]:
        """Inverse of :meth:`to_payload`; ``None`` stays ``None``."""
        if payload is None:
            return None
        return BuildProfile(
            extraction_seconds=float(payload["extraction_seconds"]),
            decomposition_seconds=float(payload["decomposition_seconds"]),
            assembly_seconds=float(payload["assembly_seconds"]),
        )


def canonical_kruskal_order(vertex_list: Sequence[Vertex],
                            edge_list: Sequence[Tuple[Edge, int]],
                            position: Optional[Dict[Vertex, int]] = None,
                            vertex_tau: Optional[Dict[Vertex, int]] = None
                            ) -> List[Tuple[Edge, int]]:
    """The deterministic Kruskal processing order shared by TSD forest
    construction and GCT assembly (Algorithm 8).

    Edges sort by descending weight; within one weight, *level-internal*
    edges (both endpoints' vertex trussness equal to the edge weight)
    come first, then edges order by their endpoint positions in
    ``vertex_list``.  Level-internal-first matters: it lets every
    same-level supernode merge happen before a cross-level edge can
    connect the endpoints through another supernode, which makes the
    assembled supernode partition a canonical function of the weighted
    connectivity rather than of the caller's edge iteration order.
    Sharing one order between forest construction and assembly is what
    makes ``GCTIndex.compress(TSDIndex)`` structurally identical to
    ``GCTIndex.build`` — the forest keeps exactly the edges assembly
    would accept.

    ``position`` (vertex → index in ``vertex_list``) and ``vertex_tau``
    (vertex → max incident edge weight) may be supplied by callers that
    already computed them; both are derived here otherwise.
    """
    if position is None:
        position = {u: i for i, u in enumerate(vertex_list)}
    if vertex_tau is None:
        vertex_tau = {u: 0 for u in vertex_list}
        for (u, w), tau in edge_list:
            if tau > vertex_tau[u]:
                vertex_tau[u] = tau
            if tau > vertex_tau[w]:
                vertex_tau[w] = tau

    def key(item: Tuple[Edge, int]) -> Tuple[int, int, int, int]:
        (u, w), tau = item
        pu, pw = position[u], position[w]
        if pu > pw:
            pu, pw = pw, pu
        internal = 0 if vertex_tau[u] == vertex_tau[w] == tau else 1
        return (-tau, internal, pu, pw)

    return sorted(edge_list, key=key)


def maximum_spanning_forest(vertices: Iterable[Vertex],
                            weighted_edges: Iterable[Tuple[Edge, int]]
                            ) -> List[ForestEdge]:
    """Kruskal's maximum spanning forest (Algorithm 5).

    Edges are processed in :func:`canonical_kruskal_order`, so among the
    many valid maximum spanning forests this always picks the one whose
    GCT compression (Algorithm 8) matches a from-scratch GCT build.
    Returns forest edges in descending weight order.
    """
    vertex_list = list(vertices)
    edge_list = list(weighted_edges)
    dsu: DisjointSet = DisjointSet(vertex_list)
    forest: List[ForestEdge] = []
    for (u, w), weight in canonical_kruskal_order(vertex_list, edge_list):
        if dsu.union(u, w):
            forest.append((u, w, weight))
    return forest


def carry_records(old: Mapping, replaced: Mapping) -> Dict:
    """The per-vertex record dict of an index's successor.

    A fresh top-level dict that *shares* every value of ``old`` except
    those ``replaced``: an update batch costs the records it touched,
    not the index.  Surviving keys keep their position and new keys
    append in ``replaced``'s order, so when the caller passes
    ``replaced`` in graph-position order the result iterates in graph
    insertion order — what keeps a successor's payload byte-identical
    to a from-scratch build.
    """
    carried = dict(old)
    carried.update(replaced)
    return carried


def select_records(records: Mapping, only: Optional[Iterable[Vertex]],
                   position: Mapping[Vertex, int]) -> Iterable[Vertex]:
    """The vertices whose records a ``to_payload`` encodes: all of
    them, or those of ``only`` that have one, in graph-position order
    (whatever ``only`` iterates like — it may be a set)."""
    if only is None:
        return records
    return sorted((v for v in only if v in records),
                  key=position.__getitem__)


def _forest_weights(edges: Iterable[ForestEdge]) -> List[int]:
    """One forest's weight column (descending, like the forest)."""
    return [weight for _, _, weight in edges]


class TSDIndex:
    """The TSD-index of a graph: one maximum spanning forest per vertex.

    Build once with :meth:`build`; answer any ``(k, r)`` query with
    :meth:`top_r`, or per-vertex questions with :meth:`score` /
    :meth:`contexts` / :meth:`upper_bound`.

    Examples
    --------
    >>> from repro.datasets.paper import figure1_graph
    >>> index = TSDIndex.build(figure1_graph())
    >>> index.score("v", 4)
    3
    """

    def __init__(self, forests: Dict[Vertex, List[ForestEdge]],
                 vertex_order: Sequence[Vertex],
                 build_profile: Optional[BuildProfile] = None) -> None:
        self._forests = forests
        self._vertices: List[Vertex] = list(vertex_order)
        # ``forests`` is normally a plain dict, but any Mapping with the
        # lazy-provider protocol (``weights(v)`` + ``max_weight``, e.g.
        # :class:`repro.storage.lazy.LazyForestMap`) also works: then
        # nothing is precomputed here and per-vertex weight columns are
        # fetched from the provider on demand — the mmap warm-start
        # path.  Queries are bit-identical either way: the provider
        # serves the same stored edge lists a dict would hold.
        self._weights: Optional[Dict[Vertex, List[int]]] = None
        if not callable(getattr(forests, "weights", None)):
            self._weights = {v: _forest_weights(edges)
                             for v, edges in forests.items()}
        self.build_profile = build_profile
        # Per-k (bounds, visit order) memo for top_r, plus the vertex
        # position map both the memo and the collector tie-breaks use
        # (an index is never mutated, so neither goes stale).  Keys are
        # clamped to max forest weight + 1 (every k beyond it has
        # identical all-zero bounds), so the memo holds at most tau* + 1
        # entries of O(n) each — no unbounded growth under adversarial
        # k sweeps.
        self._bound_cache: Dict[int, Tuple[Dict[Vertex, int],
                                           List[Vertex]]] = {}
        self._position: Optional[Dict[Vertex, int]] = None
        self._max_weight: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction (Algorithm 5)
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph, jobs: Optional[int] = None,
              plan=None) -> "TSDIndex":
        """Construct the TSD-index.

        ``jobs=None`` (the backwards-compatible default) runs the
        per-vertex Algorithm 5 loop: extract ``G_N(v)`` (triangle
        listing), truss-decompose it (Algorithm 1), build the maximum
        spanning forest of the trussness-weighted ego-network.  Phase
        timings are recorded in :attr:`build_profile` for the Table 4
        comparison.

        Any other ``jobs`` value routes through the
        :mod:`repro.build` pipeline — one shared triangle pass feeding
        in-process or multi-process decomposition (``0`` auto-plans,
        ``1`` forces the serial shared pass, ``>= 2`` requests that many
        workers; see :meth:`repro.build.BuildPlan.decide`).  ``plan``
        overrides the heuristic with an explicit
        :class:`~repro.build.BuildPlan`.  Every strategy returns an
        index whose :meth:`to_payload` is byte-identical (modulo the
        build profile) to this per-vertex build.
        """
        if jobs is not None or plan is not None:
            from repro.build import build_tsd_index
            return build_tsd_index(graph, jobs=jobs, plan=plan)
        watch = StopWatch()
        forests: Dict[Vertex, List[ForestEdge]] = {}
        for v in graph.vertices():
            with watch.phase("extraction"):
                ego = ego_network(graph, v)
            with watch.phase("decomposition"):
                weights = truss_decomposition(ego)
            with watch.phase("assembly"):
                forests[v] = maximum_spanning_forest(ego.vertices(),
                                                     weights.items())
        profile = BuildProfile(
            extraction_seconds=watch.seconds("extraction"),
            decomposition_seconds=watch.seconds("decomposition"),
            assembly_seconds=watch.seconds("assembly"),
        )
        return cls(forests, list(graph.vertices()), profile)

    # ------------------------------------------------------------------
    # Queries (Algorithm 6 and the Section 5.2 bound)
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._forests

    @property
    def vertices(self) -> List[Vertex]:
        """Indexed vertices, in the graph's insertion order."""
        return list(self._vertices)

    def forest(self, v: Vertex) -> List[ForestEdge]:
        """The stored forest ``TSD_v`` (weight-descending edge list)."""
        self._check_vertex(v)
        return list(self._forests[v])

    def score(self, v: Vertex, k: int) -> int:
        """``score(v)``: components of forest edges with weight ≥ k."""
        self._check_k(k)
        self._check_vertex(v)
        dsu: DisjointSet = DisjointSet()
        count = 0
        for u, w, weight in self._forests[v]:
            if weight < k:
                break  # descending order: nothing further qualifies
            if dsu.add(u):
                count += 1
            if dsu.add(w):
                count += 1
            if dsu.union(u, w):
                count -= 1
        return count

    def contexts(self, v: Vertex, k: int) -> List[Set[Vertex]]:
        """The social contexts ``SC(v)`` recovered from the forest."""
        self._check_k(k)
        self._check_vertex(v)
        dsu: DisjointSet = DisjointSet()
        for u, w, weight in self._forests[v]:
            if weight < k:
                break
            dsu.union(u, w)
        return dsu.components()

    def upper_bound(self, v: Vertex, k: int) -> int:
        """The Section 5.2 pruning bound ``⌊|{w(e) ≥ k}| / (k-1)⌋``."""
        self._check_k(k)
        self._check_vertex(v)
        return tsd_upper_bound(self._weights_of(v), k)

    def scores_for_all(self, k: int) -> Dict[Vertex, int]:
        """``score(v)`` for every indexed vertex at one threshold.

        Batch counterpart of :meth:`score`; used by the effectiveness
        experiments which need the full score map (Exp-7 grouping).
        """
        self._check_k(k)
        return {v: self.score(v, k) for v in self._vertices}

    def score_profile(self, v: Vertex) -> Dict[int, int]:
        """``score(v)`` for every ``k`` with a non-zero answer.

        The forest preserves component counts at every threshold, so the
        profile from ``n_v - 1`` forest edges equals the profile from all
        ``m_v`` ego edges.  Absent keys mean score 0.
        """
        self._check_vertex(v)
        edges = self._forests[v]
        return profile_from_weights(
            ((u, w), weight) for u, w, weight in edges)

    def top_r(self, k: int, r: int, collect_contexts: bool = True) -> SearchResult:
        """TSD-index-based top-r search (Section 5.2).

        Vertices are visited in decreasing order of the TSD upper bound;
        the scan stops as soon as the bound is *strictly below* the
        answer set's minimum (a tied bound could still displace a tied
        vertex with a later insertion index — the canonical ranking
        contract).  ``search_space`` counts actual score computations.

        The ``(bounds, visit order)`` pair is a pure function of the
        stored forests and ``k``, so it is computed once per threshold
        and memoised — repeated queries at a hot ``k`` skip the
        all-vertex bound pass and the sort entirely.
        """
        self._check_k(k)
        if r < 1:
            raise InvalidParameterError(f"r must be >= 1, got {r}")
        start = time.perf_counter()
        r = min(r, max(len(self._vertices), 1))
        position = self._positions()
        # Clamp the memo key: past the max forest weight every bound is
        # zero whatever k is, so all those thresholds share one entry
        # (floored at 2 — the smallest k the bound accepts).
        key = min(k, max(self._max_forest_weight() + 1, 2))
        cached = self._bound_cache.get(key)
        if cached is None:
            bounds = {v: tsd_upper_bound(self._weights_of(v), key)
                      for v in self._vertices}
            order = sorted(self._vertices,
                           key=lambda v: (-bounds[v], position[v]))
            self._bound_cache[key] = (bounds, order)
        else:
            bounds, order = cached
        collector = CanonicalTopR(r, position.__getitem__)
        search_space = 0
        for v in order:
            if bounds[v] == 0:
                # A zero bound forces a zero score, and the descending
                # scan order makes every remaining bound zero too; the
                # canonical zero-fill below covers all of them.
                break
            if collector.is_full and bounds[v] < collector.threshold:
                break
            collector.offer(v, self.score(v, k))
            search_space += 1
        ranked = canonical_zero_fill(collector.ranked(), r, self._vertices)
        entries = build_entries(
            ranked, lambda v: self.contexts(v, k), collect_contexts)
        return SearchResult(
            method="TSD", k=k, r=r, entries=entries,
            search_space=search_space,
            elapsed_seconds=time.perf_counter() - start,
        )

    @staticmethod
    def _check_k(k: int) -> None:
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")

    def _check_vertex(self, v: Vertex) -> None:
        if v not in self._forests:
            raise InvalidParameterError(
                f"vertex {v!r} is not in the TSD-index")

    def _positions(self) -> Dict[Vertex, int]:
        """Vertex → rank in insertion order, built on first use."""
        if self._position is None:
            self._position = {v: i for i, v in enumerate(self._vertices)}
        return self._position

    def _weights_of(self, v: Vertex) -> List[int]:
        """One vertex's forest-weight column (descending), from the
        eager dict or the lazy provider."""
        if self._weights is None:
            return self._forests.weights(v)
        return self._weights[v]

    def _max_forest_weight(self) -> int:
        """Max stored forest-edge weight (0 for an edgeless index);
        weight lists are descending, so it is each list's head.  A lazy
        provider answers from its header in O(1) — the value is an
        *upper bound* there (delta writes never rescan for a superseded
        maximum), which only loosens the memo-key clamp: thresholds
        between the true and recorded maximum get their own all-zero
        bound entry instead of sharing one.  Answers are unaffected.
        """
        if self._max_weight is None:
            if self._weights is None:
                self._max_weight = self._forests.max_weight
            else:
                self._max_weight = max(
                    (w[0] for w in self._weights.values() if w), default=0)
        return self._max_weight

    # ------------------------------------------------------------------
    # Size accounting and persistence (Table 3 columns)
    # ------------------------------------------------------------------
    @property
    def num_forest_edges(self) -> int:
        """Total stored forest edges — ``O(Σ n_v) ⊆ O(m)`` by Theorem 3."""
        return sum(len(edges) for edges in self._forests.values())

    def payload_slots(self) -> int:
        """Logical storage slots: 3 per forest edge plus 1 per vertex key."""
        return 3 * self.num_forest_edges + len(self._forests)

    def approx_size_bytes(self, bytes_per_slot: int = 8) -> int:
        """Size estimate used for the Table 3 index-size comparison."""
        return self.payload_slots() * bytes_per_slot

    def to_payload(self, include_profile: bool = True,
                   only: Optional[Iterable[Vertex]] = None) -> Dict:
        """The JSON-encodable artifact form of this index.

        Shared by :meth:`save` and the service layer's
        :class:`~repro.service.store.IndexStore`, which persists index
        artifacts without owning their formats.  The build profile, when
        present, rides along so a loaded index still reports how its
        construction time was spent (Table 4).  Pass
        ``include_profile=False`` to drop it — the profile is the one
        wall-clock-dependent field, so stripping it makes payloads of
        equivalent indexes byte-comparable (the build-equivalence tests
        and benches rely on this).

        ``only`` restricts the per-vertex records to those vertices (in
        graph-position order; ones without a record are skipped) — the
        delta-write form: :func:`repro.storage.writer.write_delta`
        reads nothing but the changed vertices' records, so an update
        batch need not encode the other ``|V|``.  The vertex list stays
        complete either way.
        """
        vertices = self._vertices
        position = {v: i for i, v in enumerate(vertices)}
        forests = self._forests
        payload = {
            "format": "repro-tsd-index",
            "version": _PERSIST_VERSION,
            "vertices": vertices,
            "forests": {
                str(position[v]): [[position[u], position[w], weight]
                                   for u, w, weight in forests[v]]
                for v in select_records(forests, only, position)
            },
        }
        if include_profile and self.build_profile is not None:
            payload["build_profile"] = self.build_profile.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: Dict, source: str = "<payload>"
                     ) -> "TSDIndex":
        """Inverse of :meth:`to_payload`; ``source`` labels errors."""
        if payload.get("format") != "repro-tsd-index":
            raise IndexFormatError(f"{source}: not a TSD-index payload")
        if payload.get("version") != _PERSIST_VERSION:
            raise IndexFormatError(
                f"{source}: unsupported version {payload.get('version')!r}")
        raw = payload["vertices"]
        vertices = [tuple(v) if isinstance(v, list) else v for v in raw]
        forests = {
            vertices[int(pos)]: [(vertices[iu], vertices[iw], weight)
                                 for iu, iw, weight in edges]
            for pos, edges in payload["forests"].items()
        }
        return cls(forests, vertices,
                   BuildProfile.from_payload(payload.get("build_profile")))

    def save(self, path) -> None:
        """Persist as JSON (labels must be JSON-encodable)."""
        Path(path).write_text(dumps_payload(self.to_payload()),
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "TSDIndex":
        """Inverse of :meth:`save`, build profile included."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_payload(payload, source=str(path))
