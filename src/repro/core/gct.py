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

import heapq
import json
import time
from array import array
from bisect import bisect_left
from itertools import compress
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.errors import IndexFormatError, InvalidParameterError
from repro.graph.graph import Graph, Vertex, Edge
from repro.graph.egonet import iter_ego_edge_lists
from repro.truss.bitmap_decomposition import bitmap_truss_decomposition
from repro.core.bounds import count_at_least
from repro.core.results import SearchResult, build_entries
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

# Score postings: threshold k -> (graph positions ascending, scores) of
# the vertices that score > 0 at k, as parallel ``array('I')`` columns.
Postings = Dict[int, Tuple[array, array]]

_NO_POSTINGS: Tuple[array, array] = (array("I"), array("I"))

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


def _score_steps(taus: Sequence[int], weights: Sequence[int]
                 ) -> Dict[int, int]:
    """Lemma 3 as a step function: ``k -> N_k - M_k`` for every ``k``
    from 2 to the largest tau, from the two descending columns (one
    walk up both from their small ends, no search per ``k``)."""
    steps: Dict[int, int] = {}
    if taus:
        n_k, m_k = len(taus), len(weights)
        for k in range(2, taus[0] + 1):
            while taus[n_k - 1] < k:    # stops by n_k = 1: taus[0] >= k
                n_k -= 1
            while m_k and weights[m_k - 1] < k:
                m_k -= 1
            steps[k] = n_k - m_k
    return steps


class GCTIndex:
    """GCT-index of a graph: supernode/superedge forests per vertex.

    Examples
    --------
    >>> from repro.datasets.paper import figure1_graph
    >>> index = GCTIndex.build(figure1_graph())
    >>> index.score("v", 4)
    3

    Whole-graph answers are read off *score postings*: per threshold,
    the vertices scoring > 0 with their scores, derived from the Lemma-3
    columns by the first scan of an index object and handed on, patched,
    to its :meth:`successor`.  A served answer is a prefix of
    :meth:`positive_ranking` completed by :meth:`zero_filled`, in
    O(postings_k + r); :meth:`ranking` and :meth:`scores_for_all` cover
    all n vertices, for analysis.  Point lookups (:meth:`score`,
    :meth:`score_profile`, :meth:`contexts`) read the per-vertex
    columns and records.

    >>> index.positive_ranking(4)[:3]   # score, then insertion order
    [('v', 3), ('x1', 1), ('x2', 1)]
    """

    def __init__(self,
                 supernodes: Dict[Vertex, List[Supernode]],
                 superedges: Dict[Vertex, List[Superedge]],
                 vertex_order: Sequence[Vertex],
                 build_profile: Optional[BuildProfile] = None,
                 tau_sorted: Optional[Dict[Vertex, List[int]]] = None,
                 weight_sorted: Optional[Dict[Vertex, List[int]]] = None,
                 postings: Optional[Postings] = None
                 ) -> None:
        self._supernodes = supernodes
        self._superedges = superedges
        self._vertices: List[Vertex] = list(vertex_order)
        # Sorted (descending) weight arrays drive O(log) Lemma-3 queries.
        # With lazy providers (Mappings exposing ``tau_sorted(v)`` /
        # ``weight_sorted(v)`` / ``summaries()``, e.g. the mmap-backed
        # maps in :mod:`repro.storage.lazy`) nothing is precomputed: the
        # sorted arrays decode per vertex from the record prefix on
        # demand.  ``tau_sorted`` / ``weight_sorted`` / ``postings``
        # hand over columns already derived for exactly these records;
        # only :meth:`successor` passes them.
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
        # Score postings, derived on the first scan (None until then).
        # Published by one attribute assignment of a finished structure
        # that is never mutated afterwards, so the concurrent readers of
        # a published snapshot need no lock: racing derivations are
        # redundant but identical (the idiom of ``Snapshot._scores``).
        self._postings: Optional[Postings] = postings
        # The ``(vertex, 0)`` rows every zero tail is made of, one per
        # vertex in graph order: built by the first :meth:`zero_filled`
        # asked past its ranked rows, published and handed on like the
        # postings, so an answer allocates its positive rows only.
        self._zero_rows: Optional[List[Tuple[Vertex, int]]] = None
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
                                                 List[Superedge]]]
                  ) -> "GCTIndex":
        """The index after an update batch; this one is left untouched.

        ``entries`` holds the reassembled ``(supernodes, superedges)``
        of every vertex whose ego-network changed, in graph-position
        order (:func:`assemble_from_forest` over the repaired forests,
        :func:`repro.service.updates.apply_batch`); new vertices append
        to ``vertex_order``.  Every other record and Lemma-3 column is
        shared with this index.  A lazily-loaded index decodes its
        records once here (a read-only mmap artifact cannot be patched)
        and stays lazy itself.  An index that has derived its score
        postings hands them on patched (:meth:`_patched_postings`); a
        reordered ``vertex_order`` shifts positions, and the successor
        re-derives.
        """
        old_nodes, old_edges, old_taus, old_weights = self._eager_columns()
        order = list(vertex_order)
        nodes = {v: entry[0] for v, entry in entries.items()}
        edges = {v: entry[1] for v, entry in entries.items()}
        taus = {v: _taus_descending(found) for v, found in nodes.items()}
        weights = {v: _weights_descending(found)
                   for v, found in edges.items()}
        # Derived postings follow the batch row by row while positions
        # stay put (vertices only appended); otherwise, and when nobody
        # has scanned this index, the successor derives its own on demand.
        postings = None
        if (self._postings is not None
                and order[:len(self._vertices)] == self._vertices):
            postings = self._patched_postings(order, old_taus, taus, weights)
        successor = GCTIndex(
            carry_records(old_nodes, nodes),
            carry_records(old_edges, edges),
            order,
            tau_sorted=carry_records(old_taus, taus),
            weight_sorted=carry_records(old_weights, weights),
            postings=postings)
        if postings is not None and self._zero_rows is not None:
            successor._zero_rows = self._zero_rows + [
                (v, 0) for v in order[len(self._vertices):]]
        return successor

    def _patched_postings(self, order: Sequence[Vertex],
                          old_taus: Mapping[Vertex, List[int]],
                          taus: Mapping[Vertex, List[int]],
                          weights: Mapping[Vertex, List[int]]) -> Postings:
        """This index's postings with the rows of the reassembled
        vertices (``taus``/``weights``: their new columns) replaced.

        Copy-on-write: a threshold's arrays are copied the first time a
        row of theirs changes and shared with this index otherwise, so
        a batch costs O(affected × thresholds) bisects plus the touched
        arrays' memcpy, and this index's postings never change.
        """
        postings = dict(self._postings)
        owned: Set[int] = set()
        position = {v: i for i, v in enumerate(order) if v in taus}
        for v, found in taus.items():
            i = position[v]
            steps = _score_steps(found, weights[v])
            before = old_taus.get(v)
            top = max(before[0] if before else 0, found[0] if found else 0)
            for k in range(2, top + 1):
                if k not in owned:
                    positions, scores = postings.get(k, _NO_POSTINGS)
                    postings[k] = (positions[:], scores[:])
                    owned.add(k)
                positions, scores = postings[k]
                j = bisect_left(positions, i)
                if j < len(positions) and positions[j] == i:
                    del positions[j], scores[j]
                score = steps.get(k, 0)
                if score > 0:
                    positions.insert(j, i)
                    scores.insert(j, score)
        for k in owned:
            if not postings[k][0]:
                del postings[k]
        return postings

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
        weight ≥ ``k``; each group's member union is one context, in
        order of the group's first supernode.  A superedge's weight is
        at most both endpoints' taus, so those superedges only ever
        join qualifying supernodes.
        """
        self._check_k(k)
        try:
            if self._tau_sorted is None:    # lazy provider: one fetch
                nodes, edges = self._supernodes.record(v)
            else:
                nodes, edges = self._supernodes[v], self._superedges[v]
        except KeyError:
            raise InvalidParameterError(
                f"vertex {v!r} is not in the GCT-index") from None
        parent = list(range(len(nodes)))

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]   # path halving
            return i

        for i, j, weight in edges:
            if weight >= k:
                parent[root(i)] = root(j)
        contexts: Dict[int, Set[Vertex]] = {}
        for i, (tau, members) in enumerate(nodes):
            if tau >= k:
                contexts.setdefault(root(i), set()).update(members)
        return list(contexts.values())

    def _summaries(self) -> Iterator[Tuple[int, Sequence[int],
                                            Sequence[int]]]:
        """``(graph position, taus, superedge weights)`` (both
        descending) of every indexed vertex, in position order."""
        if self._tau_sorted is None or self._weight_sorted is None:
            return self._supernodes.summaries()
        taus, weights = self._tau_sorted, self._weight_sorted
        return ((i, taus[v], weights[v])
                for i, v in enumerate(self._vertices))

    def _postings_at(self, k: int) -> Tuple[array, array]:
        """``(positions ascending, scores)`` of the vertices scoring
        > 0 at ``k`` — read-only; derives every threshold's on first
        use (one pass over the Lemma-3 columns, no record decode).

        ``score(v, k) > 0`` iff ``v`` has a supernode of trussness
        ≥ ``k``, so all thresholds together hold ``Σ_v (max tau(v) − 1)
        ≤ 2m`` rows however many thresholds are ever asked.
        """
        postings = self._postings
        if postings is None:
            postings = {}
            for i, taus, weights in self._summaries():
                for at, score in _score_steps(taus, weights).items():
                    if score > 0:
                        column = postings.get(at)
                        if column is None:
                            column = postings[at] = (array("I"), array("I"))
                        column[0].append(i)
                        column[1].append(score)
            self._postings = postings  # atomic publish, see __init__
        return postings.get(k, _NO_POSTINGS)

    def _best(self, k: int, r: int) -> List[Tuple[Vertex, int]]:
        """The ``r`` best positive-score ``(vertex, score)`` pairs at
        ``k`` in canonical order (fewer when fewer score > 0)."""
        positions, scores = self._postings_at(k)
        vertices = self._vertices
        # nlargest is stable and positions ascend, so ties come out in
        # graph insertion order — the canonical tie-break.
        return [(vertices[positions[j]], scores[j])
                for j in heapq.nlargest(r, range(len(positions)),
                                        key=scores.__getitem__)]

    def positive_ranking(self, k: int) -> List[Tuple[Vertex, int]]:
        """The ``postings_k`` vertices scoring > 0 at ``k`` with their
        scores, in canonical order (descending score, ties in graph
        insertion order) — what a serving memo keeps per threshold."""
        self._check_k(k)
        return self._best(k, len(self._vertices))

    def zero_filled(self, k: int, ranked: List[Tuple[Vertex, int]],
                    r: int) -> List[Tuple[Vertex, int]]:
        """The canonical top-``r`` at ``k``: the first ``r`` rows of
        ``ranked`` (a prefix of :meth:`positive_ranking`, complete when
        shorter than ``r``), then zero-score vertices in graph order up
        to ``min(r, n)`` rows — the index's shared ``(vertex, 0)`` rows
        below the ``k``-postings positions they skip, so
        O(postings_k + r) and no new row."""
        answer = ranked[:r]
        if len(answer) == r:
            return answer
        zero_rows = self._zero_rows
        if zero_rows is None:   # atomic publish, like the postings
            zero_rows = self._zero_rows = [(v, 0) for v in self._vertices]
        positions = self._postings_at(k)[0]
        missing = min(r, len(zero_rows)) - len(answer)
        # The zeros are the first ``stop`` rows minus the ``below``
        # positive ones among them: the least fixed point of
        # stop = missing + |{positions < stop}|.
        stop, below = missing, bisect_left(positions, missing)
        while missing + below != stop:
            stop = missing + below
            below = bisect_left(positions, stop)
        if not below:
            answer += zero_rows[:stop]
        else:
            keep = bytearray(b"\x01") * stop
            for i in positions[:below]:
                keep[i] = 0
            answer += compress(zero_rows, keep)
        return answer

    def scores_for_all(self, k: int) -> Dict[Vertex, int]:
        """``score(v)`` for every indexed vertex at one threshold, keyed
        in graph insertion order — the batch scoring path the
        effectiveness experiments use.
        """
        self._check_k(k)
        positions, scores = self._postings_at(k)
        score_map = dict.fromkeys(self._vertices, 0)
        score_map.update(zip(map(self._vertices.__getitem__, positions),
                             scores))
        return score_map

    def ranking(self, k: int) -> List[Tuple[Vertex, int]]:
        """Every indexed vertex with its score at ``k``, in canonical
        order: descending score, ties (the zero tail included) in graph
        insertion order.  ``top_r(k, r)`` is its first ``r`` entries.
        """
        return self.zero_filled(k, self.positive_ranking(k),
                                len(self._vertices))

    def score_profile(self, v: Vertex) -> Dict[int, int]:
        """``score(v)`` for every ``k`` from 2 to the max supernode tau."""
        self._check_vertex(v)
        return _score_steps(self._taus(v), self._edge_weights(v))

    def top_r(self, k: int, r: int, collect_contexts: bool = True) -> SearchResult:
        """GCT top-r search: the ``r`` best of the ``k``-postings.

        No pruning is needed — the postings hold exactly the vertices
        that score > 0 at ``k`` with their Lemma-3 scores, so a query
        costs O(postings_k + r) and decodes records only for the
        winners' contexts.
        """
        self._check_k(k)
        if r < 1:
            raise InvalidParameterError(f"r must be >= 1, got {r}")
        start = time.perf_counter()
        r = min(r, max(len(self._vertices), 1))
        ranked = self.zero_filled(k, self._best(k, r), r)
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
