"""Oracles for property tests: networkx adapters and brute-force references."""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, List, Set, Tuple

import networkx as nx

from repro.graph.graph import Graph, Vertex, Edge
from repro.core.gct import GCTIndex
from repro.core.online import online_search
from repro.core.tsd import TSDIndex
from repro.storage import write_artifact
from repro.storage.lazy import open_gct_artifact
from repro.util.dsu import DisjointSet

#: An index store from a release that wrote ``tsd``/``gct`` artifacts as
#: whole-payload JSON: ``serve-build figure1.txt store --codec json``,
#: then ``serve-build ... --codec json --artifacts gct``.  Version 2 holds
#: a fresh ``gct.json`` and carries v1's ``tsd.json``/``hybrid.json``
#: forward by reference.  Vertex ids are figure-1 insertion positions.
LEGACY_JSON_STORE = Path(__file__).parent / "fixtures" / "legacy_json_store"

#: Figure-1 vertex ``v`` in the fixture graph: score 3 at ``k = 4``.
LEGACY_V = 8


def to_networkx(graph: Graph) -> "nx.Graph":
    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(graph.edges())
    return g


def nx_ktruss_edges(graph: Graph, k: int) -> Set[frozenset]:
    """Edge set of the k-truss according to networkx (same convention)."""
    sub = nx.k_truss(to_networkx(graph), k)
    return {frozenset(e) for e in sub.edges()}


def brute_trussness(graph: Graph) -> Dict[Edge, int]:
    """Edge trussness from the definition: iterate k-truss peeling per k.

    Independent of the library's bucket implementation: for each k,
    repeatedly delete edges with support < k - 2; an edge's trussness is
    the largest k whose truss still contains it.
    """
    result: Dict[Edge, int] = {}
    k = 2
    remaining = {frozenset((u, v)) for u, v in graph.edges()}
    canonical = {frozenset((u, v)): graph.canonical_edge(u, v)
                 for u, v in graph.edges()}
    while remaining:
        # Compute the (k+1)-truss of the current graph.
        edges = set(remaining)
        changed = True
        while changed:
            changed = False
            adjacency: Dict[Vertex, Set[Vertex]] = {}
            for e in edges:
                u, v = tuple(e)
                adjacency.setdefault(u, set()).add(v)
                adjacency.setdefault(v, set()).add(u)
            for e in list(edges):
                u, v = tuple(e)
                support = len(adjacency[u] & adjacency[v])
                if support < (k + 1) - 2:
                    edges.discard(e)
                    changed = True
        # Everything dropped from `remaining` to `edges` has trussness k.
        for e in remaining - edges:
            result[canonical[e]] = k
        remaining = edges
        k += 1
    return result


def brute_structural_diversity(graph: Graph, v: Vertex, k: int) -> int:
    """score(v) via networkx: ego subgraph, k_truss, component count."""
    g = to_networkx(graph)
    ego = g.subgraph(g.neighbors(v)).copy()
    truss = nx.k_truss(ego, k)
    truss.remove_nodes_from([n for n in list(truss) if truss.degree(n) == 0])
    if truss.number_of_nodes() == 0:
        return 0
    return nx.number_connected_components(truss)


def brute_social_contexts(graph: Graph, v: Vertex, k: int) -> Set[frozenset]:
    """SC(v) via networkx, as a set of frozensets."""
    g = to_networkx(graph)
    ego = g.subgraph(g.neighbors(v)).copy()
    truss = nx.k_truss(ego, k)
    truss.remove_nodes_from([n for n in list(truss) if truss.degree(n) == 0])
    return {frozenset(c) for c in nx.connected_components(truss)}


def canonical_top_r(graph: Graph, k: int, r: int) -> List[Tuple[Vertex, int]]:
    """The canonical top-``r`` from the definition: every vertex's
    brute-force score, descending, ties (zeros included) in graph
    insertion order, ``min(r, n)`` rows."""
    scored = [(v, brute_structural_diversity(graph, v, k))
              for v in graph.vertices()]
    ranked = [pair for _, pair in sorted(
        enumerate(scored), key=lambda item: (-item[1][1], item[0]))]
    return ranked[:r]


def lemma3_score(gct: GCTIndex, v: Vertex, k: int) -> int:
    """Lemma 3 from ``GCT_v`` itself: supernodes with tau ≥ ``k`` minus
    superedges with weight ≥ ``k``."""
    return (sum(tau >= k for tau, _ in gct.supernodes(v))
            - sum(weight >= k for _, _, weight in gct.superedges(v)))


def dsu_contexts(gct: GCTIndex, v: Vertex, k: int) -> List[Set[Vertex]]:
    """``GCTIndex.contexts`` through a :class:`DisjointSet`, as it was
    computed before the one-fetch union-find: qualifying supernodes
    unioned by superedges of weight ≥ ``k``, one member union per
    component, components in order of their first supernode."""
    nodes, edges = gct.supernodes(v), gct.superedges(v)
    dsu: DisjointSet = DisjointSet(
        [i for i, (tau, _) in enumerate(nodes) if tau >= k])
    for i, j, weight in edges:
        if weight >= k:
            dsu.union(i, j)
    contexts: List[Set[Vertex]] = []
    for group in dsu.components():
        context: Set[Vertex] = set()
        for i in group:
            context.update(nodes[i][1])
        contexts.append(context)
    return contexts


def nx_core_numbers(graph: Graph) -> Dict[Vertex, int]:
    return nx.core_number(to_networkx(graph))


def nx_triangle_count(graph: Graph) -> int:
    return sum(nx.triangles(to_networkx(graph)).values()) // 3


def check_score_postings(graph: Graph, workdir) -> None:
    """The GCT score-postings contract on one graph, differentially.

    For every threshold from 2 to two past the largest trussness, the
    postings-backed ``ranking`` / ``scores_for_all`` / ``top_r`` of an
    eagerly built index, of ``GCTIndex.compress(tsd)`` and of the lazy
    mmap index over the written artifact must equal what the per-vertex
    ``score(v, k)`` scan and the online baseline say.
    """
    eager = GCTIndex.build(graph)
    path = workdir / "postings-gct.bin"
    write_artifact(path, eager.to_payload())
    indexes = {"eager": eager,
               "compressed": GCTIndex.compress(TSDIndex.build(graph)),
               "lazy": open_gct_artifact(path)}
    vertices = list(graph.vertices())
    n = len(vertices)
    max_tau = max((tau for v in vertices for tau, _ in eager.supernodes(v)),
                  default=0)
    for k in range(2, max_tau + 3):
        # Point lookups never touch the postings: the independent scan.
        scan = [(v, eager.score(v, k)) for v in vertices]
        ranked = [pair for _, pair in sorted(
            enumerate(scan), key=lambda item: (-item[1][1], item[0]))]
        if k > max_tau:
            assert ranked == [(v, 0) for v in vertices], k
        for name, index in indexes.items():
            assert index.ranking(k) == ranked, (name, k)
            # Equal as a dict *and* in key order.
            assert list(index.scores_for_all(k).items()) == scan, (name, k)
            for r in (1, 10, max(n, 1), n + 5):
                want = online_search(graph, k, r, collect_contexts=False)
                got = index.top_r(k, r, collect_contexts=False)
                assert (got.vertices, got.scores, got.r, got.search_space) \
                    == (want.vertices, want.scores, want.r, n), (name, k, r)
    # Rankings of one index share their zero-tail rows (no n fresh
    # tuples per scan): the all-zero rankings hold the very same ones.
    beyond = max(max_tau, 1) + 1
    for index in indexes.values():
        assert all(a is b for a, b in zip(index.ranking(beyond),
                                          index.ranking(beyond + 1)))
    indexes["lazy"]._supernodes.reader.close()


def legacy_json_store(workdir) -> Tuple[Path, Path]:
    """A private copy of :data:`LEGACY_JSON_STORE`: (graph file, store
    root) — migrations and warm starts write into the store."""
    root = Path(workdir) / "legacy"
    shutil.copytree(LEGACY_JSON_STORE, root)
    return root / "figure1.txt", root / "store"
