"""The shared-pass, multi-process index build pipeline.

:class:`ParallelIndexBuilder` replaces the per-vertex Algorithm 5 loop
with a three-stage pipeline:

1. **One shared triangle pass** — :func:`~repro.graph.egonet.
   all_ego_edge_id_lists` enumerates every triangle once (degree
   ordering) and emits each vertex's ego edge list on *compact integer
   ids* (insertion positions).  The per-vertex loop touches each
   triangle six times; Algorithm 7's global pass three times; this pass
   once.
2. **Sharded decomposition** — vertices are partitioned into
   size-balanced shards; each shard's ego-networks are truss-decomposed
   (bitmap peeling, with closed-form shortcuts for the tiny ego-networks
   that dominate sparse graphs) and their maximum spanning forests /
   GCT supernode structures assembled.  Shards run in-process
   (``shared-serial``) or across a ``multiprocessing`` pool
   (``parallel``); workers see only integer ids, so vertex labels are
   never pickled.
3. **Deterministic merge** — shard results are keyed by vertex id and
   reassembled in graph insertion order, translating ids back to
   labels.

Determinism is load-bearing: :func:`~repro.core.tsd.
canonical_kruskal_order` is a *total* order, so forests and GCT
structures are pure functions of each ego-network's weighted edge set —
independent of edge discovery order, shard assignment, and worker
scheduling.  A parallel build is therefore **byte-identical** (modulo
the wall-clock build profile) to the per-vertex reference build, and
``GCTIndex.compress(parallel TSD) == GCTIndex.build(graph)`` survives
(property-tested in ``tests/test_parallel_build.py``).

Why the results match the per-vertex loop even though the inputs look
different:

* The id pairs are the graph's canonical edge tuples translated to
  insertion positions, so decomposition keys coincide.
* Forest/GCT assembly here passes only *edge-touched* vertices where the
  serial paths pass every ego vertex.  Isolated ego vertices never join
  a forest edge and are skipped by GCT assembly (trussness 0 < 2), and
  filtering a vertex list preserves the relative positions the canonical
  order sorts by — so the assembled structures are identical.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph, Vertex
from repro.graph.egonet import (
    EgoIdEdge,
    all_ego_edge_id_lists,
    ego_edge_id_list,
)
from repro.truss.bitmap_decomposition import bitmap_truss_decomposition
from repro.core.tsd import BuildProfile, ForestEdge, TSDIndex
from repro.util.dsu import DisjointSet
from repro.core.gct import GCTIndex, Supernode, Superedge, assemble_gct
from repro.build.plan import MODE_PARALLEL, BuildPlan

#: Forest on ids: ``(a, b, weight)`` triples, weight-descending.
IdForest = List[Tuple[int, int, int]]

#: Worker shard task: build kind + ``(vid, ego edges)`` items.
_ShardTask = Tuple[str, List[Tuple[int, List[EgoIdEdge]]]]


# ----------------------------------------------------------------------
# Per-ego decomposition on compact ids (runs in workers)
# ----------------------------------------------------------------------
def _ego_tau_items(edges: List[EgoIdEdge]
                   ) -> Tuple[List[int], List[Tuple[EgoIdEdge, int]]]:
    """``(touched vertices sorted, [(edge, trussness), ...])`` of one ego.

    Tiny ego-networks get closed forms: with at most three edges the
    only way any edge reaches trussness 3 is the three of them forming a
    triangle — otherwise the ego is triangle-free and every edge has
    trussness 2.  These cases dominate sparse power-law graphs, and
    skipping the bitmap machinery for them is a measured win.
    """
    ne = len(edges)
    touched = sorted({a for a, _ in edges} | {b for _, b in edges})
    if ne <= 3:
        if ne == 3 and len(touched) == 3:
            return touched, [(e, 3) for e in edges]
        return touched, [(e, 2) for e in edges]
    tau = bitmap_truss_decomposition(touched, edges)
    return touched, list(tau.items())


def _id_msf(touched: List[int],
            tau_items: List[Tuple[EgoIdEdge, int]]) -> IdForest:
    """:func:`~repro.core.tsd.maximum_spanning_forest`, specialised to
    compact ids.

    Ego edges here are ``(a, b)`` pairs with ``a < b`` and ids *are*
    insertion positions, so the canonical Kruskal key
    ``(-tau, internal, pu, pw)`` collapses to ``(-tau, internal, a, b)``
    — no position dict, no per-edge position lookups.  Output is
    tuple-identical to the generic implementation.
    """
    vt = dict.fromkeys(touched, 0)
    for (a, b), tau in tau_items:
        if tau > vt[a]:
            vt[a] = tau
        if tau > vt[b]:
            vt[b] = tau

    def key(item: Tuple[EgoIdEdge, int]):
        (a, b), tau = item
        return (-tau, 0 if vt[a] == tau and vt[b] == tau else 1, a, b)

    dsu: DisjointSet = DisjointSet(touched)
    forest: IdForest = []
    for (a, b), tau in sorted(tau_items, key=key):
        if dsu.union(a, b):
            forest.append((a, b, tau))
    return forest


def _tiny_forest(edges: List[EgoIdEdge]) -> Optional[IdForest]:
    """Closed-form maximum spanning forest for an ego of <= 3 edges.

    Replicates :func:`~repro.core.tsd.maximum_spanning_forest` exactly:
    all weights are equal (2, or 3 for a triangle) and every vertex is
    level-internal, so the canonical Kruskal order reduces to sorting
    the ``(a, b)`` id pairs — and with <= 3 edges the only possible
    cycle is the triangle itself, whose lexicographically last edge is
    the one Kruskal rejects.  Returns ``None`` for larger egos.
    """
    ne = len(edges)
    if ne > 3:
        return None
    ordered = sorted(edges)
    if ne == 3:
        verts = {ordered[0][0], ordered[0][1], ordered[1][0],
                 ordered[1][1], ordered[2][0], ordered[2][1]}
        if len(verts) == 3:  # the triangle: weight 3, third edge cycles
            return [(a, b, 3) for a, b in ordered[:2]]
    return [(a, b, 2) for a, b in ordered]


def _tsd_entry(edges: List[EgoIdEdge]
               ) -> Tuple[IdForest, float, float]:
    """One vertex's forest on ids, plus (decomposition, assembly) secs."""
    if not edges:
        return [], 0.0, 0.0
    t0 = time.perf_counter()
    tiny = _tiny_forest(edges)
    if tiny is not None:
        return tiny, time.perf_counter() - t0, 0.0
    touched, tau_items = _ego_tau_items(edges)
    t1 = time.perf_counter()
    forest = _id_msf(touched, tau_items)
    return forest, t1 - t0, time.perf_counter() - t1


def _gct_entry(edges: List[EgoIdEdge]
               ) -> Tuple[List[Supernode], List[Superedge], float, float]:
    """One vertex's GCT structure on ids, plus phase seconds."""
    if not edges:
        return [], [], 0.0, 0.0
    t0 = time.perf_counter()
    touched, tau_items = _ego_tau_items(edges)
    t1 = time.perf_counter()
    supernodes, superedges = assemble_gct(touched, tau_items)
    return supernodes, superedges, t1 - t0, time.perf_counter() - t1


def _both_entry(edges: List[EgoIdEdge]
                ) -> Tuple[IdForest, List[Supernode], List[Superedge],
                           float, float]:
    """Forest *and* GCT structure from one decomposition.

    The GCT side assembles from the forest — exactly
    :meth:`GCTIndex.compress` semantics, which PR 1 made structurally
    identical to a from-scratch build — so the shared decomposition is
    paid once and the forest's smaller edge set feeds assembly.
    """
    if not edges:
        return [], [], [], 0.0, 0.0
    t0 = time.perf_counter()
    forest = _tiny_forest(edges)
    if forest is None:
        touched, tau_items = _ego_tau_items(edges)
        forest = _id_msf(touched, tau_items)
    t1 = time.perf_counter()
    f_touched = sorted({a for a, _, _ in forest} | {b for _, b, _ in forest})
    supernodes, superedges = assemble_gct(
        f_touched, [((a, b), w) for a, b, w in forest])
    return forest, supernodes, superedges, t1 - t0, time.perf_counter() - t1


def _run_shard(task: _ShardTask) -> Tuple[List[Tuple], float, float]:
    """Decompose one shard (module-level so the pool can pickle it).

    Returns ``(entries, decomposition_seconds, assembly_seconds)`` where
    each entry is ``(vid, ...per-kind payload...)``.
    """
    kind, items = task
    entry_fn = {"tsd": _tsd_entry, "gct": _gct_entry,
                "both": _both_entry}[kind]
    out: List[Tuple] = []
    dec = asm = 0.0
    for vid, edges in items:
        result = entry_fn(edges)
        out.append((vid,) + result[:-2])
        dec += result[-2]
        asm += result[-1]
    return out, dec, asm


def _partition(vids: Sequence[int], buckets: Sequence[List[EgoIdEdge]],
               shards: int) -> List[List[int]]:
    """Deterministic size-balanced vertex shards (greedy by ego size).

    Ego-network sizes are heavy-tailed, so contiguous id ranges would
    leave most workers idle behind one hub-heavy shard.  Greedy
    longest-processing-time assignment balances within ~4/3 of optimal
    and depends only on the ego sizes — never on worker scheduling.
    """
    shards = max(1, min(shards, len(vids)))
    loads = [0] * shards
    assignment: List[List[int]] = [[] for _ in range(shards)]
    for vid in sorted(vids, key=lambda i: (-len(buckets[i]), i)):
        target = min(range(shards), key=lambda s: (loads[s], s))
        assignment[target].append(vid)
        loads[target] += len(buckets[vid]) + 1
    return [sorted(shard) for shard in assignment]


def _pool_context():
    """Fork where it is safe, forkserver where it is not.

    Fork is the cheap choice (workers inherit the interpreter, nothing
    re-imports) but forking a *multi-threaded* process can copy locks in
    a held state and deadlock the child — and the update path runs
    inside the threaded HTTP server.  So fork is only used when this
    process is single-threaded; otherwise forkserver (a clean,
    thread-free template process) or the platform default.  Shard tasks
    are plain ints + module-level functions, so every start method can
    pickle them.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context()


def _dispatch_shards(plan: BuildPlan, kind: str,
                     buckets, vids: Sequence[int]
                     ) -> List[Tuple[List[Tuple], float, float]]:
    """Run ``(vid, buckets[vid])`` items through ``kind``, sharded per
    ``plan`` — the one pool dispatch both full builds and batch repairs
    share.  ``buckets`` is anything indexable by vid."""
    if plan.mode != MODE_PARALLEL or len(vids) <= 1:
        return [_run_shard((kind, [(vid, buckets[vid]) for vid in vids]))]
    shards = _partition(vids, buckets, plan.jobs)
    tasks: List[_ShardTask] = [
        (kind, [(vid, buckets[vid]) for vid in shard])
        for shard in shards if shard]
    if len(tasks) <= 1:
        return [_run_shard(task) for task in tasks]
    if multiprocessing.current_process().daemon:
        # Daemonic processes may not have children (multiprocessing
        # raises mid-spawn, after partial pool setup) — don't try.
        return [_run_shard(task) for task in tasks]
    try:
        with _pool_context().Pool(processes=len(tasks)) as pool:
            return pool.map(_run_shard, tasks)
    except (OSError, RuntimeError, ImportError, AssertionError):
        # No pool to be had here — spawn bootstrap restrictions
        # (unguarded __main__), missing shared memory, interpreter
        # shutdown...  Entry points default to auto-planning, so a
        # build that would previously just run serially must degrade,
        # not crash: the in-process path is byte-identical, just serial.
        return [_run_shard(task) for task in tasks]


class ParallelIndexBuilder:
    """Shared-pass index construction with an optional worker pool.

    Parameters
    ----------
    graph:
        The graph to index.
    jobs:
        Worker request forwarded to :meth:`BuildPlan.decide` (``0`` =
        auto).  Ignored when ``plan`` is given.
    plan:
        An explicit :class:`BuildPlan`, overriding the heuristic — the
        equivalence tests force ``parallel`` on tiny graphs this way.

    The one extraction pass is cached, so :meth:`build_tsd` followed by
    :meth:`build_gct` pays for it once; :meth:`build_both` additionally
    shares the decomposition between the two indexes.

    Examples
    --------
    >>> from repro.datasets.paper import figure1_graph
    >>> index = ParallelIndexBuilder(figure1_graph(), jobs=1).build_tsd()
    >>> index.score("v", 4)
    3
    """

    def __init__(self, graph: Graph, jobs: int = 0,
                 plan: Optional[BuildPlan] = None) -> None:
        if plan is None:
            plan = BuildPlan.decide(graph.num_edges, jobs)
        self._graph = graph
        self.plan = plan
        self._labels: Optional[List[Vertex]] = None
        self._buckets: Optional[List[List[EgoIdEdge]]] = None
        self._extraction_seconds = 0.0

    # ------------------------------------------------------------------
    # Stage 1: the shared pass (cached across build_* calls)
    # ------------------------------------------------------------------
    def _extract(self) -> Tuple[List[Vertex], List[List[EgoIdEdge]]]:
        if self._buckets is None:
            start = time.perf_counter()
            self._labels, self._buckets = all_ego_edge_id_lists(self._graph)
            self._extraction_seconds = time.perf_counter() - start
        return self._labels, self._buckets

    # ------------------------------------------------------------------
    # Stage 2: sharded decomposition
    # ------------------------------------------------------------------
    def _decompose(self, kind: str) -> Tuple[Dict[int, Tuple], float, float]:
        """Run every vertex through ``kind``; returns (by-vid, dec, asm)."""
        labels, buckets = self._extract()
        outputs = _dispatch_shards(self.plan, kind, buckets,
                                   list(range(len(labels))))
        by_vid: Dict[int, Tuple] = {}
        dec = asm = 0.0
        for entries, shard_dec, shard_asm in outputs:
            dec += shard_dec
            asm += shard_asm
            for entry in entries:
                by_vid[entry[0]] = entry[1:]
        return by_vid, dec, asm

    def _profile(self, dec: float, asm: float) -> BuildProfile:
        """Phase timings: extraction is parent wall-clock; decomposition
        and assembly are summed across shards (CPU seconds — for a
        parallel build they can exceed the build's wall-clock)."""
        return BuildProfile(extraction_seconds=self._extraction_seconds,
                            decomposition_seconds=dec,
                            assembly_seconds=asm)

    # ------------------------------------------------------------------
    # Stage 3: merge, back onto labels
    # ------------------------------------------------------------------
    def _label_forests(self, by_vid: Dict[int, Tuple]
                       ) -> Dict[Vertex, List[ForestEdge]]:
        labels = self._labels
        return {
            labels[vid]: [(labels[a], labels[b], w)
                          for a, b, w in by_vid[vid][0]]
            for vid in range(len(labels))
        }

    def _label_gct(self, by_vid: Dict[int, Tuple], slot: int
                   ) -> Tuple[Dict[Vertex, List[Supernode]],
                              Dict[Vertex, List[Superedge]]]:
        labels = self._labels
        supernodes: Dict[Vertex, List[Supernode]] = {}
        superedges: Dict[Vertex, List[Superedge]] = {}
        for vid in range(len(labels)):
            entry = by_vid[vid]
            supernodes[labels[vid]] = [
                (tau, tuple(labels[m] for m in members))
                for tau, members in entry[slot]]
            # Superedges index the supernode list — no ids to translate.
            superedges[labels[vid]] = list(entry[slot + 1])
        return supernodes, superedges

    def build_tsd(self) -> TSDIndex:
        """The TSD-index, byte-identical to :meth:`TSDIndex.build`."""
        by_vid, dec, asm = self._decompose("tsd")
        return TSDIndex(self._label_forests(by_vid), list(self._labels),
                        self._profile(dec, asm))

    def build_gct(self) -> GCTIndex:
        """The GCT-index, byte-identical to :meth:`GCTIndex.build`."""
        by_vid, dec, asm = self._decompose("gct")
        supernodes, superedges = self._label_gct(by_vid, 0)
        return GCTIndex(supernodes, superedges, list(self._labels),
                        self._profile(dec, asm))

    def build_both(self) -> Tuple[TSDIndex, GCTIndex]:
        """TSD and GCT from ONE extraction and ONE decomposition.

        The cold-start pair every service snapshot needs.  Matches the
        serial ``TSDIndex.build`` + ``GCTIndex.compress`` path exactly —
        including the GCT index carrying no build profile, as a
        compressed index never does.
        """
        by_vid, dec, asm = self._decompose("both")
        tsd = TSDIndex(self._label_forests(by_vid), list(self._labels),
                       self._profile(dec, asm))
        supernodes, superedges = self._label_gct(by_vid, 1)
        return tsd, GCTIndex(supernodes, superedges, list(self._labels))


# ----------------------------------------------------------------------
# Functional entry points
# ----------------------------------------------------------------------
def build_tsd_index(graph: Graph, jobs: int = 0,
                    plan: Optional[BuildPlan] = None) -> TSDIndex:
    """Build a TSD-index under a :class:`BuildPlan` (``jobs=0`` auto)."""
    return ParallelIndexBuilder(graph, jobs, plan).build_tsd()


def build_gct_index(graph: Graph, jobs: int = 0,
                    plan: Optional[BuildPlan] = None) -> GCTIndex:
    """Build a GCT-index under a :class:`BuildPlan` (``jobs=0`` auto)."""
    return ParallelIndexBuilder(graph, jobs, plan).build_gct()


def build_indexes(graph: Graph, jobs: int = 0,
                  plan: Optional[BuildPlan] = None
                  ) -> Tuple[TSDIndex, GCTIndex]:
    """Build the (TSD, GCT) pair a serving snapshot needs, sharing one
    extraction and one decomposition across both indexes."""
    return ParallelIndexBuilder(graph, jobs, plan).build_both()


def repair_forests(graph: Graph, vertices: Sequence[Vertex],
                   plan: Optional[BuildPlan] = None, *,
                   labels: Optional[List[Vertex]] = None,
                   ids: Optional[Dict[Vertex, int]] = None
                   ) -> Dict[Vertex, List[ForestEdge]]:
    """Rebuild the TSD forests of ``vertices`` only (the update path).

    Extraction here is per-vertex (a global pass would charge the whole
    graph for a handful of dirty ego-networks), but decomposition uses
    the same compact-id pipeline as full builds and fans out to the pool
    for large affected sets — the batch counterpart of
    :mod:`repro.service.updates`' one-ego-at-a-time repair.  Outputs are
    byte-identical to the serial ``ego_network`` +
    ``truss_decomposition`` + ``maximum_spanning_forest`` chain.

    The plan is decided on the affected ego volume, not the graph
    size, so a usual small batch stays in-process; ``plan`` overrides
    it (the pool-equality tests force a pool this way).  ``labels`` /
    ``ids`` (the graph's insertion order and its inverse) may be passed
    by callers that already hold them — the update path does — so a
    small batch on a huge graph does not pay an O(|V|) remap here.
    """
    if labels is None:
        labels = list(graph.vertices())
    if ids is None:
        ids = {v: i for i, v in enumerate(labels)}
    targets = [v for v in vertices if v in graph]
    ego_lists = {v: ego_edge_id_list(graph, ids, v) for v in targets}
    if plan is None:
        plan = BuildPlan.decide(sum(map(len, ego_lists.values())))
    vid_of = {ids[v]: v for v in targets}
    buckets: Dict[int, List[EgoIdEdge]] = {
        ids[v]: ego_lists[v] for v in targets}
    outputs = _dispatch_shards(plan, "tsd", buckets, sorted(buckets))
    forests: Dict[Vertex, List[ForestEdge]] = {}
    for entries, _, _ in outputs:
        for vid, forest in entries:
            forests[vid_of[vid]] = [(labels[a], labels[b], w)
                                    for a, b, w in forest]
    return forests
