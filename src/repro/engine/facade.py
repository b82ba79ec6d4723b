"""The :class:`QueryEngine` facade: one entry point, five methods.

The library exposes the paper's methods as five disconnected entry
points (``online_search``, ``bound_search``, ``TSDIndex``, ``GCTIndex``,
``HybridSearcher``).  A service answering heavy repeated traffic needs
exactly one: *give me the top-r for (k, r), as cheaply as possible* —
and all five return identical ranked answers under the canonical
ranking contract of :mod:`repro.core.results`, so the choice is purely
a matter of cost.  The engine:

* owns the graph plus **lazily built, cached indexes** (TSD, GCT,
  hybrid rankings) — built at most once, reused by every later query;
* routes ``method="auto"`` through the cost-based
  :class:`~repro.engine.planner.QueryPlanner` (explicit method names
  override it);
* memoises each threshold's ranked positive rows (the GCT score
  postings in canonical order) in an LRU
  (:class:`~repro.engine.cache.ScoreMapCache`) shared across single
  queries and batch items, and completes an answer past them with
  zero-score vertices off the index — O(postings_k + r) per miss;
* answers batches through :func:`repro.engine.batch.execute_batch`,
  which plans once for the whole batch and reuses the cache across
  items.

Examples
--------
>>> from repro.datasets.paper import figure1_graph
>>> from repro.engine import QueryEngine
>>> engine = QueryEngine(figure1_graph())
>>> result = engine.top_r(4, 1)
>>> result.vertices, result.scores
(['v'], [3])
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.graph.graph import Graph, Vertex
from repro.core.online import online_search
from repro.core.bound import bound_search
from repro.core.diversity import structural_diversity
from repro.core.results import SearchResult, build_entries
from repro.core.tsd import TSDIndex
from repro.core.gct import GCTIndex
from repro.core.hybrid import HybridSearcher
from repro.engine.cache import ScoreMapCache
from repro.engine.planner import EngineConfig, PlanDecision, QueryPlanner

#: Method names accepted by :meth:`QueryEngine.top_r`.
ENGINE_METHODS = ("auto", "baseline", "bound", "tsd", "gct", "hybrid")

#: How many of the latest planner decisions an engine keeps (one is made
#: per ``method="auto"`` query, and every :meth:`QueryEngine.stats` call
#: copies them); the counters beside them are running totals.
RECENT_DECISIONS = 256


@dataclass
class EngineStats:
    """A snapshot of what the engine has done so far."""

    queries: int = 0
    batches: int = 0
    point_lookups: int = 0
    method_counts: Dict[str, int] = field(default_factory=dict)
    #: The latest planner decisions (at most :data:`RECENT_DECISIONS`),
    #: oldest first; ``decisions_total`` counts every one ever made.
    decisions: List[PlanDecision] = field(default_factory=list)
    decisions_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cached_thresholds: List[int] = field(default_factory=list)
    index_build_seconds: Dict[str, float] = field(default_factory=dict)
    warm_loaded: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """Multi-line human-readable report (``repro engine-stats``)."""
        lines = [
            f"queries served:    {self.queries} "
            f"({self.batches} batches, {self.point_lookups} point lookups)",
            "methods used:      " + (", ".join(
                f"{m}={n}" for m, n in sorted(self.method_counts.items()))
                or "-"),
            f"score-map cache:   {self.cache_hits} hits / "
            f"{self.cache_misses} misses "
            f"(thresholds cached: {self.cached_thresholds or '-'})",
            "indexes built:     " + (", ".join(
                f"{name} in {seconds:.4f}s"
                for name, seconds in sorted(self.index_build_seconds.items()))
                or "none"),
            "warm-started:      " + (", ".join(self.warm_loaded)
                                     if self.warm_loaded else "no"),
        ]
        if self.decisions:
            lines.append(f"planner decisions ({self.decisions_total}):")
            first = self.decisions_total - len(self.decisions)
            lines.extend(f"  [{i}] {d.method}: {d.reason}"
                         for i, d in enumerate(self.decisions, first))
        return "\n".join(lines)


class QueryEngine:
    """Unified facade over every top-r structural diversity method.

    Parameters
    ----------
    graph:
        The graph to serve queries on.  The engine assumes it is not
        mutated behind its back; call :meth:`invalidate` after changing
        it.
    config:
        Planner/cache tunables (:class:`EngineConfig`); defaults match
        a small-service profile.
    warm_start:
        Optional :class:`~repro.service.store.IndexStore` (or a path to
        one) holding persisted index artifacts.  When the store knows
        this graph's content, the engine serves from the stored indexes
        — zero build seconds, rank-identical answers.  Artifacts are
        deserialized lazily, on the first access of each index, so a
        workload that only ever touches GCT never pays for parsing the
        TSD or hybrid artifacts.  An unknown graph falls back to a cold
        start (the store can be seeded later with :meth:`persist`).

    Examples
    --------
    >>> from repro.datasets.paper import figure1_graph
    >>> engine = QueryEngine(figure1_graph())
    >>> [r.scores for r in engine.top_r_many([(4, 1), (3, 2)])]
    [[3], [2, 1]]
    """

    def __init__(self, graph: Graph,
                 config: Optional[EngineConfig] = None,
                 warm_start=None) -> None:
        self._graph = graph
        self.config = config or EngineConfig()
        self.planner = QueryPlanner(self.config)
        self._cache = ScoreMapCache(self.config.score_cache_size)
        self._tsd: Optional[TSDIndex] = None
        self._gct: Optional[GCTIndex] = None
        self._hybrid: Optional[HybridSearcher] = None
        self._queries = 0
        self._batches = 0
        self._point_lookups = 0
        self._method_counts: Dict[str, int] = {}
        self._decisions: Deque[PlanDecision] = deque(
            maxlen=RECENT_DECISIONS)
        self._decisions_total = 0
        self._build_seconds: Dict[str, float] = {}
        self._warm_loaded: List[str] = []
        self._warm_source = None
        self._warm_key: Optional[str] = None
        if warm_start is not None:
            self._warm_attach(warm_start)

    def _warm_attach(self, warm_start) -> None:
        """Bind stored artifacts so index accesses load, not build."""
        # Imported lazily: repro.service sits on top of the engine.
        from repro.service.store import IndexStore, graph_fingerprint
        store = (warm_start if isinstance(warm_start, IndexStore)
                 else IndexStore(warm_start))
        # Fingerprint once: every later store call reuses the key
        # instead of re-hashing the whole edge list.
        key = graph_fingerprint(self._graph)
        if not store.has(self._graph, key=key):
            return  # cold start; persist() can seed the store later
        self._warm_source = store
        self._warm_key = key
        self._warm_loaded = store.current(self._graph,
                                          key=key).artifact_names

    def _load_stored(self, name: str) -> bool:
        """Deserialize one stored artifact into the engine, if bound.

        Returns ``True`` when the index attribute was populated from
        the store — the caller then skips its build path entirely.
        """
        if self._warm_source is None or name not in self._warm_loaded:
            return False
        loaded = self._warm_source.load(self._graph, names=[name],
                                        key=self._warm_key)
        obj = getattr(loaded, name)
        if obj is None:
            return False
        setattr(self, {"tsd": "_tsd", "gct": "_gct",
                       "hybrid": "_hybrid"}[name], obj)
        return True

    # ------------------------------------------------------------------
    # Owned state: graph and lazily built indexes
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The graph this engine serves."""
        return self._graph

    @property
    def tsd_index(self) -> TSDIndex:
        """The TSD-index, built on first access and cached.

        Construction runs the auto-planned :mod:`repro.build` pipeline;
        the measured seconds — of whatever strategy actually ran —
        recalibrate the planner's build-versus-scan break-even.
        """
        if self._tsd is None and not self._load_stored("tsd"):
            from repro.build import build_tsd_index
            start = time.perf_counter()
            self._tsd = build_tsd_index(self._graph)
            self._build_seconds["tsd"] = time.perf_counter() - start
            self.planner.observe_build("tsd", self._build_seconds["tsd"])
        return self._tsd

    @property
    def gct_index(self) -> GCTIndex:
        """The GCT-index, built on first access and cached.

        When a TSD-index already exists it is *compressed* instead of
        rebuilding from the graph — structurally identical (canonical
        Kruskal order) and cheaper than re-extracting every ego-network.
        """
        if self._gct is None and not self._load_stored("gct"):
            if self._tsd is None:
                # A stored TSD still beats re-decomposing every ego.
                self._load_stored("tsd")
            start = time.perf_counter()
            if self._tsd is not None:
                self._gct = GCTIndex.compress(self._tsd)
            else:
                from repro.build import build_gct_index
                self._gct = build_gct_index(self._graph)
            self._build_seconds["gct"] = time.perf_counter() - start
            self.planner.observe_build("gct", self._build_seconds["gct"])
        return self._gct

    @property
    def hybrid_searcher(self) -> HybridSearcher:
        """The hybrid per-``k`` rankings, built on first access."""
        if self._hybrid is None and not self._load_stored("hybrid"):
            start = time.perf_counter()
            self._hybrid = HybridSearcher.precompute(
                self._graph, index=self.tsd_index)
            self._build_seconds["hybrid"] = time.perf_counter() - start
            self.planner.observe_build("hybrid", self._build_seconds["hybrid"])
        return self._hybrid

    def invalidate(self) -> None:
        """Drop all indexes and cached rankings (graph was mutated).

        The planner's cost calibration survives — measured build and
        query costs describe the hardware and graph scale, which a
        mutation does not meaningfully change.  For *fine-grained*
        invalidation (only affected thresholds dropped, indexes patched
        instead of discarded) serve through
        :class:`repro.service.DiversityService` instead.
        """
        self._tsd = None
        self._gct = None
        self._hybrid = None
        self._warm_loaded = []
        self._warm_source = None  # stored artifacts are stale too
        self._warm_key = None
        self._cache.clear()

    # ------------------------------------------------------------------
    # Persistence and snapshot hand-off (the service layer's hooks)
    # ------------------------------------------------------------------
    def persist(self, store, artifacts: Sequence[str] = ("tsd", "gct",
                                                         "hybrid")):
        """Build (at most once) and persist index artifacts to a store.

        ``store`` is an :class:`~repro.service.store.IndexStore` or a
        path to one.  Returns the new
        :class:`~repro.service.store.StoreVersion`, so a later engine
        on the same graph content can pass the store as ``warm_start=``
        and skip every build.
        """
        from repro.service.store import IndexStore
        if not isinstance(store, IndexStore):
            store = IndexStore(store)
        known = {"tsd": lambda: self.tsd_index,
                 "gct": lambda: self.gct_index,
                 "hybrid": lambda: self.hybrid_searcher}
        unknown = [name for name in artifacts if name not in known]
        if unknown:
            raise InvalidParameterError(
                f"unknown artifacts {unknown}; expected a subset of "
                f"{sorted(known)}")
        return store.put(self._graph,
                         **{name: known[name]() for name in artifacts})

    def snapshot(self):
        """An immutable :class:`~repro.service.snapshot.Snapshot` of the
        engine's current state: a private graph copy, the GCT index
        (ensured — loaded, compressed or built now, never during a
        reader's query), and the live ranking cache entries.

        The hand-off is one-way: the snapshot serves concurrent readers
        lock-free while the engine remains free to mutate and rebuild.
        """
        from repro.service.snapshot import Snapshot
        return Snapshot(self._graph, gct=self.gct_index,
                        scores=self._cache.entries())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def top_r(self, k: int, r: int, method: str = "auto",
              collect_contexts: bool = True) -> SearchResult:
        """Top-r structural diversity search through the planner.

        ``method="auto"`` lets the cost-based planner pick; any explicit
        method name from :data:`ENGINE_METHODS` overrides it.  All
        methods return the same canonically ranked answer — only the
        cost differs.
        """
        self._check_query(k, r)
        resolved = self._resolve(method, batch_size=1)
        result = self._serve(k, r, resolved, collect_contexts)
        self._queries += 1
        return result

    def top_r_many(self, queries: Sequence[Tuple[int, int]],
                   method: str = "auto",
                   collect_contexts: bool = True) -> List[SearchResult]:
        """Answer a batch of ``(k, r)`` queries, amortising shared work.

        The planner decides once for the whole batch; items sharing a
        threshold ``k`` reuse one cached ranking.  Results come back in
        input order.
        """
        from repro.engine.batch import execute_batch
        return execute_batch(self, queries, method=method,
                             collect_contexts=collect_contexts)

    def score(self, v: Vertex, k: int) -> int:
        """``score(v)`` at threshold ``k``, from the cheapest source.

        A built index answers (GCT: Lemma 3, two bisects); only an
        engine that has built nothing yet falls back to the
        from-scratch Algorithm 2 (a point lookup alone does not justify
        an index).  Point lookups never touch the ranking cache or its
        hit/miss counters.
        """
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        if v not in self._graph:
            raise InvalidParameterError(
                f"vertex {v!r} is not in the engine's graph")
        self._point_lookups += 1
        if self._gct is not None:
            return self._gct.score(v, k)
        if self._tsd is not None:
            return self._tsd.score(v, k)
        return structural_diversity(self._graph, v, k)

    def stats(self) -> EngineStats:
        """A snapshot of queries, planner decisions, cache and builds."""
        return EngineStats(
            queries=self._queries,
            batches=self._batches,
            point_lookups=self._point_lookups,
            method_counts=dict(self._method_counts),
            decisions=list(self._decisions),
            decisions_total=self._decisions_total,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            cached_thresholds=self._cache.cached_thresholds(),
            index_build_seconds=dict(self._build_seconds),
            warm_loaded=list(self._warm_loaded),
        )

    # ------------------------------------------------------------------
    # Internals (also used by the batch executor)
    # ------------------------------------------------------------------
    @staticmethod
    def _check_query(k: int, r: int) -> None:
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        if r < 1:
            raise InvalidParameterError(f"r must be >= 1, got {r}")

    def _resolve(self, method: str, batch_size: int) -> str:
        """Map ``method`` to a concrete method name, consulting the
        planner for ``"auto"`` and recording its decision."""
        if method not in ENGINE_METHODS:
            raise InvalidParameterError(
                f"unknown method {method!r}; expected one of {ENGINE_METHODS}")
        if method != "auto":
            return method
        decision = self.planner.choose(
            num_edges=self._graph.num_edges,
            queries_seen=self._queries,
            batch_size=batch_size,
            # A TSD index counts too (GCT compresses from it cheaply),
            # as do stored tsd/gct artifacts pending a lazy warm load —
            # but not a stored hybrid alone, which cannot produce a GCT
            # without a full build.
            index_ready=(self._gct is not None or self._tsd is not None
                         or bool({"tsd", "gct"} & set(self._warm_loaded))),
        )
        self._decisions.append(decision)
        self._decisions_total += 1
        return decision.method

    def _serve(self, k: int, r: int, method: str,
               collect_contexts: bool) -> SearchResult:
        """Run one concrete method (no planning, no query counting).

        Every served query's wall-clock cost is reported back to the
        planner, which uses the measurements to calibrate its
        index-versus-online break-even (index builds triggered inside
        the call are charged separately via ``observe_build``, not to
        the query that happened to trigger them).
        """
        self._method_counts[method] = self._method_counts.get(method, 0) + 1
        builds_before = sum(self._build_seconds.values())
        start = time.perf_counter()
        result = self._dispatch(k, r, method, collect_contexts)
        elapsed = time.perf_counter() - start
        elapsed -= sum(self._build_seconds.values()) - builds_before
        self.planner.observe_query(method, max(elapsed, 0.0))
        return result

    def _dispatch(self, k: int, r: int, method: str,
                  collect_contexts: bool) -> SearchResult:
        if method == "baseline":
            return online_search(self._graph, k, r,
                                 collect_contexts=collect_contexts)
        if method == "bound":
            return bound_search(self._graph, k, r,
                                collect_contexts=collect_contexts)
        if method == "tsd":
            return self.tsd_index.top_r(k, r,
                                        collect_contexts=collect_contexts)
        if method == "hybrid":
            return self.hybrid_searcher.top_r(
                k, r, collect_contexts=collect_contexts)
        return self._serve_from_gct(k, r, collect_contexts)

    def _serve_from_gct(self, k: int, r: int,
                        collect_contexts: bool) -> SearchResult:
        """GCT answer through the per-``k`` ranking cache.

        On a cache miss the engine reads the threshold's ranked positive
        rows off the index's score postings
        (:meth:`GCTIndex.positive_ranking`) and memoises them; on a hit
        they are the cached list.  The answer is their first ``r`` rows,
        completed past them with zero-score vertices by
        :meth:`GCTIndex.zero_filled`.  ``search_space`` reports the
        vertices scored: ``|V|`` on a miss, 0 on a hit.
        """
        start = time.perf_counter()
        ranked = self._cache.get(k)
        n = self._graph.num_vertices
        if ranked is None:
            ranked = self.gct_index.positive_ranking(k)
            self._cache.put(k, ranked)
            search_space = n
        else:
            search_space = 0
        answer = self.gct_index.zero_filled(k, ranked, r)
        entries = build_entries(
            answer, lambda v: self.gct_index.contexts(v, k),
            collect_contexts)
        return SearchResult(
            method="GCT", k=k, r=min(r, max(n, 1)),
            entries=entries, search_space=search_space,
            elapsed_seconds=time.perf_counter() - start,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        built = [name for name, obj in (("tsd", self._tsd), ("gct", self._gct),
                                        ("hybrid", self._hybrid))
                 if obj is not None]
        return (f"QueryEngine(|V|={self._graph.num_vertices}, "
                f"|E|={self._graph.num_edges}, "
                f"indexes={built or 'none'}, queries={self._queries})")
