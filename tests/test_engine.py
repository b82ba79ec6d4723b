"""Tests for the query engine: facade, planner, cache, batching."""

import pytest

from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.core.online import online_search
from repro.engine import (
    ENGINE_METHODS,
    EngineConfig,
    PlanDecision,
    QueryEngine,
    QueryPlanner,
    ScoreMapCache,
)


def _ranked(result):
    return [(entry.vertex, entry.score) for entry in result.entries]


class TestPlanner:
    def _planner(self, **overrides):
        return QueryPlanner(EngineConfig(**overrides))

    def test_one_shot_small_graph_goes_online(self):
        decision = self._planner(small_graph_edges=100).choose(
            num_edges=50, queries_seen=0, batch_size=1, index_ready=False)
        assert decision.method == "baseline"

    def test_one_shot_large_graph_goes_bound(self):
        decision = self._planner(small_graph_edges=100).choose(
            num_edges=50_000, queries_seen=0, batch_size=1, index_ready=False)
        assert decision.method == "bound"

    def test_repeated_traffic_builds_index(self):
        decision = self._planner(index_reuse_threshold=2).choose(
            num_edges=50, queries_seen=1, batch_size=1, index_ready=False)
        assert decision.method == "gct"

    def test_batches_build_index(self):
        decision = self._planner().choose(
            num_edges=50, queries_seen=0, batch_size=8, index_ready=False)
        assert decision.method == "gct"

    def test_built_index_always_wins(self):
        decision = self._planner(small_graph_edges=10**9).choose(
            num_edges=5, queries_seen=0, batch_size=1, index_ready=True)
        assert decision.method == "gct"

    def test_decisions_carry_reasons(self):
        decision = self._planner().choose(
            num_edges=5, queries_seen=0, batch_size=1, index_ready=False)
        assert isinstance(decision, PlanDecision) and decision.reason

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            EngineConfig(index_reuse_threshold=0)
        with pytest.raises(InvalidParameterError):
            EngineConfig(score_cache_size=0)
        with pytest.raises(InvalidParameterError):
            EngineConfig(small_graph_edges=-1)


class TestPlannerCalibration:
    """Measured build/query seconds refine the static thresholds."""

    def _calibrated(self, *, build=0.040, online=0.010, index=0.0,
                    online_method="baseline"):
        planner = QueryPlanner(EngineConfig())
        planner.observe_build("gct", build)
        planner.observe_query(online_method, online)
        if index:
            planner.observe_query("gct", index)
        return planner

    def test_uncalibrated_until_both_costs_measured(self):
        planner = QueryPlanner(EngineConfig())
        assert not planner.is_calibrated
        planner.observe_query("baseline", 0.010)
        assert not planner.is_calibrated      # no build measured yet
        planner.observe_build("gct", 0.040)
        assert planner.is_calibrated

    def test_break_even_is_build_over_saving(self):
        # 0.040s build / (0.010s online - 0.002s index) = 5 queries.
        planner = self._calibrated(build=0.040, online=0.010, index=0.002)
        assert planner.break_even_queries() == 5

    def test_decision_boundary_pinned(self):
        """The planner flips to the index exactly at the break-even."""
        planner = self._calibrated(build=0.040, online=0.010)  # BE = 4
        assert planner.break_even_queries() == 4
        below = planner.choose(num_edges=100, queries_seen=2, batch_size=1)
        at = planner.choose(num_edges=100, queries_seen=3, batch_size=1)
        assert below.method == "baseline" and "break-even" in below.reason
        assert at.method == "gct" and "calibrated" in at.reason

    def test_batch_counts_towards_break_even(self):
        planner = self._calibrated(build=0.040, online=0.010)  # BE = 4
        assert planner.choose(num_edges=100, queries_seen=0,
                              batch_size=3).method == "baseline"
        assert planner.choose(num_edges=100, queries_seen=0,
                              batch_size=4).method == "gct"

    def test_measured_bound_beats_measured_baseline(self):
        planner = self._calibrated(build=1.0, online=0.010)
        planner.observe_query("bound", 0.004)
        decision = planner.choose(num_edges=100, queries_seen=0,
                                  batch_size=1)
        assert decision.method == "bound"

    def test_tsd_build_charged_on_the_compress_path(self):
        planner = QueryPlanner(EngineConfig())
        planner.observe_build("tsd", 0.030)
        planner.observe_build("gct", 0.010)
        planner.observe_query("baseline", 0.010)
        assert planner.measured_build_seconds() == pytest.approx(0.040)
        assert planner.break_even_queries() == 4

    def test_never_index_when_marginal_query_not_cheaper(self):
        planner = self._calibrated(build=0.040, online=0.010, index=0.020)
        assert planner.break_even_queries() is None
        decision = planner.choose(num_edges=100, queries_seen=1000,
                                  batch_size=50)
        assert decision.method == "baseline"
        assert "no build pays off" in decision.reason

    def test_built_index_still_always_wins(self):
        planner = self._calibrated(build=0.040, online=0.010)
        assert planner.choose(num_edges=100, queries_seen=0, batch_size=1,
                              index_ready=True).method == "gct"

    def test_engine_feeds_planner_observations(self, figure1):
        engine = QueryEngine(figure1)
        engine.top_r(4, 1, method="baseline")
        assert engine.planner.measured_query_seconds("baseline") is not None
        engine.top_r(4, 1, method="gct")   # triggers tsd/gct-free build
        assert engine.planner.measured_build_seconds() is not None
        assert engine.planner.is_calibrated

    def test_calibration_survives_invalidate(self, figure1):
        engine = QueryEngine(figure1)
        engine.top_r(4, 1, method="baseline")
        engine.top_r(4, 1, method="gct")
        engine.invalidate()
        assert engine.planner.is_calibrated
        decision = engine.planner.choose(
            num_edges=figure1.num_edges, queries_seen=2, batch_size=1)
        assert "calibrated" in decision.reason


class TestScoreMapCache:
    def test_lru_eviction(self):
        cache = ScoreMapCache(maxsize=2)
        cache.put(2, [("a", 1)])
        cache.put(3, [("a", 2)])
        assert cache.get(2) is not None      # refresh 2
        cache.put(4, [("a", 3)])             # evicts 3
        assert 3 not in cache and 2 in cache and 4 in cache

    def test_hit_miss_accounting(self):
        cache = ScoreMapCache(maxsize=2)
        assert cache.get(5) is None
        cache.put(5, [])                     # no positive row is an entry
        assert cache.get(5) == []
        assert cache.hits == 1 and cache.misses == 1

    def test_maxsize_validation(self):
        with pytest.raises(InvalidParameterError):
            ScoreMapCache(maxsize=0)


class TestEngineAnswers:
    def test_every_method_matches_baseline(self, figure1):
        engine = QueryEngine(figure1)
        for method in ENGINE_METHODS:
            for k, r in ((2, 3), (3, 5), (4, 1)):
                expected = _ranked(online_search(figure1, k, r))
                assert _ranked(engine.top_r(k, r, method=method)) == expected, \
                    (method, k, r)

    def test_auto_on_paper_example(self, figure1):
        engine = QueryEngine(figure1)
        result = engine.top_r(4, 1, method="auto")
        assert result.vertices == ["v"] and result.scores == [3]

    def test_contexts_served_from_index(self, figure1):
        engine = QueryEngine(figure1)
        result = engine.top_r(4, 1, method="gct")
        assert set(result.entries[0].contexts) == {
            frozenset({"x1", "x2", "x3", "x4"}),
            frozenset({"y1", "y2", "y3", "y4"}),
            frozenset({"r1", "r2", "r3", "r4", "r5", "r6"})}

    def test_unknown_method_rejected(self, figure1):
        with pytest.raises(InvalidParameterError):
            QueryEngine(figure1).top_r(3, 1, method="quantum")

    def test_query_validation(self, figure1):
        engine = QueryEngine(figure1)
        with pytest.raises(InvalidParameterError):
            engine.top_r(1, 1)
        with pytest.raises(InvalidParameterError):
            engine.top_r(3, 0)

    def test_r_capped_at_n(self, triangle):
        engine = QueryEngine(triangle)
        assert len(engine.top_r(3, 100, method="gct").entries) == 3


class TestEngineCaching:
    def test_second_query_hits_cache(self, figure1):
        engine = QueryEngine(figure1)
        first = engine.top_r(4, 2, method="gct")
        second = engine.top_r(4, 5, method="gct")
        stats = engine.stats()
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert first.search_space == figure1.num_vertices
        assert second.search_space == 0  # served from the cached ranking

    def test_indexes_built_lazily_and_once(self, figure1):
        engine = QueryEngine(figure1)
        assert engine.stats().index_build_seconds == {}
        index = engine.gct_index
        assert engine.gct_index is index
        assert "gct" in engine.stats().index_build_seconds

    def test_gct_compressed_from_existing_tsd(self, figure1):
        engine = QueryEngine(figure1)
        tsd = engine.tsd_index
        gct = engine.gct_index  # compressed, not rebuilt
        for v in figure1.vertices():
            assert gct.score(v, 4) == tsd.score(v, 4)

    def test_invalidate_drops_state(self, figure1):
        engine = QueryEngine(figure1)
        engine.top_r(4, 2, method="gct")
        engine.graph.add_edge("v", "new-vertex")
        engine.invalidate()
        result = engine.top_r(4, 1, method="gct")
        assert result.vertices == ["v"]
        assert engine.stats().cached_thresholds == [4]

    def test_auto_uses_existing_tsd_index(self, figure1):
        """A built TSD index counts as index_ready for the planner —
        GCT compresses from it cheaply, so auto must not rescan."""
        engine = QueryEngine(figure1)
        engine.tsd_index  # force the build
        engine.top_r(4, 1, method="auto")
        assert engine.stats().decisions[-1].method == "gct"

    def test_point_lookups_leave_the_cache_counters(self, figure1):
        """Point lookups are Lemma 3 on the index, not memo reads: with
        or without a memo entry they count neither a hit nor a miss."""
        engine = QueryEngine(figure1)
        engine.score("v", 4)                     # nothing cached
        engine.top_r(4, 1, method="gct")         # one miss, memoises k=4
        engine.score("v", 4)                     # k=4 memoised
        engine.score("v", 3)                     # k=3 not memoised
        stats = engine.stats()
        assert (stats.cache_hits, stats.cache_misses) == (0, 1)
        assert stats.point_lookups == 3

    def test_score_uses_cheapest_source(self, figure1):
        engine = QueryEngine(figure1)
        assert engine.score("v", 4) == 3        # no index: Algorithm 2
        engine.top_r(4, 1, method="gct")
        assert engine.score("v", 4) == 3        # Lemma 3 on the GCT
        assert engine.stats().point_lookups == 2

    def test_score_validation(self, figure1):
        engine = QueryEngine(figure1)
        with pytest.raises(InvalidParameterError, match="ghost"):
            engine.score("ghost", 4)
        with pytest.raises(InvalidParameterError):
            engine.score("v", 1)


class TestBatching:
    def test_results_in_input_order(self, figure1):
        queries = [(4, 1), (2, 3), (4, 5), (3, 2)]
        engine = QueryEngine(figure1)
        results = engine.top_r_many(queries)
        for (k, r), result in zip(queries, results):
            assert result.k == k
            assert _ranked(result) == _ranked(online_search(figure1, k, r))

    def test_batch_shares_score_maps(self, figure1):
        engine = QueryEngine(figure1)
        engine.top_r_many([(4, 1), (4, 2), (4, 3), (3, 1), (3, 2)])
        stats = engine.stats()
        assert stats.cache_misses == 2          # one per distinct k
        assert stats.cache_hits == 3
        assert stats.batches == 1 and stats.queries == 5

    @pytest.mark.parametrize("dataset", ["wiki-vote", "email-enron"])
    def test_repeated_workload_matches_online_on_gct_and_auto(self, dataset):
        """A repeated-traffic batch (three thresholds, repeated ``r``
        sweeps) answered by the engine forced to GCT and by the planner
        equals a fresh online search per query, entry for entry."""
        from repro.datasets.registry import load_dataset
        graph = load_dataset(dataset)
        workload = [(k, r) for _ in range(3) for k in (3, 4, 5)
                    for r in (1, 10, 50)]
        online = {(k, r): _ranked(online_search(graph, k, r,
                                                collect_contexts=False))
                  for k, r in set(workload)}
        expected = [online[query] for query in workload]
        for method in ("gct", "auto"):
            engine = QueryEngine(graph)
            results = engine.top_r_many(workload, method=method,
                                        collect_contexts=False)
            assert [_ranked(result) for result in results] == expected, \
                method
            assert engine.stats().cache_misses == 3, method

    def test_empty_batch(self, figure1):
        engine = QueryEngine(figure1)
        assert engine.top_r_many([]) == []
        assert engine.stats().batches == 0

    def test_batch_validates_before_running(self, figure1):
        engine = QueryEngine(figure1)
        with pytest.raises(InvalidParameterError):
            engine.top_r_many([(4, 1), (1, 1)])
        assert engine.stats().queries == 0

    def test_batch_plans_once(self, figure1):
        engine = QueryEngine(figure1)
        engine.top_r_many([(3, 1), (4, 1), (5, 1)])
        assert len(engine.stats().decisions) == 1
        assert engine.stats().decisions[0].method == "gct"


class TestStats:
    def test_summary_mentions_everything(self, figure1):
        engine = QueryEngine(figure1)
        engine.top_r(4, 1)
        engine.top_r_many([(3, 2), (3, 4)])
        text = engine.stats().summary()
        assert "queries served" in text
        assert "planner decisions" in text
        assert "cache" in text

    def test_stats_are_snapshots(self, figure1):
        engine = QueryEngine(figure1)
        before = engine.stats()
        engine.top_r(4, 1)
        assert before.queries == 0
        assert engine.stats().queries == 1

    def test_decision_ledger_is_a_window_with_exact_totals(self, figure1):
        """The ledger keeps the latest RECENT_DECISIONS entries; the
        totals beside it count every query ever served."""
        from repro.engine.facade import RECENT_DECISIONS
        engine = QueryEngine(figure1)
        total = RECENT_DECISIONS + 7
        for i in range(total):
            engine.top_r(3 + i % 2, 1)
        engine.top_r(4, 1, method="tsd")
        stats = engine.stats()
        assert len(stats.decisions) == RECENT_DECISIONS
        assert stats.decisions_total == total
        assert stats.queries == total + 1
        assert sum(stats.method_counts.values()) == total + 1
        assert stats.method_counts["tsd"] == 1
        text = stats.summary()
        assert f"planner decisions ({total}):" in text
        # Entries are numbered by their place in the whole history.
        assert f"  [{total - RECENT_DECISIONS}] " in text
        assert f"  [{total - 1}] " in text
        assert f"  [{total - RECENT_DECISIONS - 1}] " not in text
