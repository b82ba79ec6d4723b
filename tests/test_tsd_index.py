"""Tests for the TSD-index (Section 5): structure, queries, persistence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexFormatError, InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.egonet import ego_network
from repro.core.diversity import structural_diversity, social_contexts, ego_truss_weights
from repro.core.tsd import TSDIndex, maximum_spanning_forest
from repro.util.dsu import DisjointSet

from tests.conftest import dense_graph_strategy, graph_strategy


class TestMaximumSpanningForest:
    def test_empty(self):
        assert maximum_spanning_forest([], []) == []

    def test_picks_heaviest(self):
        forest = maximum_spanning_forest(
            "ab", [(("a", "b"), 1), (("a", "b"), 9)])
        # Simple graphs never hand duplicates in, but Kruskal keeps the
        # heaviest first regardless.
        assert forest[0][2] == 9

    def test_forest_has_no_cycle(self):
        edges = [(("a", "b"), 3), (("b", "c"), 3), (("a", "c"), 3)]
        forest = maximum_spanning_forest("abc", edges)
        assert len(forest) == 2

    def test_weight_descending_output(self):
        edges = [(("a", "b"), 2), (("c", "d"), 5), (("b", "c"), 3)]
        forest = maximum_spanning_forest("abcd", edges)
        weights = [w for _, _, w in forest]
        assert weights == sorted(weights, reverse=True)

    @given(dense_graph_strategy())
    @settings(max_examples=20)
    def test_spans_components(self, g):
        weighted = [((u, v), 1) for u, v in g.edges()]
        forest = maximum_spanning_forest(g.vertices(), weighted)
        from repro.graph.traversal import connected_components
        n_components = len(connected_components(g))
        assert len(forest) == g.num_vertices - n_components

    @given(dense_graph_strategy())
    @settings(max_examples=20)
    def test_bottleneck_property(self, g):
        """Max spanning forest preserves threshold connectivity: at any
        threshold k, forest edges >= k connect u,v iff graph edges >= k
        do.  This is the correctness core of the whole index."""
        weights = {e: (hash(e) % 5) + 2 for e in g.edges()}
        forest = maximum_spanning_forest(g.vertices(), weights.items())
        for k in range(2, 8):
            graph_dsu = DisjointSet(g.vertices())
            for (u, v), w in weights.items():
                if w >= k:
                    graph_dsu.union(u, v)
            forest_dsu = DisjointSet(g.vertices())
            for u, v, w in forest:
                if w >= k:
                    forest_dsu.union(u, v)
            for u, v in g.edges():
                assert (graph_dsu.connected(u, v)
                        == forest_dsu.connected(u, v))


class TestTSDStructure:
    def test_figure6_forest_of_v(self, figure1):
        """Figure 6: TSD_v has 11 weight-4 edges and 1 weight-3 edge."""
        index = TSDIndex.build(figure1)
        weights = sorted((w for _, _, w in index.forest("v")), reverse=True)
        assert weights == [4] * 11 + [3]

    def test_forest_edges_are_ego_edges(self, figure1):
        index = TSDIndex.build(figure1)
        for v in figure1.vertices():
            ego = ego_network(figure1, v)
            for a, b, _ in index.forest(v):
                assert ego.has_edge(a, b)

    def test_forest_weights_are_ego_trussness(self, figure1):
        index = TSDIndex.build(figure1)
        for v in list(figure1.vertices())[:6]:
            weights = ego_truss_weights(figure1, v)
            by_pair = {frozenset(e): t for e, t in weights.items()}
            for a, b, w in index.forest(v):
                assert by_pair[frozenset((a, b))] == w

    @given(dense_graph_strategy())
    @settings(max_examples=20)
    def test_index_size_bounded_by_theorem3(self, g):
        """Forest edges per vertex < n_v, so total is O(sum deg) = O(m)."""
        index = TSDIndex.build(g)
        for v in g.vertices():
            assert len(index.forest(v)) <= max(0, g.degree(v) - 1)
        assert index.num_forest_edges <= 2 * g.num_edges

    def test_build_profile_recorded(self, figure1):
        index = TSDIndex.build(figure1)
        profile = index.build_profile
        assert profile.total_seconds >= 0.0
        assert profile.extraction_seconds >= 0.0


class TestTSDQueries:
    def test_score_paper_example(self, figure1):
        index = TSDIndex.build(figure1)
        assert index.score("v", 4) == 3
        assert index.score("v", 3) == 2
        assert index.score("v", 5) == 0

    def test_invalid_k(self, figure1):
        index = TSDIndex.build(figure1)
        with pytest.raises(InvalidParameterError):
            index.score("v", 1)
        with pytest.raises(InvalidParameterError):
            index.top_r(3, 0)

    @given(dense_graph_strategy(), st.sampled_from([2, 3, 4, 5]))
    @settings(max_examples=25)
    def test_score_matches_algorithm2(self, g, k):
        index = TSDIndex.build(g)
        for v in list(g.vertices())[:6]:
            assert index.score(v, k) == structural_diversity(g, v, k)

    @given(dense_graph_strategy(), st.sampled_from([2, 3, 4]))
    @settings(max_examples=20)
    def test_contexts_match_algorithm2(self, g, k):
        index = TSDIndex.build(g)
        for v in list(g.vertices())[:5]:
            ours = {frozenset(c) for c in index.contexts(v, k)}
            direct = {frozenset(c) for c in social_contexts(g, v, k)}
            assert ours == direct

    @given(dense_graph_strategy())
    @settings(max_examples=20)
    def test_score_profile_consistent(self, g):
        index = TSDIndex.build(g)
        for v in list(g.vertices())[:5]:
            profile = index.score_profile(v)
            for k in range(2, 9):
                assert profile.get(k, 0) == index.score(v, k)


class TestPersistence:
    def test_round_trip(self, figure1, tmp_path):
        index = TSDIndex.build(figure1)
        path = tmp_path / "index.json"
        index.save(path)
        loaded = TSDIndex.load(path)
        assert loaded.vertices == index.vertices
        for v in figure1.vertices():
            assert loaded.forest(v) == index.forest(v)
        assert loaded.score("v", 4) == 3

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(IndexFormatError):
            TSDIndex.load(path)

    def test_wrong_version_rejected(self, tmp_path, figure1):
        import json
        path = tmp_path / "index.json"
        TSDIndex.build(figure1).save(path)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(IndexFormatError):
            TSDIndex.load(path)

    def test_size_accounting(self, figure1):
        index = TSDIndex.build(figure1)
        assert index.payload_slots() == 3 * index.num_forest_edges + 17
        assert index.approx_size_bytes() == 8 * index.payload_slots()

    def test_build_profile_survives_round_trip(self, figure1, tmp_path):
        """Regression: load used to silently drop the build profile."""
        index = TSDIndex.build(figure1)
        path = tmp_path / "index.json"
        index.save(path)
        loaded = TSDIndex.load(path)
        assert loaded.build_profile == index.build_profile
        assert loaded.build_profile.total_seconds >= 0.0

    def test_profile_free_index_round_trips(self, figure1, tmp_path):
        index = TSDIndex.build(figure1)
        index.build_profile = None
        path = tmp_path / "index.json"
        index.save(path)
        assert TSDIndex.load(path).build_profile is None


class TestUnknownVertexErrors:
    def test_queries_raise_typed_error_naming_vertex(self, figure1):
        """Regression: un-indexed vertices used to raise bare KeyError."""
        index = TSDIndex.build(figure1)
        for call in (lambda: index.score("ghost", 3),
                     lambda: index.upper_bound("ghost", 3),
                     lambda: index.contexts("ghost", 3),
                     lambda: index.forest("ghost"),
                     lambda: index.score_profile("ghost")):
            with pytest.raises(InvalidParameterError, match="ghost"):
                call()


class TestBoundOrderMemo:
    """top_r memoises the per-``k`` (bounds, visit order) pair."""

    def test_repeated_queries_identical(self, figure1):
        index = TSDIndex.build(figure1)
        first = index.top_r(4, 3)
        again = index.top_r(4, 3)  # served from the memoised order
        assert again.vertices == first.vertices
        assert again.scores == first.scores

    def test_memo_populated_per_k(self, figure1):
        index = TSDIndex.build(figure1)
        assert index._bound_cache == {}
        index.top_r(4, 2)
        index.top_r(3, 2)
        assert sorted(index._bound_cache) == [3, 4]

    def test_memo_clamped_beyond_max_weight(self, figure1):
        # Thresholds past the max forest weight all share one all-zero
        # entry — a k sweep must not grow the memo without bound.
        index = TSDIndex.build(figure1)
        ceiling = index._max_forest_weight() + 1
        for k in range(ceiling, ceiling + 50):
            result = index.top_r(k, 2)
            assert result.scores == [0, 0]
        assert list(index._bound_cache) == [ceiling]
