"""Bitmap truss decomposition must agree exactly with the hash version."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph
from repro.truss.decomposition import truss_decomposition
from repro.truss.bitmap_decomposition import (
    bitmap_truss_decomposition,
    bitmap_truss_decomposition_graph,
)

from tests.conftest import graph_strategy, dense_graph_strategy, complete_graph


class TestBitmapDecomposition:
    def test_empty(self):
        assert bitmap_truss_decomposition([], []) == {}
        assert bitmap_truss_decomposition("abc", []) == {}

    def test_triangle(self):
        tau = bitmap_truss_decomposition(
            "abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert set(tau.values()) == {3}

    def test_keys_preserve_input_orientation(self):
        tau = bitmap_truss_decomposition("ab", [("b", "a")])
        assert list(tau) == [("b", "a")]

    def test_complete_graph(self):
        g = complete_graph(6)
        tau = bitmap_truss_decomposition_graph(g)
        assert set(tau.values()) == {6}

    def test_paper_h1(self, h1):
        hash_tau = truss_decomposition(h1)
        bitmap_tau = bitmap_truss_decomposition_graph(h1)
        assert bitmap_tau == hash_tau

    @given(graph_strategy())
    def test_matches_hash_version(self, g):
        assert bitmap_truss_decomposition_graph(g) == truss_decomposition(g)

    @given(dense_graph_strategy())
    def test_matches_hash_version_dense(self, g):
        assert bitmap_truss_decomposition_graph(g) == truss_decomposition(g)

    def test_insert_strengthens_bridge(self, h1):
        # Completing more x-y triangles lifts the bridges' trussness.
        h1.add_edge("x1", "y1")
        h1.add_edge("x3", "y1")
        assert bitmap_truss_decomposition_graph(h1) == truss_decomposition(h1)

    def test_delete_weakens(self, k4):
        k4.remove_edge(0, 1)
        tau = bitmap_truss_decomposition_graph(k4)
        assert tau == truss_decomposition(k4)
        assert set(tau.values()) == {3}

    @given(dense_graph_strategy(max_vertices=8),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=6))
    @settings(max_examples=15)
    def test_random_edits_match_hash_version(self, g, edits):
        for u, v in edits:
            if u == v:
                continue
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
            assert bitmap_truss_decomposition_graph(g) == \
                truss_decomposition(g), (u, v)

    def test_large_universe_beyond_machine_word(self):
        """Bitmaps are Python ints: vertex ids past 64 must still work."""
        members = [f"v{i}" for i in range(70)]
        edges = [(members[i], members[j])
                 for i in range(66, 70) for j in range(i + 1, 70)]
        tau = bitmap_truss_decomposition(members, edges)
        assert set(tau.values()) == {4}  # a K4 at the high bit positions
