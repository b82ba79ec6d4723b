"""Tests for the core Graph class."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphError, VertexNotFoundError, EdgeNotFoundError
from repro.graph.graph import Graph

from tests.conftest import graph_strategy, complete_graph


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.vertices()) == []
        assert list(g.edges()) == []

    def test_from_edges(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_from_vertices_and_edges(self):
        g = Graph(edges=[(1, 2)], vertices=[5, 6])
        assert g.num_vertices == 4
        assert g.degree(5) == 0

    def test_duplicate_edges_collapse(self):
        g = Graph(edges=[(1, 2), (2, 1), (1, 2)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(edges=[(1, 1)])

    def test_arbitrary_hashable_labels(self):
        g = Graph(edges=[("a", ("t", 1)), (("t", 1), frozenset([3]))])
        assert g.num_vertices == 3
        assert g.has_edge("a", ("t", 1))


class TestMutation:
    def test_add_vertex_idempotent(self):
        g = Graph()
        assert g.add_vertex(1) is True
        assert g.add_vertex(1) is False
        assert g.num_vertices == 1

    def test_add_edge_returns_new(self):
        g = Graph()
        assert g.add_edge(1, 2) is True
        assert g.add_edge(2, 1) is False

    def test_remove_edge(self):
        g = Graph(edges=[(1, 2)])
        g.remove_edge(1, 2)
        assert g.num_edges == 0
        assert not g.has_edge(1, 2)
        assert g.has_vertex(1) and g.has_vertex(2)

    def test_remove_missing_edge_raises(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 3)

    def test_discard_edge(self):
        g = Graph(edges=[(1, 2)])
        assert g.discard_edge(1, 2) is True
        assert g.discard_edge(1, 2) is False

    def test_remove_vertex(self):
        g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        g.remove_vertex(2)
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert g.has_edge(1, 3)

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(VertexNotFoundError):
            Graph().remove_vertex(9)

    def test_remove_isolated_vertices(self):
        g = Graph(edges=[(1, 2)], vertices=[3, 4])
        assert g.remove_isolated_vertices() == 2
        assert set(g.vertices()) == {1, 2}


class TestQueries:
    def test_degree_and_neighbors(self, triangle):
        assert triangle.degree(0) == 2
        assert triangle.neighbors(0) == {1, 2}

    def test_neighbors_missing_raises(self, triangle):
        with pytest.raises(VertexNotFoundError):
            triangle.neighbors(99)

    def test_max_degree(self, k4):
        assert k4.max_degree() == 3
        assert Graph().max_degree() == 0

    def test_contains_len_iter(self, triangle):
        assert 0 in triangle
        assert 99 not in triangle
        assert len(triangle) == 3
        assert sorted(triangle) == [0, 1, 2]

    def test_edges_each_once(self, k4):
        edges = list(k4.edges())
        assert len(edges) == 6
        assert len({frozenset(e) for e in edges}) == 6

    def test_common_neighbors(self, k4):
        assert k4.common_neighbors(0, 1) == {2, 3}

    def test_support(self, k4, path4):
        assert k4.support(0, 1) == 2
        assert path4.support(0, 1) == 0
        with pytest.raises(EdgeNotFoundError):
            path4.support(0, 3)


class TestCanonicalEdges:
    def test_canonical_edge_stable(self):
        g = Graph(edges=[("b", "a")])
        assert g.canonical_edge("a", "b") == g.canonical_edge("b", "a")

    def test_canonical_edge_follows_insertion(self):
        g = Graph()
        g.add_vertex("z")
        g.add_vertex("a")
        g.add_edge("a", "z")
        # "z" was inserted first so it leads the canonical tuple.
        assert g.canonical_edge("a", "z") == ("z", "a")

    def test_canonical_missing_vertex(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(VertexNotFoundError):
            g.canonical_edge(1, 99)

    def test_edges_are_canonical(self):
        g = Graph(edges=[(3, 1), (2, 3), (1, 2)])
        for u, v in g.edges():
            assert g.canonical_edge(u, v) == (u, v)
            assert g.canonical_edge(v, u) == (u, v)


class TestBulkOperations:
    def test_copy_independent(self, triangle):
        clone = triangle.copy()
        clone.add_edge(0, 3)
        assert triangle.num_vertices == 3
        assert clone.num_vertices == 4

    def test_copy_preserves_canonical(self, figure1):
        clone = figure1.copy()
        for u, v in figure1.edges():
            assert clone.canonical_edge(u, v) == (u, v)

    def test_copy_equal(self, figure1):
        assert figure1.copy() == figure1

    def test_branch_shares_untouched_adjacency_only(self, figure1):
        before = figure1.copy()
        branch = figure1.branch(["v", "x1", "ghost"])
        assert branch == figure1
        for w in figure1.vertices():
            shared = branch.neighbors(w) is figure1.neighbors(w)
            assert shared == (w not in ("v", "x1")), w
        branch.remove_edge("v", "x1")
        branch.add_edge("v", "new")
        assert figure1 == before
        assert branch.num_edges == figure1.num_edges
        assert list(branch.vertices()) == list(figure1.vertices()) + ["new"]
        assert branch.canonical_edge("new", "v") == ("v", "new")

    def test_induced_subgraph(self, k4):
        sub = k4.induced_subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3

    def test_induced_subgraph_ignores_missing(self, triangle):
        sub = triangle.induced_subgraph([0, 1, 42])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1

    def test_induced_subgraph_canonical_agrees(self, figure1):
        some = list(figure1.vertices())[:8]
        sub = figure1.induced_subgraph(some)
        for u, v in sub.edges():
            assert figure1.canonical_edge(u, v) == (u, v)

    def test_edge_subgraph(self, k4):
        sub = k4.edge_subgraph([(0, 1), (2, 3)])
        assert sub.num_vertices == 4
        assert sub.num_edges == 2

    def test_edge_subgraph_missing_edge_raises(self, path4):
        with pytest.raises(EdgeNotFoundError):
            path4.edge_subgraph([(0, 3)])

    def test_equality(self):
        a = Graph(edges=[(1, 2), (2, 3)])
        b = Graph(edges=[(2, 3), (1, 2)])
        c = Graph(edges=[(1, 2)])
        assert a == b
        assert a != c
        assert a != "not a graph"


class TestDegreeOrder:
    def test_degree_order_is_permutation(self, figure1):
        order = figure1.degree_order()
        assert sorted(order.values()) == list(range(figure1.num_vertices))

    def test_degree_order_sorted_by_degree(self, figure1):
        order = figure1.degree_order()
        ranked = sorted(order, key=order.__getitem__)
        degrees = [figure1.degree(v) for v in ranked]
        assert degrees == sorted(degrees)


class TestProperties:
    @given(graph_strategy())
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges

    @given(graph_strategy())
    def test_edges_count_matches(self, g):
        assert len(list(g.edges())) == g.num_edges

    @given(graph_strategy())
    def test_copy_equality_property(self, g):
        assert g.copy() == g

    @given(graph_strategy(), st.integers(0, 11))
    def test_induced_subgraph_is_subgraph(self, g, size):
        keep = list(g.vertices())[:size]
        sub = g.induced_subgraph(keep)
        for u, v in sub.edges():
            assert g.has_edge(u, v)
        # Every edge of g between kept vertices is present.
        keep_set = set(keep)
        expected = sum(1 for u, v in g.edges()
                       if u in keep_set and v in keep_set)
        assert sub.num_edges == expected

    def test_complete_graph_edge_count(self):
        for n in range(1, 8):
            assert complete_graph(n).num_edges == n * (n - 1) // 2
