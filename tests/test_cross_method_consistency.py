"""The canonical ranking contract: identical ranked lists everywhere.

Every search method — and the query engine on top of them — must return
the *same ranked vertex list* for the same query, ties included:
descending score, ties broken by graph insertion order
(:mod:`repro.core.results`).  Score multisets are not enough; the
planner swaps methods freely, so a tie resolved differently per method
would make answers flap under load.

The regression class pins the historical bug: TSD's bound-ordered scan
used to resolve boundary ties in *bound* order while the baseline used
insertion order, so ``top_r`` could return different equally-scored
vertices per method.
"""

import random

import pytest

from repro.graph.graph import Graph
from repro.core.online import online_search
from repro.core.bound import bound_search
from repro.core.tsd import TSDIndex
from repro.core.gct import GCTIndex
from repro.core.hybrid import HybridSearcher
from repro.engine import QueryEngine
from repro.errors import InvalidParameterError
from tests.helpers import check_score_postings


def _ranked(result):
    return [(entry.vertex, entry.score) for entry in result.entries]


def _all_results(graph, k, r, tsd=None, gct=None, hybrid=None):
    tsd = tsd or TSDIndex.build(graph)
    gct = gct or GCTIndex.build(graph)
    hybrid = hybrid or HybridSearcher.precompute(graph, index=tsd)
    return [
        online_search(graph, k, r),
        bound_search(graph, k, r),
        tsd.top_r(k, r),
        gct.top_r(k, r),
        hybrid.top_r(k, r),
    ]


def tie_heavy_graph() -> Graph:
    """Many disjoint k-cliques: every clique owner scores exactly 1.

    The insertion order of the owners is deliberately *unrelated* to
    any bound order (all bounds tie too), so any method that leaks its
    scan order into tie-breaking returns a different vertex list.
    """
    g = Graph()
    # Insert owners first in a scrambled order so insertion order is
    # pinned and distinct from clique construction order.
    owners = [f"owner{i}" for i in (4, 0, 6, 2, 5, 1, 3, 7)]
    for owner in owners:
        g.add_vertex(owner)
    for i, owner in enumerate(owners):
        members = [f"m{i}_{j}" for j in range(3)]
        clique = [owner] + members
        for a in range(len(clique)):
            for b in range(a + 1, len(clique)):
                g.add_edge(clique[a], clique[b])
    return g


class TestTieRegression:
    """Boundary ties must resolve identically in every method."""

    def test_all_methods_agree_on_ties(self):
        g = tie_heavy_graph()
        tsd = TSDIndex.build(g)
        gct = GCTIndex.build(g)
        hybrid = HybridSearcher.precompute(g, index=tsd)
        for k in (2, 3, 4):
            for r in (1, 2, 3, 5, 8, 11):
                results = _all_results(g, k, r, tsd, gct, hybrid)
                expected = _ranked(results[0])
                for result in results[1:]:
                    assert _ranked(result) == expected, \
                        (result.method, k, r)

    def test_ties_resolve_by_insertion_order(self):
        """The selected tied vertices are the earliest-inserted ones."""
        g = tie_heavy_graph()
        insertion = list(g.vertices())
        baseline = online_search(g, 4, 3)
        tsd = TSDIndex.build(g).top_r(4, 3)
        assert tsd.vertices == baseline.vertices
        # Every answer scores the (tied) top score, and the winners are
        # exactly the earliest-inserted vertices achieving it.
        top_score = baseline.scores[0]
        assert baseline.scores == [top_score] * 3
        index = GCTIndex.build(g)
        earliest_with_top = [v for v in insertion
                             if index.score(v, 4) == top_score]
        assert baseline.vertices == earliest_with_top[:3]

    def test_compress_equals_build_structurally(self):
        """Satellite regression: GCTIndex.compress must produce the
        same supernode member tuples and superedges as GCTIndex.build,
        not just the same query answers."""
        g = tie_heavy_graph()
        built = GCTIndex.build(g)
        compressed = GCTIndex.compress(TSDIndex.build(g))
        assert compressed.vertices == built.vertices
        for v in g.vertices():
            assert compressed.supernodes(v) == built.supernodes(v), v
            assert compressed.superedges(v) == built.superedges(v), v


class TestPersistenceRoundTrip:
    """save → load → serve stays inside the canonical contract.

    The service layer's warm start rests on this: an index that went
    through disk must answer every query rank-identically to the index
    that was built in memory (and to the online baseline), and its
    build profile must survive the trip.
    """

    KRS = [(k, r) for k in (2, 3, 4) for r in (1, 3, 8, 20)]

    def test_tsd_round_trip_rank_identical(self, tmp_path):
        g = tie_heavy_graph()
        built = TSDIndex.build(g)
        built.save(tmp_path / "tsd.json")
        loaded = TSDIndex.load(tmp_path / "tsd.json")
        for k, r in self.KRS:
            expected = _ranked(online_search(g, k, r))
            assert _ranked(loaded.top_r(k, r)) == expected, (k, r)
            assert _ranked(built.top_r(k, r)) == expected, (k, r)

    def test_gct_round_trip_rank_identical(self, tmp_path):
        g = tie_heavy_graph()
        built = GCTIndex.build(g)
        built.save(tmp_path / "gct.json")
        loaded = GCTIndex.load(tmp_path / "gct.json")
        for k, r in self.KRS:
            expected = _ranked(online_search(g, k, r))
            assert _ranked(loaded.top_r(k, r)) == expected, (k, r)
            assert _ranked(built.top_r(k, r)) == expected, (k, r)

    def test_hybrid_round_trip_rank_identical(self, tmp_path):
        g = tie_heavy_graph()
        built = HybridSearcher.precompute(g)
        built.save(tmp_path / "hybrid.json")
        loaded = HybridSearcher.load(g, tmp_path / "hybrid.json")
        for k, r in self.KRS:
            expected = _ranked(online_search(g, k, r))
            assert _ranked(loaded.top_r(k, r)) == expected, (k, r)

    def test_build_profiles_survive(self, tmp_path):
        g = tie_heavy_graph()
        for cls, name in ((TSDIndex, "tsd.json"), (GCTIndex, "gct.json")):
            built = cls.build(g)
            assert built.build_profile is not None
            built.save(tmp_path / name)
            loaded = cls.load(tmp_path / name)
            assert loaded.build_profile is not None
            assert (loaded.build_profile.total_seconds
                    == built.build_profile.total_seconds), name

    def test_hybrid_rejects_mismatched_graph(self, tmp_path):
        from repro.errors import IndexFormatError
        g = tie_heavy_graph()
        HybridSearcher.precompute(g).save(tmp_path / "hybrid.json")
        other = Graph(edges=[(0, 1), (1, 2)])
        with pytest.raises(IndexFormatError):
            HybridSearcher.load(other, tmp_path / "hybrid.json")

    def test_binary_store_round_trip_rank_identical(self, tmp_path):
        """The mmap-backed lazy indexes of a store obey the canonical
        contract query-for-query against the online baseline and the
        fully materialised load of the same artifacts."""
        from repro.service.store import IndexStore
        g = tie_heavy_graph()
        store = IndexStore(tmp_path)
        store.put(g, tsd=TSDIndex.build(g), gct=GCTIndex.build(g))
        eager = store.load(g, lazy=False)
        lazy = store.load(g)
        for k, r in self.KRS:
            expected = _ranked(online_search(g, k, r))
            assert _ranked(eager.tsd.top_r(k, r)) == expected
            assert _ranked(lazy.tsd.top_r(k, r)) == expected, (k, r)
            assert _ranked(eager.gct.top_r(k, r)) == expected
            assert _ranked(lazy.gct.top_r(k, r)) == expected, (k, r)


def _random_graph(n, p, seed):
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


GRID_GRAPHS = [(n, p, seed)
               for n in (6, 10, 15) for p in (0.3, 0.5, 0.8)
               for seed in (1, 2)]


class TestPropertySweep:
    """Seeded random graphs × (k, r) grid: the planner's invariant."""

    @pytest.mark.parametrize("n,p,seed", GRID_GRAPHS)
    def test_identical_ranked_lists(self, n, p, seed):
        g = _random_graph(n, p, seed)
        tsd = TSDIndex.build(g)
        gct = GCTIndex.build(g)
        hybrid = HybridSearcher.precompute(g, index=tsd)
        for k in (2, 3, 4, 5):
            for r in (1, 2, 4, n):
                results = _all_results(g, k, r, tsd, gct, hybrid)
                expected = _ranked(results[0])
                for result in results[1:]:
                    assert _ranked(result) == expected, \
                        (result.method, k, r, n, p, seed)

    @pytest.mark.parametrize("n,p,seed", GRID_GRAPHS[:6])
    def test_engine_auto_matches_methods(self, n, p, seed):
        g = _random_graph(n, p, seed)
        engine = QueryEngine(g)
        for k in (2, 3, 4):
            for r in (1, 3, n):
                expected = _ranked(online_search(g, k, r))
                got = _ranked(engine.top_r(k, r, method="auto"))
                assert got == expected, (k, r, n, p, seed)

    @pytest.mark.parametrize("n,p,seed", GRID_GRAPHS[:4])
    def test_contexts_agree_across_methods(self, n, p, seed):
        g = _random_graph(n, p, seed)
        for k in (2, 3):
            results = _all_results(g, k, 3)
            expected = [set(e.contexts) for e in results[0].entries]
            for result in results[1:]:
                got = [set(e.contexts) for e in result.entries]
                assert got == expected, (result.method, k)


class TestScorePostings:
    """GCT answers come off per-threshold score postings, never a
    per-vertex scan: the column must say what the scan would have."""

    @pytest.mark.parametrize("n,p,seed", GRID_GRAPHS)
    def test_postings_equal_the_per_vertex_scan(self, n, p, seed, tmp_path):
        check_score_postings(_random_graph(n, p, seed), tmp_path)

    def test_postings_resolve_ties_by_insertion_order(self, tmp_path):
        g = tie_heavy_graph()
        check_score_postings(g, tmp_path)
        owners = list(g.vertices())[:8]
        assert GCTIndex.build(g).ranking(3)[:8] == [(o, 1) for o in owners]

    def test_thresholds_below_two_are_rejected(self):
        gct = GCTIndex.build(tie_heavy_graph())
        for call in (gct.ranking, gct.scores_for_all,
                     lambda k: gct.top_r(k, 1)):
            with pytest.raises(InvalidParameterError):
                call(1)
