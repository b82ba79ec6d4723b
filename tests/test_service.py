"""Tests for the service layer: store, snapshot, updates, service.

The acceptance contract of the subsystem:

* **Warm-start correctness + payoff** — an engine or service started
  from an :class:`IndexStore` returns rank-identical answers to a cold
  engine across a seeded ``(k, r)`` grid, with *zero* index builds
  recorded.
* **Fine-grained invalidation** — an edge-update batch drops exactly
  the cached thresholds whose scores changed; untouched thresholds keep
  serving from cache (``search_space == 0``).
* **Snapshot isolation** — readers never see a half-applied update, and
  concurrent reads during an update are safe.
"""

import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, InvalidParameterError, StoreError
from repro.graph.graph import Graph
from repro.core.online import online_search
from repro.core.tsd import TSDIndex
from repro.core.gct import GCTIndex
from repro.core.hybrid import HybridSearcher
from repro.datasets.synthetic import add_planted_cliques, powerlaw_cluster
from repro.engine import QueryEngine
from repro.service import (
    ContentKey,
    DiversityService,
    IndexStore,
    Snapshot,
    apply_batch,
    delete,
    graph_fingerprint,
    insert,
)

from tests.conftest import dense_graph_strategy

GRID = [(k, r) for k in (2, 3, 4, 5) for r in (1, 3, 10)]


def _ranked(result):
    return [(entry.vertex, entry.score) for entry in result.entries]


def _random_graph(n, p, seed):
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def _two_cliques() -> Graph:
    """A 5-clique and a disjoint 4-clique — score profiles split by k.

    Every 5-clique member's ego is a 4-clique (trussness 4): score 1
    for k in 2..4.  Every 4-clique member's ego is a triangle
    (trussness 3): score 1 for k in 2..3.  Deleting one 4-clique edge
    demotes the other members' egos to trussness 2, changing scores at
    k=3 only — the fine-grained invalidation fixture.
    """
    g = Graph()
    a = [f"a{i}" for i in range(5)]
    b = [f"b{i}" for i in range(4)]
    for clique in (a, b):
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                g.add_edge(clique[i], clique[j])
    return g


# ----------------------------------------------------------------------
# IndexStore
# ----------------------------------------------------------------------
class TestGraphFingerprint:
    def test_stable_under_copy(self):
        g = _random_graph(30, 0.3, 7)
        assert graph_fingerprint(g) == graph_fingerprint(g.copy())
        assert graph_fingerprint(g) == graph_fingerprint(g.copy().copy())

    def test_golden_store_keys(self, figure1):
        """The digest is the store key a restarted process recomputes
        from the graph file: computing it differently must never change
        it, or every store on disk is orphaned."""
        assert graph_fingerprint(figure1) == (
            "137b7028058fcf9d6fad3ea47c85b61c"
            "404b277c64aaca96f36d03aaefa75cf6")
        labelled = Graph(edges=[
            ((0, "a"), (1, "b")), ((1, "b"), (2, "c")),
            ((0, "a"), (2, "c")), ((2, "c"), (3, "\u00e9\"x"))])
        assert graph_fingerprint(labelled) == (
            "7213f86f7399493e7da7dcabab1902a7"
            "de0b5f852c2cb3043168984972ff67fc")

    def test_stable_across_an_update_round_trip(self, figure1):
        """Insert then delete the same edges: the content is back, and
        so is the key — of the snapshot's graph and of its copy."""
        key = graph_fingerprint(figure1)
        snap = Snapshot.build(figure1)
        there, _ = apply_batch(snap, [insert("s1", "s2"), delete("x1", "x2")])
        back, _ = apply_batch(there, [delete("s1", "s2"), insert("x1", "x2")])
        assert graph_fingerprint(there.graph_view) != key
        assert graph_fingerprint(back.graph_view) == key
        assert graph_fingerprint(back.graph) == key
        assert graph_fingerprint(back.graph_view.copy()) == key

    def test_sensitive_to_edges_and_order(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        h = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        assert graph_fingerprint(g) != graph_fingerprint(h)
        # Same edges, different vertex insertion order: different
        # content — the canonical ranking contract depends on order.
        g2 = Graph(vertices=[2, 1, 0], edges=[(0, 1), (1, 2)])
        assert graph_fingerprint(g) != graph_fingerprint(g2)


class TestIndexStore:
    def test_put_load_round_trip(self, figure1, tmp_path):
        store = IndexStore(tmp_path / "store")
        tsd = TSDIndex.build(figure1)
        version = store.put(figure1, tsd=tsd, gct=GCTIndex.compress(tsd),
                            hybrid=HybridSearcher.precompute(figure1,
                                                             index=tsd))
        assert version.version == 1
        assert version.artifact_names == ["tsd", "gct", "hybrid"]
        loaded = IndexStore(tmp_path / "store").load(figure1)
        assert loaded.loaded_names == ["tsd", "gct", "hybrid"]
        assert loaded.tsd.score("v", 4) == 3
        assert loaded.gct.score("v", 4) == 3

    def test_unknown_graph_raises(self, figure1, tmp_path):
        store = IndexStore(tmp_path / "store")
        assert not store.has(figure1)
        with pytest.raises(StoreError):
            store.current(figure1)

    def test_versions_carry_forward_unchanged_artifacts(self, figure1,
                                                        tmp_path):
        store = IndexStore(tmp_path / "store")
        tsd = TSDIndex.build(figure1)
        v1 = store.put(figure1, tsd=tsd)
        v2 = store.put(figure1, gct=GCTIndex.compress(tsd))
        assert v2.version == 2
        # The tsd artifact was not rewritten: v2 references v1's file.
        assert v2.artifacts["tsd"] == v1.artifacts["tsd"]
        assert v2.artifacts["gct"] != v1.artifacts.get("gct")
        assert [v.version for v in store.versions(v2.key)] == [1, 2]

    def test_empty_version_rejected(self, figure1, tmp_path):
        store = IndexStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.put(figure1)

    def test_corrupt_manifest_rejected(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError):
            IndexStore(root)
        (root / "manifest.json").write_text(json.dumps({"format": "other"}),
                                            encoding="utf-8")
        with pytest.raises(StoreError):
            IndexStore(root)

    def test_artifact_writes_leave_no_tmp_files(self, figure1, tmp_path):
        """Artifacts go through tmp + os.replace (a crash mid-write must
        never leave a torn artifact); nothing temporary survives."""
        from repro.storage import ArtifactReader
        store = IndexStore(tmp_path / "store")
        tsd = TSDIndex.build(figure1)
        store.put(figure1, tsd=tsd, gct=GCTIndex.compress(tsd),
                  hybrid=HybridSearcher.precompute(figure1, index=tsd))
        leftovers = [p for p in (tmp_path / "store").rglob("*.tmp")]
        assert leftovers == []
        checked = []
        for artifact in sorted((tmp_path / "store" / "objects").rglob("*")):
            if artifact.suffix == ".bin":
                with ArtifactReader(artifact) as reader:
                    reader.verify_checksum()  # not torn
            elif artifact.suffix == ".json":
                json.loads(artifact.read_text(encoding="utf-8"))
            else:
                continue
            checked.append(artifact.name)
        assert sorted(checked) == ["gct.bin", "hybrid.json", "tsd.bin"]

    def test_two_writers_sharing_a_root_lose_nothing(self, figure1,
                                                     tmp_path):
        """Regression: two IndexStore instances on one root (two
        processes in real life) each held a private manifest, and the
        last write silently dropped the other's versions.  The on-disk
        lock + manifest re-read in put() merges them."""
        other = figure1.copy()
        other.add_edge("v", "second-writer")
        a = IndexStore(tmp_path / "store")
        b = IndexStore(tmp_path / "store")  # stale private manifest
        version_a = a.put(figure1, tsd=TSDIndex.build(figure1))
        version_b = b.put(other, tsd=TSDIndex.build(other))
        merged = IndexStore(tmp_path / "store")
        assert set(merged.keys()) == {version_a.key, version_b.key}
        assert merged.load(figure1).tsd is not None
        assert merged.load(other).tsd is not None

    def test_cross_lineage_previous_link(self, figure1, tmp_path):
        """A content change re-versions: numbering continues from the
        parent and the manifest records the link."""
        store = IndexStore(tmp_path / "store")
        v1 = store.put(figure1, tsd=TSDIndex.build(figure1))
        mutated = figure1.copy()
        mutated.add_edge("v", "brand-new")
        v2 = store.put(mutated, tsd=TSDIndex.build(mutated), previous=v1)
        assert v2.key != v1.key
        assert v2.version == 2
        manifest = json.loads(
            (tmp_path / "store" / "manifest.json").read_text())
        record = manifest["graphs"][v2.key]["versions"]["2"]
        assert record["parent"] == {"key": v1.key, "version": 1}

    def test_no_stale_carry_forward_across_content_change(self, figure1,
                                                          tmp_path):
        """Regression: artifacts computed for different graph content
        must never be carried into a new lineage — a pre-update hybrid
        ranking would silently serve wrong scores."""
        store = IndexStore(tmp_path / "store")
        tsd = TSDIndex.build(figure1)
        v1 = store.put(figure1, tsd=tsd,
                       hybrid=HybridSearcher.precompute(figure1, index=tsd))
        mutated = figure1.copy()
        mutated.remove_edge("x1", "x2")
        v2 = store.put(mutated, tsd=TSDIndex.build(mutated),
                       gct=GCTIndex.build(mutated), previous=v1)
        # Only the supplied artifacts exist: v1's hybrid did not leak.
        assert v2.artifact_names == ["tsd", "gct"]
        assert store.load(mutated).hybrid is None


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_answers_match_online_search(self, figure1):
        snap = Snapshot.build(figure1)
        for k, r in GRID:
            assert _ranked(snap.top_r(k, r)) == \
                _ranked(online_search(figure1, k, r)), (k, r)

    def test_threshold_memoised(self, figure1):
        snap = Snapshot.build(figure1)
        assert snap.top_r(4, 2).search_space == figure1.num_vertices
        assert snap.top_r(4, 5).search_space == 0
        assert snap.cached_thresholds() == [4]

    def test_isolated_from_source_graph_mutation(self, figure1):
        snap = Snapshot.build(figure1)
        before = _ranked(snap.top_r(4, 1))
        figure1.add_edge("v", "intruder")
        assert _ranked(snap.top_r(4, 1)) == before
        assert "intruder" not in snap.graph

    def test_requires_an_index(self, figure1):
        with pytest.raises(InvalidParameterError):
            Snapshot(figure1)

    def test_requires_a_gct(self, figure1):
        """A snapshot serves, patches and persists its GCT alone: a TSD
        handed over without one is no snapshot."""
        with pytest.raises(InvalidParameterError):
            Snapshot(figure1, tsd=TSDIndex.build(figure1))
        snap = Snapshot(figure1, tsd=TSDIndex.build(figure1),
                        gct=GCTIndex.build(figure1))
        assert snap.tsd is None
        assert snap.score("v", 4) == 3

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "mmap"])
    def test_concurrent_first_scans_of_a_fresh_snapshot(self, lazy,
                                                        tmp_path):
        """Eight readers hit a snapshot nobody has scanned: they race to
        derive the GCT score postings (published lock-free, never
        mutated afterwards) and every answer is the oracle's."""
        graph = _random_graph(60, 0.2, seed=11)
        if lazy:
            store = IndexStore(tmp_path / "store")
            DiversityService.start(graph, store)
            snap = DiversityService.warm(graph, store).snapshot
            assert snap.gct._tau_sorted is None  # mmap-backed
        else:
            snap = Snapshot.build(graph)
        assert snap.gct._postings is None
        queries = [(k, r) for k in (2, 3, 4, 5, 9) for r in (1, 7, 70)]
        expected = {q: _ranked(online_search(graph, *q)) for q in queries}
        wrong, barrier = [], threading.Barrier(8)

        def reader(seed):
            order = queries * 3
            random.Random(seed).shuffle(order)
            barrier.wait(timeout=30)
            for k, r in order:
                if _ranked(snap.top_r(k, r)) != expected[(k, r)]:
                    wrong.append((seed, k, r))

        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_score_and_contexts(self, figure1):
        snap = Snapshot.build(figure1)
        assert snap.score("v", 4) == 3
        assert len(snap.contexts("v", 4)) == 3
        with pytest.raises(InvalidParameterError):
            snap.score("ghost", 4)
        with pytest.raises(InvalidParameterError):
            snap.score("v", 1)


# ----------------------------------------------------------------------
# Engine warm start (the acceptance grid)
# ----------------------------------------------------------------------
class TestEngineWarmStart:
    @pytest.fixture
    def seeded_store(self, tmp_path):
        graph = _random_graph(25, 0.35, 42)
        store = IndexStore(tmp_path / "store")
        QueryEngine(graph).persist(store)
        return graph, store

    def test_rank_identical_with_zero_builds(self, seeded_store):
        graph, store = seeded_store
        cold = QueryEngine(graph)
        warm = QueryEngine(graph, warm_start=store)
        for method in ("gct", "tsd", "hybrid"):
            for k, r in GRID:
                assert (_ranked(warm.top_r(k, r, method=method))
                        == _ranked(cold.top_r(k, r, method=method))), \
                    (method, k, r)
        stats = warm.stats()
        assert stats.index_build_seconds == {}
        assert stats.warm_loaded == ["tsd", "gct", "hybrid"]
        assert "warm-started:      tsd, gct, hybrid" in stats.summary()

    def test_warm_start_accepts_a_path(self, seeded_store):
        graph, store = seeded_store
        warm = QueryEngine(graph, warm_start=str(store.root))
        assert warm.stats().warm_loaded == ["tsd", "gct", "hybrid"]

    def test_tsd_only_store_compresses_instead_of_rebuilding(self,
                                                             tmp_path):
        """Regression: with only a TSD artifact stored, a GCT query must
        load + compress the stored forests — never re-decompose every
        ego from the graph."""
        graph = _random_graph(25, 0.35, 42)
        store = IndexStore(tmp_path / "store")
        QueryEngine(graph).persist(store, artifacts=("tsd",))
        warm = QueryEngine(graph, warm_start=store)
        result = warm.top_r(3, 5, method="gct")
        assert _ranked(result) == _ranked(online_search(graph, 3, 5))
        stats = warm.stats()
        assert "tsd" not in stats.index_build_seconds  # loaded, not built
        assert "gct" in stats.index_build_seconds      # cheap compress
        # The compress must have come from the stored forests.
        assert warm._tsd is not None

    def test_unknown_graph_falls_back_to_cold(self, tmp_path, figure1):
        engine = QueryEngine(figure1,
                             warm_start=IndexStore(tmp_path / "store"))
        assert engine.stats().warm_loaded == []
        assert _ranked(engine.top_r(4, 1, method="gct")) == \
            _ranked(online_search(figure1, 4, 1))
        assert "gct" in engine.stats().index_build_seconds

    def test_persist_builds_at_most_once(self, figure1, tmp_path):
        engine = QueryEngine(figure1)
        engine.top_r(4, 1, method="gct")
        seconds = dict(engine.stats().index_build_seconds)
        engine.persist(tmp_path / "store", artifacts=("gct",))
        assert engine.stats().index_build_seconds == seconds

    def test_persist_rejects_unknown_artifacts(self, figure1, tmp_path):
        with pytest.raises(InvalidParameterError):
            QueryEngine(figure1).persist(tmp_path / "store",
                                         artifacts=("gct", "quantum"))

    def test_snapshot_handoff_carries_cache(self, figure1):
        engine = QueryEngine(figure1)
        engine.top_r(4, 2, method="gct")
        snap = engine.snapshot()
        assert snap.cached_thresholds() == [4]
        assert snap.top_r(4, 1).search_space == 0
        # One-way hand-off: engine invalidation cannot hurt the snapshot.
        engine.invalidate()
        assert _ranked(snap.top_r(4, 1)) == \
            _ranked(online_search(figure1, 4, 1))


# ----------------------------------------------------------------------
# Live updates
# ----------------------------------------------------------------------
class TestApplyBatch:
    def test_matches_fresh_build_after_mixed_batch(self):
        graph = _random_graph(14, 0.4, 3)
        snap = Snapshot.build(graph)
        batch = [delete(*next(iter(graph.edges()))), insert(0, 13),
                 insert(1, 12)]
        # Drop duplicates of existing edges from the synthetic batch.
        batch = [u for u in batch
                 if u.op == "delete" or not graph.has_edge(u.u, u.v)]
        nxt, report = apply_batch(snap, batch)
        expected = graph.copy()
        for update in batch:
            if update.op == "insert":
                expected.add_edge(update.u, update.v)
            else:
                expected.remove_edge(update.u, update.v)
        assert nxt.graph == expected
        for k, r in GRID:
            assert _ranked(nxt.top_r(k, r)) == \
                _ranked(online_search(expected, k, r)), (k, r)

    def test_unaffected_records_are_shared_not_copied(self):
        """A batch costs its affected records: every other GCT entry and
        derived column of the next index is the very object the
        previous snapshot holds, under fresh top-level dicts."""
        graph = _random_graph(40, 0.15, 21)
        snap = Snapshot.build(graph)
        u, v = next(iter(graph.edges()))
        nxt, report = apply_batch(snap, [delete(u, v), insert(0, "fresh")])
        untouched = [w for w in graph.vertices()
                     if w not in report.affected_vertices]
        assert untouched and "fresh" in report.affected_vertices
        pairs = [(snap.gct._supernodes, nxt.gct._supernodes),
                 (snap.gct._superedges, nxt.gct._superedges),
                 (snap.gct._tau_sorted, nxt.gct._tau_sorted),
                 (snap.gct._weight_sorted, nxt.gct._weight_sorted)]
        for old, new in pairs:
            assert old is not new
            assert "fresh" in new and "fresh" not in old
            assert all(new[w] is old[w] for w in untouched)
            assert list(new) == list(nxt.graph_view.vertices())

    def test_repaired_indexes_structurally_fresh(self):
        """Affected-vertex repair must equal a from-scratch build, not
        merely answer queries identically."""
        graph = _random_graph(12, 0.5, 9)
        snap = Snapshot.build(graph)
        u, v = next(iter(graph.edges()))
        nxt, _ = apply_batch(snap, [delete(u, v)])
        fresh = GCTIndex.build(nxt.graph)
        assert nxt.gct.vertices == fresh.vertices
        for w in nxt.graph.vertices():
            assert nxt.gct.supernodes(w) == fresh.supernodes(w), w
            assert nxt.gct.superedges(w) == fresh.superedges(w), w

    def test_only_affected_thresholds_invalidated(self):
        graph = _two_cliques()
        snap = Snapshot.build(graph)
        for k in (2, 3, 4):
            snap.top_r(k, 9)
        assert snap.cached_thresholds() == [2, 3, 4]
        nxt, report = apply_batch(snap, [delete("b2", "b3")])
        # The deletion demotes 4-clique egos from trussness 3 to 2:
        # scores change at k=3 only.
        assert report.invalidated_thresholds == (3,)
        assert report.retained_thresholds == (2, 4)
        assert not report.vertex_set_changed
        assert set(report.affected_vertices) == {"b0", "b1", "b2", "b3"}
        # Retained thresholds keep serving from cache...
        assert nxt.top_r(2, 9).search_space == 0
        assert nxt.top_r(4, 9).search_space == 0
        # ...the invalidated one recomputes, and every answer is exact.
        assert nxt.top_r(3, 9).search_space == nxt.graph.num_vertices
        for k in (2, 3, 4):
            assert _ranked(nxt.top_r(k, 9)) == \
                _ranked(online_search(nxt.graph, k, 9)), k

    def test_new_vertex_keeps_unchanged_thresholds(self):
        """A memo entry holds positive rows only; a newcomer scoring 0
        changes none of them, so a batch that attaches one keeps every
        threshold whose scores it left alone."""
        graph = _two_cliques()
        snap = Snapshot.build(graph)
        snap.top_r(2, 3)
        nxt, report = apply_batch(snap, [insert("a0", "newcomer")])
        assert report.vertex_set_changed
        assert report.invalidated_thresholds == ()
        assert report.retained_thresholds == (2,)
        result = nxt.top_r(2, 10)
        assert result.search_space == 0
        assert _ranked(result) == _ranked(online_search(nxt.graph, 2, 10))

    def test_planted_clique_raises_the_ego_score(self, planted):
        snap = Snapshot.build(planted)
        before = snap.score("ego", 3)
        fresh = [f"new_{i}" for i in range(4)]
        batch = [insert("ego", w) for w in fresh]
        batch += [insert(fresh[i], fresh[j])
                  for i in range(4) for j in range(i + 1, 4)]
        nxt, _ = apply_batch(snap, batch)
        assert nxt.score("ego", 3) == before + 1

    def test_new_vertex_scores_once_it_closes_a_wedge(self, triangle):
        snap, _ = apply_batch(Snapshot.build(triangle), [insert(0, 99)])
        assert snap.score(99, 2) == 0
        snap, _ = apply_batch(snap, [insert(1, 99)])
        # 99's ego now holds edge (0, 1): one 2-truss context.
        assert snap.score(99, 2) == 1

    def test_repair_touches_only_endpoints_and_common_neighbours(self):
        graph = _random_graph(30, 0.15, 5)
        if graph.has_edge(0, 1):
            graph.remove_edge(0, 1)
        common = len(graph.common_neighbors(0, 1))
        _, report = apply_batch(Snapshot.build(graph), [insert(0, 1)])
        assert report.rebuilt_forests <= 2 + common

    def test_insert_then_delete_round_trip(self):
        graph = add_planted_cliques(powerlaw_cluster(250, 4, 0.5, seed=77),
                                    [9, 7, 6, 6], seed=78)
        snap = Snapshot.build(graph)
        before = _ranked(snap.top_r(3, 5))
        edits = [(u, v) for u, v in [(0, 200), (0, 201), (200, 201)]
                 if not graph.has_edge(u, v)]
        assert edits
        grown, _ = apply_batch(snap, [insert(u, v) for u, v in edits])
        back, _ = apply_batch(grown, [delete(u, v)
                                      for u, v in reversed(edits)])
        assert back.graph == graph
        assert _ranked(back.top_r(3, 5)) == before

    def test_delete_reverts_to_a_scratch_build(self, triangle):
        snap, _ = apply_batch(Snapshot.build(triangle),
                              [insert(0, 3), insert(1, 3), insert(2, 3)])
        assert snap.score(0, 3) == 1  # now K4
        snap, _ = apply_batch(snap, [delete(2, 3)])
        fresh = GCTIndex.build(snap.graph)
        for v in snap.graph.vertices():
            assert snap.gct.supernodes(v) == fresh.supernodes(v), v
            assert snap.gct.superedges(v) == fresh.superedges(v), v

    @given(dense_graph_strategy(max_vertices=8),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=6))
    @settings(max_examples=15)
    def test_random_edit_sequence_stays_fresh(self, graph, edits):
        """One single-edge batch per edit: every score equals a scratch
        TSD's, and the GCT encodes like a scratch build."""
        snap = Snapshot.build(graph)
        for u, v in edits:
            if u == v:
                continue
            edit = delete if snap.graph_view.has_edge(u, v) else insert
            snap, _ = apply_batch(snap, [edit(u, v)])
        rebuilt = TSDIndex.build(snap.graph)
        for v in snap.graph.vertices():
            for k in (2, 3, 4, 5):
                assert snap.score(v, k) == rebuilt.score(v, k), (v, k)
        assert snap.gct.to_payload(include_profile=False) == \
            GCTIndex.build(snap.graph).to_payload(include_profile=False)

    def test_input_snapshot_untouched(self):
        graph = _two_cliques()
        snap = Snapshot.build(graph)
        before = _ranked(snap.top_r(3, 9))
        apply_batch(snap, [delete("b2", "b3")])
        assert _ranked(snap.top_r(3, 9)) == before
        assert snap.graph.has_edge("b2", "b3")

    def test_bad_updates_rejected(self, triangle):
        snap = Snapshot.build(triangle)
        with pytest.raises(GraphError):
            apply_batch(snap, [insert(0, 1)])      # already present
        with pytest.raises(InvalidParameterError):
            apply_batch(snap, [("teleport", 0, 1)])
        with pytest.raises(GraphError):
            apply_batch(snap, [insert(0, 0)])      # self-loop

    def test_tuples_accepted(self, triangle):
        snap = Snapshot.build(triangle)
        nxt, report = apply_batch(snap, [("insert", 2, 3),
                                         ("delete", 0, 2)])
        assert report.num_updates == 2
        assert nxt.graph.has_edge(2, 3) and not nxt.graph.has_edge(0, 2)


# ----------------------------------------------------------------------
# DiversityService
# ----------------------------------------------------------------------
class TestDiversityService:
    def test_cold_start_persists_for_next_warm_start(self, tmp_path):
        graph = _random_graph(15, 0.4, 5)
        store = IndexStore(tmp_path / "store")
        first = DiversityService.start(graph, store=store)
        assert not first.warm_started
        second = DiversityService.start(graph, store=store)
        assert second.warm_started
        for k, r in GRID:
            assert _ranked(second.top_r(k, r)) == \
                _ranked(online_search(graph, k, r)), (k, r)

    def test_warm_requires_known_graph(self, figure1, tmp_path):
        with pytest.raises(StoreError):
            DiversityService.warm(figure1, IndexStore(tmp_path / "store"))

    def test_updates_re_version_the_store(self, tmp_path):
        graph = _two_cliques()
        store = IndexStore(tmp_path / "store")
        service = DiversityService.start(graph, store=store)
        assert service.snapshot.version == 1
        report = service.apply_updates([delete("b2", "b3")])
        assert report.num_updates == 1
        assert service.snapshot.version == 2
        # The store can now warm-start a service on the *updated* graph.
        mutated = service.snapshot.graph
        revived = DiversityService.warm(mutated, store)
        for k, r in GRID:
            assert _ranked(revived.top_r(k, r)) == \
                _ranked(online_search(mutated, k, r)), (k, r)

    def test_readers_see_before_or_after_never_between(self):
        """Concurrent top_r during an update returns either the old or
        the new snapshot's exact answer — snapshot isolation."""
        graph = _two_cliques()
        service = DiversityService.start(graph)
        old = _ranked(service.top_r(3, 9))
        new_graph = graph.copy()
        new_graph.remove_edge("b2", "b3")
        new = _ranked(online_search(new_graph, 3, 9))

        answers, errors = [], []

        def reader():
            try:
                for _ in range(50):
                    answers.append(_ranked(service.top_r(3, 9)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        service.apply_updates([delete("b2", "b3")])
        for t in threads:
            t.join()
        assert not errors
        assert set(map(tuple, answers)) <= {tuple(old), tuple(new)}
        assert _ranked(service.top_r(3, 9)) == new

    def test_stats_summary(self, figure1):
        service = DiversityService.start(figure1)
        service.top_r(4, 1)
        service.apply_updates([insert("v", "w-new")])
        text = service.stats_summary()
        assert "queries served:    1" in text
        assert "updates applied:   1" in text
        assert "update batches:" in text
        assert len(service.update_reports()) == 1

    def test_report_ledger_is_a_window_with_exact_totals(self):
        """update_reports() keeps the latest RECENT_REPORTS ledgers; the
        /stats counters stay exact past the window."""
        from repro.service.service import RECENT_REPORTS
        service = DiversityService.start(_two_cliques())
        batches = RECENT_REPORTS + 5
        for i in range(batches):
            op = insert if i % 2 == 0 else delete
            service.apply_updates([op("a0", "b0"), op("a1", "b1")])
        reports = service.update_reports()
        assert len(reports) == RECENT_REPORTS
        assert all(report.num_updates == 2 for report in reports)
        stats = service.stats_payload()
        assert stats["update_batches"] == batches
        assert stats["updates_applied"] == 2 * batches
        assert stats["version"] == batches
        text = service.stats_summary()
        assert f"({batches} batches)" in text
        assert f"  [{batches - RECENT_REPORTS}] " in text
        assert f"  [{batches - 1}] " in text
        assert f"  [{batches - RECENT_REPORTS - 1}] " not in text

    def test_score_and_contexts_pass_through(self, figure1):
        service = DiversityService.start(figure1)
        assert service.score("v", 4) == 3
        assert len(service.contexts("v", 4)) == 3

    def test_contexts_counted_in_stats_ledger(self, figure1):
        """Regression: contexts() never went through _count_queries, so
        the ledger undercounted served queries relative to top_r/score."""
        service = DiversityService.start(figure1)
        service.top_r(4, 1)
        service.score("v", 4)
        service.contexts("v", 4)
        service.contexts("v", 3)
        assert service.stats_payload()["queries"] == 4
        assert "queries served:    4" in service.stats_summary()

    def test_version_of_swallows_only_store_errors(self, figure1,
                                                   tmp_path, monkeypatch):
        """Regression: _version_of caught *all* exceptions, silently
        dropping cross-lineage parent links on real store corruption.
        StoreError (no lineage) stays handled; anything else propagates."""
        store = IndexStore(tmp_path / "store")
        service = DiversityService.start(figure1, store=store)

        monkeypatch.setattr(store, "current",
                            lambda *a, **kw: (_ for _ in ()).throw(
                                StoreError("lineage compacted away")))
        report = service.apply_updates([insert("v", "w-new")])
        assert report.num_updates == 1  # handled: link-less re-version

        monkeypatch.setattr(store, "current",
                            lambda *a, **kw: (_ for _ in ()).throw(
                                OSError("disk on fire")))
        with pytest.raises(OSError):
            service.apply_updates([insert("v", "w-newer")])


# ----------------------------------------------------------------------
# What an ack and a start cost: counted, not timed
# ----------------------------------------------------------------------
@pytest.fixture
def work_counts(monkeypatch):
    """Counts whole-graph passes: ``Graph.copy`` calls and full store-key
    builds (``ContentKey.of`` — what ``graph_fingerprint`` runs too)."""
    counts = {"copy": 0, "full_key": 0}
    real_copy, real_of = Graph.copy, ContentKey.of.__func__

    def copy(graph):
        counts["copy"] += 1
        return real_copy(graph)

    def of(cls, graph):
        counts["full_key"] += 1
        return real_of(cls, graph)

    monkeypatch.setattr(Graph, "copy", copy)
    monkeypatch.setattr(ContentKey, "of", classmethod(of))
    return counts


@pytest.fixture
def write_counts(monkeypatch):
    """Counts whole-index writes: full ``write_artifact`` encodes in the
    store and ``to_payload`` calls without ``only=`` (every record in
    payload form)."""
    import repro.service.store as store_module
    counts = {"write_artifact": 0, "full_payload": 0}
    real_write = store_module.write_artifact

    def write_artifact(*args, **kwargs):
        counts["write_artifact"] += 1
        return real_write(*args, **kwargs)

    monkeypatch.setattr(store_module, "write_artifact", write_artifact)
    for cls in (TSDIndex, GCTIndex):
        def to_payload(index, include_profile=True, only=None,
                       _real=cls.to_payload):
            if only is None:
                counts["full_payload"] += 1
            return _real(index, include_profile, only=only)

        monkeypatch.setattr(cls, "to_payload", to_payload)
    return counts


STORED_ACKS = pytest.mark.parametrize("batch", [
    [delete("b2", "b3"), insert("a0", "b0")],
    [insert("b0", "newcomer"), insert("newcomer", "other")],
], ids=["same-vertex-set", "growing"])


class TestWorkCounts:
    @STORED_ACKS
    def test_stored_ack_copies_nothing_and_hashes_no_graph(
            self, tmp_path, work_counts, batch):
        service = DiversityService.start(_two_cliques(),
                                         store=IndexStore(tmp_path / "s"))
        work_counts.update(copy=0, full_key=0)
        service.apply_updates(batch)
        assert work_counts == {"copy": 0, "full_key": 0}
        assert service.snapshot.version == 2
        assert service.snapshot.key == service.snapshot.content_key == \
            graph_fingerprint(service.snapshot.graph)

    @STORED_ACKS
    def test_stored_ack_writes_deltas_only(self, tmp_path, write_counts,
                                           batch):
        """A batch that attaches vertices re-versions ``tsd``/``gct`` as
        deltas too: no full artifact encode, no full payload."""
        service = DiversityService.start(_two_cliques(),
                                         store=IndexStore(tmp_path / "s"))
        write_counts.update(write_artifact=0, full_payload=0)
        service.apply_updates(batch)
        assert write_counts == {"write_artifact": 0, "full_payload": 0}
        cold = Snapshot.build(service.snapshot.graph)
        for k, r in GRID:
            assert _ranked(service.top_r(k, r)) == \
                _ranked(cold.top_r(k, r)), (k, r)

    def test_start_hashes_the_graph_once_cold_and_warm(
            self, tmp_path, work_counts):
        graph, store = _two_cliques(), IndexStore(tmp_path / "store")
        for warm in (False, True):
            work_counts["full_key"] = 0
            service = DiversityService.start(graph, store=store)
            assert service.warm_started is warm
            assert work_counts["full_key"] == 1, warm
            assert service.snapshot.key == graph_fingerprint(graph)
            work_counts["full_key"] = 0
            assert service.snapshot.content_key == service.snapshot.key
            assert work_counts["full_key"] == 0, "the start's key is kept"


# ----------------------------------------------------------------------
# Snapshot immutability from outside
# ----------------------------------------------------------------------
class TestSnapshotGraphIsolation:
    def test_graph_property_hands_out_a_defensive_copy(self, figure1):
        """Regression: Snapshot.graph returned the snapshot's private
        copy, so a caller mutating it corrupted the "immutable"
        snapshot (and its content-hash store key)."""
        snap = Snapshot.build(figure1)
        before = _ranked(snap.top_r(4, 3))
        fingerprint = graph_fingerprint(snap.graph)
        leaked = snap.graph
        leaked.add_edge("v", "vandal")
        leaked.remove_edge("x1", "x2")
        assert "vandal" not in snap.graph
        assert snap.graph.has_edge("x1", "x2")
        assert _ranked(snap.top_r(4, 3)) == before
        assert graph_fingerprint(snap.graph) == fingerprint
        assert snap.num_vertices == snap.graph.num_vertices
        assert snap.num_edges == snap.graph.num_edges


# ----------------------------------------------------------------------
# Store compaction
# ----------------------------------------------------------------------
class TestCompaction:
    def test_reclaims_superseded_versions_of_a_multi_update_lineage(
            self, tmp_path):
        """The acceptance bar: ≥1 stale version reclaimed on a
        multi-update lineage, with warm starts intact afterwards."""
        graph = _two_cliques()
        store = IndexStore(tmp_path / "store")
        service = DiversityService.start(graph, store=store)
        service.apply_updates([delete("b2", "b3")])
        service.apply_updates([insert("b2", "b3"), insert("a0", "b0")])
        assert len(store.keys()) == 3  # one lineage per content change

        report = store.compact()
        assert report.removed_versions >= 2
        assert len(report.removed_keys) == 2
        assert report.reclaimed_bytes > 0
        assert report.kept_versions == 1

        # The surviving head still warm-starts from a fresh process.
        final = service.snapshot.graph
        revived = DiversityService.warm(final, IndexStore(tmp_path / "store"))
        for k, r in GRID:
            assert _ranked(revived.top_r(k, r)) == \
                _ranked(online_search(final, k, r)), (k, r)

    def test_never_deletes_artifacts_carried_forward_into_a_head(
            self, figure1, tmp_path):
        """A head's record may reference files physically stored under a
        pruned version's directory; refcounting must keep them."""
        store = IndexStore(tmp_path / "store")
        tsd = TSDIndex.build(figure1)
        v1 = store.put(figure1, tsd=tsd)
        v2 = store.put(figure1, gct=GCTIndex.compress(tsd))
        assert v2.artifacts["tsd"] == v1.artifacts["tsd"]  # carried forward

        report = store.compact()
        assert report.removed_versions == 1  # v1's record
        assert (tmp_path / "store" / v1.artifacts["tsd"]).exists()
        loaded = IndexStore(tmp_path / "store").load(figure1)
        assert loaded.tsd.score("v", 4) == 3
        assert loaded.gct.score("v", 4) == 3

    def test_strips_parent_links_to_pruned_versions(self, figure1,
                                                    tmp_path):
        store = IndexStore(tmp_path / "store")
        v1 = store.put(figure1, tsd=TSDIndex.build(figure1))
        mutated = figure1.copy()
        mutated.add_edge("v", "brand-new")
        store.put(mutated, tsd=TSDIndex.build(mutated), previous=v1)
        store.compact()
        manifest = json.loads(
            (tmp_path / "store" / "manifest.json").read_text())
        assert v1.key not in manifest["graphs"]
        (record,) = [rec
                     for entry in manifest["graphs"].values()
                     for rec in entry["versions"].values()]
        assert "parent" not in record

    def test_compacting_an_empty_or_single_version_store_is_a_noop(
            self, figure1, tmp_path):
        store = IndexStore(tmp_path / "store")
        assert store.compact().removed_versions == 0
        store.put(figure1, tsd=TSDIndex.build(figure1))
        report = store.compact()
        assert report.removed_versions == 0
        assert report.kept_versions == 1
        assert store.load(figure1).tsd is not None

    def test_report_summary_and_payload(self, figure1, tmp_path):
        store = IndexStore(tmp_path / "store")
        tsd = TSDIndex.build(figure1)
        store.put(figure1, tsd=tsd)
        store.put(figure1, gct=GCTIndex.compress(tsd))
        report = store.compact()
        assert "1 version(s)" in report.summary()
        assert report.to_payload()["removed_versions"] == 1




# ----------------------------------------------------------------------
# GCT-only versions: what an update ack writes
# ----------------------------------------------------------------------
def _raw_record(store, snapshot):
    """The manifest record ``snapshot`` is persisted as, read off disk."""
    manifest = json.loads((store.root / "manifest.json").read_text())
    return manifest["graphs"][snapshot.key]["versions"][str(snapshot.version)]


def _edge_batches(graph, seed, count):
    """``count`` batches of one delete + one insert, each valid on the
    graph the earlier ones left."""
    rng = random.Random(seed)
    graph = graph.copy()
    for _ in range(count):
        vertices = list(graph.vertices())
        u, v = rng.choice(sorted(graph.edges(), key=repr))
        absent = [(a, b) for i, a in enumerate(vertices)
                  for b in vertices[i + 1:] if not graph.has_edge(a, b)]
        x, y = rng.choice(absent)
        graph.remove_edge(u, v)
        graph.add_edge(x, y)
        yield [delete(u, v), insert(x, y)]


class TestGctOnlyVersions:
    def test_no_hybrid_recompute_on_an_ack(self, tmp_path, monkeypatch):
        """A store seeded with tsd, gct and hybrid (``QueryEngine.persist``,
        as ``serve-build`` once wrote it) serves updates without ever
        recomputing hybrid rankings, and each ack's version holds the
        GCT alone."""
        graph = _random_graph(30, 0.3, 5)
        store = IndexStore(tmp_path / "store")
        assert QueryEngine(graph).persist(store).artifact_names == \
            ["tsd", "gct", "hybrid"]
        service = DiversityService.warm(graph, IndexStore(store.root))

        def refuse(*args, **kwargs):
            raise AssertionError("hybrid rankings recomputed on an ack")

        monkeypatch.setattr(HybridSearcher, "precompute", refuse)
        for batch in _edge_batches(graph, 6, 3):
            for k in (3, 4):
                service.top_r(k, 5)  # memoised thresholds, as when served
            service.apply_updates(batch)
            record = _raw_record(service.store, service.snapshot)
            assert set(record) - {"parent"} == {"gct"}, record
        mutated = service.snapshot.graph
        for k, r in GRID:
            assert _ranked(service.top_r(k, r)) == \
                _ranked(online_search(mutated, k, r)), (k, r)

    def test_cold_start_persists_the_gct_alone(self, tmp_path):
        graph = _two_cliques()
        service = DiversityService.start(graph,
                                         store=IndexStore(tmp_path / "s"))
        assert set(_raw_record(service.store, service.snapshot)) == {"gct"}
        assert service.snapshot.tsd is None

    def test_a_gct_less_version_starts_cold_and_gains_one(self, tmp_path):
        """A library caller may store a TSD alone; serving that content
        builds (and stores) the GCT once instead of failing."""
        graph = _two_cliques()
        store = IndexStore(tmp_path / "s")
        QueryEngine(graph).persist(store, artifacts=("tsd",))
        with pytest.raises(StoreError):
            DiversityService.warm(graph, store)
        first = DiversityService.start(graph, store=store)
        assert not first.warm_started
        assert store.current(graph).artifact_names == ["tsd", "gct"]
        again = DiversityService.start(graph, store=IndexStore(store.root))
        assert again.warm_started
        assert _ranked(again.top_r(3, 9)) == \
            _ranked(online_search(graph, 3, 9))


# ----------------------------------------------------------------------
# Stores an older release's service wrote: tsd, hybrid, scores.json
# ----------------------------------------------------------------------
#: The persisted score cache an older release wrote per version.
_LEGACY_SCORES_FORMAT = "repro-snapshot-scores"


class TestLegacyServedStores:
    """A store as an older release left it: each version beside ``gct``
    names ``tsd``/``hybrid`` and a ``scores.json`` score cache.  The
    head is a cross-lineage update version whose binary artifacts are
    deltas on the seeded first version's."""

    KS = (3, 4, 5, 6)

    @pytest.fixture
    def legacy(self, tmp_path):
        graph = _random_graph(40, 0.25, 31)
        root = tmp_path / "store"
        store = IndexStore(root)
        first = QueryEngine(graph).persist(store)  # tsd, gct, hybrid
        batch = next(_edge_batches(graph, 32, 1))
        head_snapshot, report = apply_batch(Snapshot.build(graph), batch)
        head_graph = head_snapshot.graph
        tsd = TSDIndex.build(head_graph)
        head = store.put(head_graph, tsd=tsd, gct=GCTIndex.compress(tsd),
                         hybrid=HybridSearcher.precompute(head_graph,
                                                          index=tsd),
                         previous=first,
                         changed_vertices=report.affected_vertices)
        manifest_path = root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for version, g in ((first, graph), (head, head_graph)):
            relpath = f"objects/{version.key}/v{version.version}/scores.json"
            thresholds = {}
            for k in (3, 4):
                ranked = online_search(g, k, g.num_vertices)
                thresholds[str(k)] = [list(pair) for pair in zip(
                    ranked.vertices, ranked.scores)]
            (root / relpath).write_text(json.dumps(
                {"format": _LEGACY_SCORES_FORMAT, "version": 1,
                 "thresholds": thresholds}), encoding="utf-8")
            manifest["graphs"][version.key]["versions"][
                str(version.version)]["scores"] = relpath
        manifest_path.write_text(json.dumps(manifest, indent=2),
                                 encoding="utf-8")
        return root, head_graph

    def _assert_ranks_like_a_cold_build(self, service, graph):
        cold = Snapshot.build(graph)
        n = graph.num_vertices
        for k in self.KS:
            for r in (1, 5, n):
                assert _ranked(service.top_r(k, r)) == \
                    _ranked(cold.top_r(k, r)), (k, r)

    def test_warm_starts_from_its_gct_with_zero_builds(self, legacy,
                                                       monkeypatch):
        from repro import build
        root, graph = legacy

        def refuse(*args, **kwargs):
            raise AssertionError("a warm start built or decoded an index")

        with monkeypatch.context() as patch:
            patch.setattr(build, "build_indexes", refuse)
            patch.setattr(TSDIndex, "__init__", refuse)
            patch.setattr(GCTIndex, "build", refuse)
            patch.setattr(GCTIndex, "compress", refuse)
            patch.setattr(HybridSearcher, "from_payload", refuse)
            patch.setattr(HybridSearcher, "precompute", refuse)
            service = DiversityService.start(graph, store=IndexStore(root))
        assert service.warm_started
        assert service.snapshot.cached_thresholds() == []  # none persisted
        self._assert_ranks_like_a_cold_build(service, graph)

    def test_first_batch_is_a_gct_delta_on_the_legacy_base(self, legacy):
        from repro.storage import ArtifactReader
        from repro.storage.writer import write_delta
        root, graph = legacy
        service = DiversityService.warm(graph, IndexStore(root))
        base = service.store.current(graph)
        assert base.artifact_names == ["tsd", "gct", "hybrid"]
        report = service.apply_updates(next(_edge_batches(graph, 33, 1)))
        after = service.store.current(service.snapshot.graph_view,
                                      key=service.snapshot.key)
        assert set(_raw_record(service.store, service.snapshot)) == \
            {"gct", "parent"}
        reference = root.parent / "reference-gct.bin"
        assert write_delta(root / base.artifacts["gct"], reference,
                           service.snapshot.gct.to_payload(),
                           report.affected_vertices, fingerprint=after.key)
        assert (root / after.artifacts["gct"]).read_bytes() == \
            reference.read_bytes()
        with ArtifactReader(root / after.artifacts["gct"]) as reader:
            assert reader.stats()["dead_bytes"] > 0  # a delta, not a rewrite
        self._assert_ranks_like_a_cold_build(service,
                                             service.snapshot.graph)

    def test_compact_reclaims_the_legacy_files(self, legacy):
        root, graph = legacy
        store = IndexStore(root)
        report = store.compact()
        assert report.reclaimed_bytes > 0
        assert not list(root.rglob("scores.json"))
        manifest = json.loads((root / "manifest.json").read_text())
        records = [record for entry in manifest["graphs"].values()
                   for record in entry["versions"].values()]
        assert records and all("scores" not in record for record in records)
        service = DiversityService.start(graph, store=IndexStore(root))
        assert service.warm_started
        self._assert_ranks_like_a_cold_build(service, graph)

        # Once an ack supersedes the legacy head, its tsd and hybrid go.
        service.apply_updates(next(_edge_batches(graph, 34, 1)))
        assert IndexStore(root).compact().reclaimed_bytes > 0
        assert sorted(p.name for p in (root / "objects").rglob("*")
                      if p.is_file()) == ["gct.bin"]
        revived = DiversityService.start(service.snapshot.graph,
                                         store=IndexStore(root))
        assert revived.warm_started
        self._assert_ranks_like_a_cold_build(revived,
                                             service.snapshot.graph)

    def test_replicates_to_a_follower_that_warm_starts(self, legacy):
        from repro.replication import replicate_store
        root, graph = legacy
        follower = root.parent / "follower"
        replicate_store(root, follower)
        replica = DiversityService.warm(graph, IndexStore(follower))
        self._assert_ranks_like_a_cold_build(replica, graph)

        service = DiversityService.warm(graph, IndexStore(root))
        service.apply_updates(next(_edge_batches(graph, 35, 1)))
        report = replicate_store(root, follower)
        assert (report.files_full, report.files_delta) == (0, 1)  # gct
        mutated = service.snapshot.graph
        replica = DiversityService.warm(mutated, IndexStore(follower))
        assert replica.snapshot.version == service.snapshot.version
        self._assert_ranks_like_a_cold_build(replica, mutated)
