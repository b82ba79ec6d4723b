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

from repro.errors import GraphError, InvalidParameterError, StoreError
from repro.graph.graph import Graph
from repro.core.online import online_search
from repro.core.tsd import TSDIndex
from repro.core.gct import GCTIndex
from repro.core.hybrid import HybridSearcher
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

    def test_put_scores_updates_current_version_in_place(self, figure1,
                                                         tmp_path):
        from repro.service import scores_from_payload, scores_to_payload
        store = IndexStore(tmp_path / "store")
        store.put(figure1, tsd=TSDIndex.build(figure1))
        snap = Snapshot.build(figure1)
        snap.top_r(4, 2)
        updated = store.put_scores(figure1,
                                   scores_to_payload(snap.score_entries()))
        assert updated.version == 1  # no new version minted
        assert "scores" in updated.artifacts
        loaded = IndexStore(tmp_path / "store").load(figure1)
        assert sorted(loaded.scores) == [4]
        score_map, ranking = loaded.scores[4]
        assert score_map["v"] == 3
        assert ranking[0] == ("v", 3)
        # An empty cache is not worth a write.
        assert store.put_scores(figure1, scores_to_payload({})) is None

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

    def test_gct_compressed_when_missing(self, figure1):
        snap = Snapshot(figure1, tsd=TSDIndex.build(figure1))
        assert snap.gct is not None
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
        """A batch costs its affected records: every other forest, GCT
        entry and derived column of the next indexes is the very object
        the previous snapshot holds, under fresh top-level dicts."""
        graph = _random_graph(40, 0.15, 21)
        snap = Snapshot.build(graph)
        u, v = next(iter(graph.edges()))
        nxt, report = apply_batch(snap, [delete(u, v), insert(0, "fresh")])
        untouched = [w for w in graph.vertices()
                     if w not in report.affected_vertices]
        assert untouched and "fresh" in report.affected_vertices
        pairs = [(snap.tsd._forests, nxt.tsd._forests),
                 (snap.tsd._weights, nxt.tsd._weights),
                 (snap.gct._supernodes, nxt.gct._supernodes),
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

    def test_new_vertex_drops_every_threshold(self):
        graph = _two_cliques()
        snap = Snapshot.build(graph)
        snap.top_r(2, 3)
        nxt, report = apply_batch(snap, [insert("a0", "newcomer")])
        assert report.vertex_set_changed
        assert report.invalidated_thresholds == (2,)
        assert nxt.cached_thresholds() == []
        assert _ranked(nxt.top_r(2, 10)) == \
            _ranked(online_search(nxt.graph, 2, 10))

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


class TestWorkCounts:
    @pytest.mark.parametrize("batch", [
        [delete("b2", "b3"), insert("a0", "b0")],
        [insert("b0", "newcomer"), insert("newcomer", "other")],
    ], ids=["same-vertex-set", "growing"])
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
# Persisted score caches
# ----------------------------------------------------------------------
class TestPersistedScores:
    def test_hot_thresholds_survive_a_warm_restart(self, tmp_path):
        """The tentpole storage claim: persisted score caches re-seed on
        warm start, so hot thresholds restart warm (search_space 0)."""
        graph = _random_graph(20, 0.35, 13)
        store = IndexStore(tmp_path / "store")
        first = DiversityService.start(graph, store=store)
        expected = {k: _ranked(first.top_r(k, 9)) for k in (3, 4)}
        assert first.persist_scores() == [3, 4]

        revived = DiversityService.start(graph,
                                         store=IndexStore(tmp_path / "store"))
        assert revived.warm_started
        assert revived.snapshot.cached_thresholds() == [3, 4]
        for k in (3, 4):
            result = revived.top_r(k, 9)
            assert result.search_space == 0  # served from the seeded cache
            assert _ranked(result) == expected[k]
        # Un-persisted thresholds still compute exactly.
        assert _ranked(revived.top_r(5, 9)) == \
            _ranked(online_search(graph, 5, 9))

    def test_persist_scores_requires_a_store(self, figure1):
        service = DiversityService.start(figure1)
        with pytest.raises(StoreError):
            service.persist_scores()

    def test_update_re_version_carries_retained_scores_to_disk(
            self, tmp_path):
        """apply_updates persists the surviving cache entries with the
        new version, so a restart after an update is warm for them."""
        graph = _two_cliques()
        store = IndexStore(tmp_path / "store")
        service = DiversityService.start(graph, store=store)
        for k in (2, 3, 4):
            service.top_r(k, 9)
        service.apply_updates([delete("b2", "b3")])  # drops k=3 only

        mutated = service.snapshot.graph
        revived = DiversityService.warm(mutated,
                                        IndexStore(tmp_path / "store"))
        assert revived.snapshot.cached_thresholds() == [2, 4]
        assert revived.top_r(2, 9).search_space == 0
        for k in (2, 3, 4):
            assert _ranked(revived.top_r(k, 9)) == \
                _ranked(online_search(mutated, k, 9)), k

    def test_scores_payload_round_trip(self):
        from repro.service import scores_from_payload, scores_to_payload
        snap = Snapshot.build(_two_cliques())
        snap.top_r(3, 4)
        entries = snap.score_entries()
        restored = scores_from_payload(
            json.loads(json.dumps(scores_to_payload(entries))))
        assert sorted(restored) == sorted(entries)
        for k, (score_map, ranking) in entries.items():
            assert restored[k][0] == score_map
            assert restored[k][1] == ranking
        with pytest.raises(InvalidParameterError):
            scores_from_payload({"format": "something-else"})
