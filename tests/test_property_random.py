"""Seeded random-graph differential harness: every surface, one answer.

The canonical ranking contract says all five search methods return the
*identical* ranked vertex list.  The targeted tests pin that on
hand-built graphs; this harness pins it on a randomized family — ~30
seeded Erdős–Rényi / planted-clique / star-heavy graphs — across every
serving surface the system has grown:

* the five methods + ``auto`` through :class:`QueryEngine`,
* the immutable :class:`Snapshot` the service layer serves from,
* the process-sharded cluster **over the wire** (worker processes
  behind the consistent-hash frontend),
* the GCT *score postings* every index-backed answer is read from
  (``ranking`` / ``scores_for_all`` / ``top_r`` ≡ the per-vertex
  ``score`` scan; eager ≡ compressed ≡ lazy mmap),
* the *work of a memo miss* on the engine, the snapshot and the router:
  no whole-graph scan, memo entries of exactly ``postings_k`` rows,
  answers ≡ the brute-force canonical oracle, ``score`` ≡ Lemma 3,
* ``contexts`` ≡ the :class:`DisjointSet` oracle (order included) and
  the Alg. 4 bound on every postings row, before and after batches,
* the *incremental* index: after each of several update batches the
  successor GCT (which shares every unaffected record with its
  predecessor) encodes byte-for-byte like a from-scratch build — its
  patched score postings included — the predecessor snapshot still
  answers bit-identically, and the cache invalidation read off GCT
  score profiles is the one the TSD oracle's profiles give,
* the *stored* versions those batches write (vertex-attaching ones
  included, which re-version as relaid deltas): each verifies its
  checksum, warm-starts like a scratch build, and replicates to a
  follower that warm-starts the same.

Sweeps include the adversarial corners: ``r > n`` (zero-fill past the
scored vertices), ``k`` above the maximum trussness (all-zero
rankings, ties broken purely by insertion order), and graphs with no
edges at all.  Everything is seeded — a failure reproduces exactly.
"""

import json
import random

import pytest

from repro.build import build_indexes
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.core.gct import GCTIndex
from repro.core.online import online_search
from repro.datasets.synthetic import add_planted_cliques, erdos_renyi
from repro.engine import QueryEngine
from repro.replication import replicate_store
from repro.service import DiversityService, IndexStore
from repro.service.snapshot import Snapshot
from repro.service.store import graph_fingerprint
from repro.storage import ArtifactReader, write_artifact
from repro.storage.lazy import open_gct_artifact
from repro.service.updates import apply_batch
from repro.cluster import ShardedCluster
from repro.server import DiversityRouter, ServerClient
from repro.util.jsonio import dumps_payload
from tests.helpers import (
    canonical_top_r,
    check_score_postings,
    dsu_contexts,
    lemma3_score,
)

#: Trussness thresholds swept per graph; 40 exceeds every graph's
#: maximum trussness in this family (the biggest planted clique is 7).
K_SWEEP = (2, 3, 4, 5, 40)


def _star_heavy(num_hubs: int, leaves_per_hub: int, seed: int) -> Graph:
    """A few high-degree hubs, mostly degree-1 leaves, a thin layer of
    triangles — the degenerate-ego regime (scores 0/1 everywhere, huge
    zero-fill tails) that stresses tie-breaking, not trussness."""
    rng = random.Random(seed)
    g = Graph()
    for h in range(num_hubs):
        hub = f"hub{h}"
        leaves = [f"h{h}_l{i}" for i in range(leaves_per_hub)]
        for leaf in leaves:
            g.add_edge(hub, leaf)
        # Close a few triangles so some contexts are non-trivial.
        for _ in range(max(1, leaves_per_hub // 4)):
            a, b = rng.sample(leaves, 2)
            g.add_edge(a, b)
    for h in range(num_hubs - 1):
        g.add_edge(f"hub{h}", f"hub{h + 1}")
    return g


def _graph_family():
    """The ~30 seeded graphs under differential test."""
    graphs = []
    for i, (n, p) in enumerate([(8, 0.2), (12, 0.3), (16, 0.25),
                                (16, 0.5), (20, 0.2), (20, 0.4),
                                (24, 0.15), (24, 0.3), (28, 0.2),
                                (28, 0.35), (14, 0.6), (10, 0.8)]):
        graphs.append((f"er{i}", erdos_renyi(n, p, seed=100 + i)))
    for i, (n, p, sizes) in enumerate([(14, 0.1, [5]), (18, 0.12, [6, 4]),
                                       (20, 0.1, [7]), (22, 0.15, [5, 5]),
                                       (24, 0.08, [6]), (16, 0.2, [4, 4]),
                                       (26, 0.1, [7, 3]), (20, 0.05, [5])]):
        base = erdos_renyi(n, p, seed=200 + i)
        graphs.append((f"pc{i}", add_planted_cliques(base, sizes,
                                                     seed=300 + i)))
    for i, (hubs, leaves) in enumerate([(2, 10), (3, 8), (1, 20), (4, 6),
                                        (2, 15), (3, 12), (5, 5), (1, 12)]):
        graphs.append((f"star{i}", _star_heavy(hubs, leaves, seed=400 + i)))
    graphs.append(("noedges", Graph(vertices=range(7))))
    graphs.append(("void", Graph()))
    return graphs


FAMILY = _graph_family()


def _sweep(graph: Graph):
    """(k, r) pairs for one graph, r > n included."""
    n = graph.num_vertices
    return [(k, r) for k in K_SWEEP for r in (1, 3, n + 7)]


def _canonical(result):
    return list(zip(result.vertices, result.scores))


def _reference(graph: Graph):
    """The baseline's answers, the differential oracle for one graph."""
    return {(k, r): _canonical(online_search(graph, k, r))
            for k, r in _sweep(graph)}


@pytest.fixture(scope="module", params=[name for name, _ in FAMILY])
def case(request):
    graph = dict(FAMILY)[request.param]
    return request.param, graph, _reference(graph)


@pytest.fixture(scope="module")
def family_cluster():
    """One 2-worker cluster hosting the whole family (spawning a fleet
    per graph would swamp the suite; placement still spans workers)."""
    with ShardedCluster(workers=2, supervise=False).start(port=0) as cluster:
        for name, graph in FAMILY:
            cluster.add_graph(name, graph=graph)
        client = ServerClient(cluster.url)
        placements = {cluster.owner(name) for name, _ in FAMILY}
        assert placements == {0, 1}, \
            "family should span both workers for a meaningful test"
        yield client
        client.close()


class TestDifferentialRankings:
    def test_five_methods_and_auto_agree(self, case):
        name, graph, reference = case
        engine = QueryEngine(graph)
        for k, r in _sweep(graph):
            for method in ("baseline", "bound", "tsd", "gct", "hybrid",
                           "auto"):
                result = engine.top_r(k, r, method=method)
                assert _canonical(result) == reference[(k, r)], \
                    (name, method, k, r)

    def test_score_postings_equal_the_per_vertex_scan(self, case, tmp_path):
        name, graph, _ = case
        check_score_postings(graph, tmp_path)

    def test_snapshot_serves_the_same_rankings(self, case):
        name, graph, reference = case
        snapshot = Snapshot.build(graph)
        for k, r in _sweep(graph):
            result = snapshot.top_r(k, r, collect_contexts=False)
            assert _canonical(result) == reference[(k, r)], (name, k, r)

    def test_mmap_warm_start_serves_the_same_rankings(self, case,
                                                      tmp_path_factory):
        """A service warm-started from a store — lazy mmap-backed
        indexes, no materialised forests — answers every sweep query
        rank-identically to the online baseline."""
        from repro.service import DiversityService
        from repro.service.store import IndexStore
        name, graph, reference = case
        root = tmp_path_factory.mktemp(f"binstore-{name}")
        DiversityService.start(graph, store=IndexStore(root))
        warm = DiversityService.start(graph, store=IndexStore(root))
        assert warm.warm_started, name
        for k, r in _sweep(graph):
            result = warm.top_r(k, r, collect_contexts=False)
            assert _canonical(result) == reference[(k, r)], (name, k, r)

    def test_cluster_wire_serves_the_same_rankings(self, case,
                                                   family_cluster):
        """End to end: worker process, HTTP, consistent-hash proxy —
        the bytes that reach a remote client carry the same canonical
        ranking the in-process baseline computes."""
        name, graph, reference = case
        for k, r in _sweep(graph):
            wire = family_cluster.top_r(name, k=k, r=r)
            wire_ranked = [(tuple(v) if isinstance(v, list) else v, s)
                           for v, s in zip(wire["vertices"],
                                           wire["scores"])]
            assert wire_ranked == reference[(k, r)], (name, k, r)

    def test_rankings_are_exact_json_round_trips(self, case,
                                                 family_cluster):
        """Byte-level check: the wire body's vertices/scores JSON equals
        the JSON encoding of the in-process answer (no float drift, no
        re-ordering in serialisation)."""
        name, graph, reference = case
        k, r = 3, graph.num_vertices + 7
        wire = family_cluster.top_r(name, k=k, r=r)
        expected = online_search(graph, k, r)
        assert json.dumps(wire["vertices"]) == \
            json.dumps([list(v) if isinstance(v, tuple) else v
                        for v in expected.vertices])
        assert json.dumps(wire["scores"]) == json.dumps(expected.scores)

    def test_zero_fill_tail_is_insertion_ordered(self, case):
        """For k above max trussness every score is 0 and the ranking
        must be exactly graph insertion order — the tie-break leg of
        the canonical contract, isolated."""
        name, graph, reference = case
        n = graph.num_vertices
        answer = reference[(40, n + 7)]
        assert answer == [(v, 0) for v in graph.vertices()], name

    def test_r_beyond_n_returns_every_vertex_once(self, case):
        name, graph, reference = case
        n = graph.num_vertices
        for k in K_SWEEP:
            answer = reference[(k, n + 7)]
            assert len(answer) == n, (name, k)
            assert len({v for v, _ in answer}) == n, (name, k)


#: Thresholds the miss-work sweep serves (the planted cliques reach 7).
MISS_KS = (3, 4, 5, 6)


class TestMissWork:
    """A memo miss costs the threshold's postings, not the graph: on the
    engine, the :class:`Snapshot` and the router alike, no served path
    builds an n-entry score map or ranking, each memo entry holds
    exactly the ``postings_k`` positive rows, every answer is the
    canonical one, and point lookups are Lemma 3 with or without a
    memo entry."""

    @staticmethod
    def _forbid_whole_graph_scans(monkeypatch):
        def forbidden(self, k):
            raise AssertionError(f"whole-graph scan at k={k} on a "
                                 "served path")
        monkeypatch.setattr(GCTIndex, "scores_for_all", forbidden)
        monkeypatch.setattr(GCTIndex, "ranking", forbidden)

    def test_engine_snapshot_and_router_misses(self, case, monkeypatch):
        name, graph, _ = case
        self._forbid_whole_graph_scans(monkeypatch)
        n = graph.num_vertices
        oracle = {k: canonical_top_r(graph, k, n) for k in MISS_KS}
        engine = QueryEngine(graph)
        snapshot = Snapshot.build(graph)
        router = DiversityRouter()
        router.add_graph(name, graph)
        served = router.service(name)
        paths = {
            "engine": (lambda k, r: engine.top_r(k, r, method="gct"),
                       engine.score,
                       lambda: (engine.gct_index,
                                engine._cache.entries())),
            "snapshot": (snapshot.top_r, snapshot.score,
                         lambda: (snapshot.gct,
                                  snapshot.score_entries())),
            "router": (lambda k, r: router.top_r(name, k, r),
                       lambda v, k: router.score(name, v, k),
                       lambda: (served.snapshot.gct,
                                served.snapshot.score_entries())),
        }
        for path, (top_r, score, memo) in paths.items():
            for k in MISS_KS:     # no memo entry yet
                for v in graph.vertices():
                    assert score(v, k) == lemma3_score(
                        memo()[0], v, k), (name, path, v, k)
            for k in MISS_KS:
                for r in (1, 10, n + 5):
                    result = top_r(k, r)
                    assert _canonical(result) == oracle[k][:r], \
                        (name, path, k, r)
            index, entries = memo()
            assert sorted(entries) == list(MISS_KS), (name, path)
            for k in MISS_KS:
                assert len(entries[k]) == len(index._postings_at(k)[0]), \
                    (name, path, k)
                assert entries[k] == [row for row in oracle[k]
                                      if row[1] > 0], (name, path, k)
                for v in graph.vertices():
                    assert score(v, k) == lemma3_score(index, v, k), \
                        (name, path, v, k)


def _gct_bytes(gct):
    """The artifact in canonical byte form — key order counts."""
    return dumps_payload(gct.to_payload(include_profile=False))


def _observe(snapshot: Snapshot):
    """Everything a reader can see of a snapshot, deep-copied."""
    graph = snapshot.graph_view
    vertices = list(graph.vertices())
    return {
        "rankings": {(k, r): _canonical(
            snapshot.top_r(k, r, collect_contexts=False))
            for k, r in _sweep(graph)},
        "gct_rankings": {k: snapshot.gct.ranking(k) for k in K_SWEEP},
        "gct_top_r": {(k, r): _canonical(
            snapshot.gct.top_r(k, r, collect_contexts=False))
            for k, r in _sweep(graph)},
        "supernodes": {v: snapshot.gct.supernodes(v) for v in vertices},
        "superedges": {v: snapshot.gct.superedges(v) for v in vertices},
        "bytes": _gct_bytes(snapshot.gct),
    }


def _batches(graph: Graph, rng: random.Random, rounds: int = 1):
    """Seeded batches, each valid on the graph its predecessors left:
    same-vertex-set, vertex-attaching, one that deletes a vertex's last
    edges (it stays, isolated, with an empty record), same-set twice
    more — that cycle ``rounds`` times."""
    graph = graph.copy()
    attached = iter(range(rounds))

    def applied(batch):
        for op, u, v in batch:
            (graph.add_edge if op == "insert" else graph.remove_edge)(u, v)
        return batch

    def same_set():
        batch = [("delete", u, v) for u, v in
                 rng.sample(sorted(graph.edges(), key=repr),
                            min(2, graph.num_edges))]
        vertices = list(graph.vertices())
        absent = [(u, v) for i, u in enumerate(vertices)
                  for v in vertices[i + 1:] if not graph.has_edge(u, v)]
        batch += [("insert", u, v)
                  for u, v in rng.sample(absent, min(2, len(absent)))]
        return applied(batch)

    def attaching():
        tag = next(attached) or ""
        a, b = f"new-a{tag}", f"new-b{tag}"
        anchors = rng.sample(list(graph.vertices()),
                             min(3, graph.num_vertices))
        batch = [("insert", a, b)]
        batch += [("insert", anchor, a) for anchor in anchors]
        batch += [("insert", anchor, b) for anchor in anchors[:1]]
        return applied(batch)

    def isolating():
        connected = [v for v in graph.vertices() if graph.degree(v)]
        victim = rng.choice(connected)
        return applied([("delete", victim, u) for u in
                        sorted(graph.neighbors(victim), key=repr)])

    for make in (same_set, attaching, isolating, same_set,
                 same_set) * rounds:
        batch = make()
        if batch:
            yield batch


def _derived_postings(gct):
    """The index's score postings, derived now if nobody scanned it."""
    gct.ranking(2)
    return gct._postings


class TestIncrementalSuccessors:
    def test_successors_encode_like_scratch_builds(self, case):
        """After every batch the shared-state successor GCT equals a
        from-scratch build byte for byte (dict order included), ranks
        like the online baseline, and leaves every earlier snapshot —
        whose records it shares — bit-identical.  Each predecessor is
        warm (``_observe`` queried it), so the successor's score
        postings are the predecessor's, patched: they must equal, array
        for array, the ones a scratch build derives."""
        name, graph, _ = case
        rng = random.Random(f"successors-{name}")
        current = Snapshot.build(graph)
        held = [(current, _observe(current))]
        for batch in _batches(graph, rng):
            current, report = apply_batch(current, batch)
            after = current.graph_view
            scratch = build_indexes(after)
            assert _gct_bytes(current.gct) == _gct_bytes(scratch[1]), \
                (name, batch)
            assert current.gct._postings is not None, (name, batch)
            assert current.gct._postings == _derived_postings(scratch[1]), \
                (name, batch)
            # ... and so are the shared zero-tail rows: the predecessor's
            # own tuples, plus one per attached vertex.
            rows, before = current.gct._zero_rows, held[-1][0].gct._zero_rows
            assert rows == [(v, 0) for v in after.vertices()], (name, batch)
            assert all(a is b for a, b in zip(rows, before)), (name, batch)
            for k, r in _sweep(after):
                assert _canonical(current.top_r(k, r, False)) == \
                    _canonical(online_search(after, k, r)), (name, k, r)
            held.append((current, _observe(current)))
        for snapshot, seen in held:
            assert _observe(snapshot) == seen, name

    def test_invalidation_matches_the_tsd_oracle(self, case):
        """The update path reads pre-batch score profiles off the GCT.
        Before and after every batch they equal a scratch TSD's for
        every vertex, and the thresholds a batch drops and keeps are
        the ones the TSD profiles of the whole graph imply."""
        name, graph, _ = case

        def profiles(tsd, vertices):
            return {v: tsd.score_profile(v) if v in tsd else {}
                    for v in vertices}

        def assert_gct_profiles_match(snapshot, tsd):
            vertices = list(snapshot.graph_view.vertices())
            assert {v: snapshot.gct.score_profile(v) for v in vertices} \
                == profiles(tsd, vertices), name

        current = Snapshot.build(graph)
        oracle = build_indexes(graph)[0]
        for batch in _batches(graph, random.Random(f"oracle-{name}")):
            assert_gct_profiles_match(current, oracle)
            for k in K_SWEEP:
                current.top_r(k, 1, collect_contexts=False)
            cached = set(current.cached_thresholds())
            nxt, report = apply_batch(current, batch)
            next_oracle = build_indexes(nxt.graph_view)[0]
            vertices = list(nxt.graph_view.vertices())
            old, new = profiles(oracle, vertices), profiles(next_oracle,
                                                            vertices)
            changed = {k for v in vertices
                       for k in set(old[v]) | set(new[v])
                       if old[v].get(k, 0) != new[v].get(k, 0)}
            invalidated = cached & changed
            assert report.invalidated_thresholds == \
                tuple(sorted(invalidated)), (name, batch)
            assert report.retained_thresholds == \
                tuple(sorted(cached - invalidated)), (name, batch)
            current, oracle = nxt, next_oracle
        assert_gct_profiles_match(current, oracle)

    def test_contexts_and_the_alg4_bound_across_batches(self, case,
                                                         tmp_path):
        """Before and after every batch: ``contexts(v, k)`` equals the
        :class:`DisjointSet` oracle — same contexts, same order — for
        every vertex and every ``k`` from 2 to the largest tau, on the
        served index and on its lazy mmap twin; and every postings row
        obeys Alg. 4's bound ``score ≤ ⌊|{e ∈ TSD_v : w(e) ≥ k}| /
        (k − 1)⌋`` (each context spans ≥ k − 1 forest edges)."""
        name, graph, _ = case

        def check(snapshot, step):
            gct = snapshot.gct
            path = tmp_path / f"contexts-{step}.bin"
            write_artifact(path, gct.to_payload())
            lazy = open_gct_artifact(path)
            tsd = build_indexes(snapshot.graph_view)[0]
            vertices = gct.vertices
            max_tau = max((tau for v in vertices
                           for tau, _ in gct.supernodes(v)), default=1)
            for v in vertices:
                for k in range(2, max_tau + 1):
                    want = dsu_contexts(gct, v, k)
                    assert gct.contexts(v, k) == want, (name, step, v, k)
                    assert lazy.contexts(v, k) == want, (name, step, v, k)
            for index in (gct, lazy):
                with pytest.raises(InvalidParameterError):
                    index.contexts("no-such-vertex", 2)
            lazy._supernodes.reader.close()
            for k in range(2, max_tau + 1):
                positions, scores = gct._postings_at(k)
                for pos, score in zip(positions, scores):
                    forest = tsd.forest(vertices[pos])
                    heavy = sum(weight >= k for _, _, weight in forest)
                    assert score <= heavy // (k - 1), \
                        (name, step, vertices[pos], k)

        current = Snapshot.build(graph)
        check(current, 0)
        for step, batch in enumerate(
                _batches(graph, random.Random(f"contexts-{name}")), 1):
            current, _ = apply_batch(current, batch)
            check(current, step)

    def test_unscanned_predecessor_hands_on_no_postings(self, case):
        """The update path must not pay for a column nobody asked for:
        the successor of an index that never derived its postings
        derives its own on demand — and then like a scratch build."""
        name, graph, _ = case
        current = Snapshot.build(graph)
        for batch in _batches(graph, random.Random(f"unscanned-{name}")):
            current, _ = apply_batch(current, batch)
            assert current.gct._postings is None, (name, batch)
        scratch = build_indexes(current.graph_view)[1]
        assert _derived_postings(current.gct) == \
            _derived_postings(scratch), name


def _rebuilt(graph: Graph) -> Graph:
    """The same content built from scratch: fresh dicts, fresh sets."""
    return Graph(vertices=list(graph.vertices()), edges=list(graph.edges()))


class TestIncrementalStoreKey:
    """The store key an ack files its version under is derived from the
    predecessor's per-vertex segments, and the graph it hashes is a
    branch sharing the predecessor's untouched adjacency sets."""

    def test_successor_keys_equal_a_full_fingerprint(self, case):
        """After every batch — vertex-growing ones, and insert-then-delete
        round trips within one batch and across two — the derived key
        equals a full fingerprint of the snapshot's graph and of the
        same content rebuilt from scratch."""
        name, graph, _ = case
        current = Snapshot.build(graph)
        assert current.content_key == graph_fingerprint(graph), name

        def step(batch):
            nonlocal current
            current, _ = apply_batch(current, batch)
            assert current.content is not None, (name, batch)  # derived
            view = current.graph_view
            assert current.content_key == graph_fingerprint(view) == \
                graph_fingerprint(_rebuilt(view)), (name, batch)
            return current.content_key

        for batch in _batches(graph, random.Random(f"key-{name}"), rounds=2):
            step(batch)
        assert current.num_vertices > graph.num_vertices, name  # grew
        view = current.graph_view
        vertices = list(view.vertices())
        u, v = next((a, b) for i, a in enumerate(vertices)
                    for b in vertices[i + 1:] if not view.has_edge(a, b))
        x, y = min(view.edges(), key=repr)
        before = current.content_key
        assert step([("insert", u, v), ("delete", u, v)]) == before, name
        assert step([("insert", u, v), ("delete", x, y)]) != before, name
        assert step([("delete", u, v), ("insert", x, y)]) == before, name

    def test_earlier_snapshots_keep_key_edges_and_rankings(self, case):
        """Ten and more later batches mutate branches of each earlier
        snapshot's graph; none may reach into it."""
        name, graph, _ = case

        def seen(snapshot):
            view = snapshot.graph_view
            n = view.num_vertices
            return {
                "key": snapshot.content_key,
                "fingerprint": graph_fingerprint(view),
                "edges": sorted(sorted(map(repr, edge))
                                for edge in view.edges()),
                "served": [_canonical(snapshot.top_r(k, n + 7, False))
                           for k in K_SWEEP],
                "online": [_canonical(online_search(view, k, n + 7))
                           for k in K_SWEEP],
            }

        current = Snapshot.build(graph)
        held = []
        for batch in _batches(graph, random.Random(f"alias-{name}"),
                              rounds=3):
            held.append((current, seen(current)))
            current, _ = apply_batch(current, batch)
        assert len(held) > 10, name
        for snapshot, before in held:
            assert seen(snapshot) == before, (name, snapshot.version)


class TestStoredGrowingVersions:
    """A vertex-attaching batch re-versions the stored indexes as a
    delta (a relaid heap), like a same-set batch; every stored version
    must still verify, warm-start and replicate like a scratch build."""

    @staticmethod
    def _stored_batches(graph, seed):
        """Two rounds of seeded batches: each attaches vertices once,
        then applies same-set batches on top of the grown version."""
        return _batches(graph, random.Random(seed), rounds=2)

    @staticmethod
    def _verify(store, snapshot):
        version = store.current(snapshot.graph_view, key=snapshot.key)
        assert version.artifact_names == ["gct"]
        assert version.artifacts["gct"].endswith("gct.bin")
        with ArtifactReader(store.root / version.artifacts["gct"]) as r:
            r.verify_checksum()
        return version

    def test_warm_restarts_rank_like_a_scratch_build(self, case, tmp_path):
        """After every batch the stored version verifies, and a warm
        start on the same content rebuilt from scratch answers like
        ``Snapshot.build``."""
        name, graph, _ = case
        store = IndexStore(tmp_path / "store")
        service = DiversityService.start(graph, store=store)
        grew = 0
        for batch in self._stored_batches(graph, f"stored-{name}"):
            before = service.snapshot.num_vertices
            service.apply_updates(batch)
            grew += service.snapshot.num_vertices > before
            self._verify(store, service.snapshot)
            rebuilt = _rebuilt(service.snapshot.graph_view)
            warm = DiversityService.warm(rebuilt, IndexStore(store.root))
            cold = Snapshot.build(rebuilt)
            for k, r in _sweep(rebuilt):
                assert _canonical(warm.top_r(k, r, False)) == \
                    _canonical(cold.top_r(k, r, False)), (name, batch, k, r)
        assert grew == 2, name

    def test_followers_replicate_grown_versions(self, case, tmp_path):
        """Synced after every batch, a follower verifies and warm-starts
        each head.  A grown version ships whole (its dictionary moved);
        a same-set version ships as byte ranges over its local base."""
        name, graph, _ = case
        store = IndexStore(tmp_path / "store")
        follower = tmp_path / "follower"
        service = DiversityService.start(graph, store=store)
        replicate_store(store.root, follower)
        for batch in self._stored_batches(graph, f"replica-{name}"):
            before = service.snapshot.num_vertices
            service.apply_updates(batch)
            grown = service.snapshot.num_vertices > before
            report = replicate_store(store.root, follower)
            assert report.files_delta == (0 if grown else 1), (name, batch)
            replica = IndexStore(follower)
            version = self._verify(replica, service.snapshot)
            assert version.version == service.snapshot.version
            view = service.snapshot.graph_view
            loaded = replica.load(_rebuilt(view))
            for k, r in _sweep(view):
                assert _canonical(loaded.gct.top_r(k, r, False)) == \
                    _canonical(service.top_r(k, r, False)), (name, k, r)
