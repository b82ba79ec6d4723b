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
* the *incremental* indexes: after each of several update batches the
  successor indexes (which share every unaffected record with their
  predecessor) encode byte-for-byte like a from-scratch build — their
  patched score postings included — and the predecessor snapshot still
  answers bit-identically.

Sweeps include the adversarial corners: ``r > n`` (zero-fill past the
scored vertices), ``k`` above the maximum trussness (all-zero
rankings, ties broken purely by insertion order), and graphs with no
edges at all.  Everything is seeded — a failure reproduces exactly.
"""

import json
import random

import pytest

from repro.build import build_indexes, repair_forests
from repro.graph.graph import Graph
from repro.core.gct import assemble_from_forest
from repro.core.online import online_search
from repro.datasets.synthetic import add_planted_cliques, erdos_renyi
from repro.engine import QueryEngine
from repro.service.snapshot import Snapshot
from repro.service.store import graph_fingerprint
from repro.service.updates import apply_batch
from repro.cluster import ShardedCluster
from repro.server import ServerClient
from repro.util.jsonio import dumps_payload
from tests.helpers import check_score_postings

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


def _index_bytes(tsd, gct):
    """Both artifacts in canonical byte form — key order counts."""
    return (dumps_payload(tsd.to_payload(include_profile=False)),
            dumps_payload(gct.to_payload(include_profile=False)))


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
        "forests": {v: snapshot.tsd.forest(v) for v in vertices},
        "supernodes": {v: snapshot.gct.supernodes(v) for v in vertices},
        "superedges": {v: snapshot.gct.superedges(v) for v in vertices},
        "bytes": _index_bytes(snapshot.tsd, snapshot.gct),
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
        """After every batch the shared-state successor indexes equal a
        from-scratch build byte for byte (dict order included), rank
        like the online baseline, and leave every earlier snapshot —
        whose records they share — bit-identical.  Each predecessor is
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
            assert _index_bytes(current.tsd, current.gct) == \
                _index_bytes(*scratch), (name, batch)
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
        # Mutation hooks on the newest index must not reach the others.
        vertices = list(current.graph_view.vertices())
        current.tsd.replace_forest(vertices[0], [])
        current.tsd.drop_vertex(vertices[-1])
        for snapshot, seen in held[:-1]:
            assert _observe(snapshot) == seen, name

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

    def test_successor_drops_vertices(self, case):
        """The shrunk-vertex-set leg, driven directly (an edge batch
        never removes a vertex): dropping ``x`` and repairing ``N(x)``
        equals a from-scratch build of the graph without ``x``."""
        name, graph, _ = case
        connected = [v for v in graph.vertices() if graph.degree(v)]
        if not connected:
            pytest.skip("no vertex with an ego-network to lose")
        victim = random.Random(f"drop-{name}").choice(connected)
        tsd, gct = build_indexes(graph)
        before = _index_bytes(tsd, gct)
        warm = _derived_postings(gct)
        smaller = graph.copy()
        neighbours = set(smaller.neighbors(victim))
        smaller.remove_vertex(victim)
        order = list(smaller.vertices())
        position = {v: i for i, v in enumerate(order)}
        targets = sorted(neighbours, key=position.__getitem__)
        repaired = repair_forests(smaller, targets)
        forests = {v: repaired[v] for v in targets}
        next_tsd = tsd.successor(order, forests, dropped=[victim])
        next_gct = gct.successor(
            order, {v: assemble_from_forest(forest, position)
                    for v, forest in forests.items()}, dropped=[victim])
        assert _index_bytes(next_tsd, next_gct) == \
            _index_bytes(*build_indexes(smaller)), name
        assert victim not in next_tsd and victim not in next_gct
        assert _index_bytes(tsd, gct) == before, name
        # Dropping a vertex shifts positions: the warm predecessor's
        # postings are not patched, the successor re-derives its own.
        assert next_gct._postings is None and gct._postings is warm, name
        assert next_gct._zero_rows is None, name
        assert _derived_postings(next_gct) == \
            _derived_postings(build_indexes(smaller)[1]), name


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
