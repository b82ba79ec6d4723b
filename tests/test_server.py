"""Tests for the server layer: router, HTTP front, client.

The acceptance contract of the subsystem:

* **Wire fidelity** — an HTTP ``top_r`` answer is byte-identical
  (vertices, scores) to the in-process
  :meth:`DiversityService.top_r` for the same snapshot.
* **Multi-graph routing** — one process serves many named graphs;
  queries and updates route by name and never leak across graphs.
* **Snapshot isolation over the wire** — concurrent HTTP readers
  during a ``POST /updates`` see either the old or the new answer,
  never a torn one.
"""

import json
import random
import threading

import pytest

from repro.errors import (
    InvalidParameterError,
    ServerError,
    StoreError,
    UnknownGraphError,
)
from repro.graph.graph import Graph
from repro.core.online import online_search
from repro.datasets.synthetic import powerlaw_cluster
from repro.server import DiversityRouter, ServerClient, serve
from repro.service import DiversityService, IndexStore, delete, insert

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
    """A 5-clique and a disjoint 4-clique (see test_service.py)."""
    g = Graph()
    a = [f"a{i}" for i in range(5)]
    b = [f"b{i}" for i in range(4)]
    for clique in (a, b):
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                g.add_edge(clique[i], clique[j])
    return g


@pytest.fixture
def fleet(tmp_path):
    """A two-graph router behind a live HTTP server, with a client."""
    router = DiversityRouter(store=IndexStore(tmp_path / "store"))
    router.add_graph("cliques", _two_cliques())
    router.add_graph("random", _random_graph(18, 0.35, 11))
    server = serve(router, port=0)
    client = ServerClient(f"http://127.0.0.1:{server.server_port}")
    try:
        yield router, server, client
    finally:
        server.shutdown()
        server.server_close()


# ----------------------------------------------------------------------
# DiversityRouter
# ----------------------------------------------------------------------
class TestDiversityRouter:
    def test_routes_by_name_without_cross_talk(self):
        router = DiversityRouter()
        router.add_graph("cliques", _two_cliques())
        router.add_graph("random", _random_graph(18, 0.35, 11))
        for name, graph in (("cliques", _two_cliques()),
                            ("random", _random_graph(18, 0.35, 11))):
            for k, r in GRID:
                assert _ranked(router.top_r(name, k, r)) == \
                    _ranked(online_search(graph, k, r)), (name, k, r)

    def test_unknown_name_raises(self):
        router = DiversityRouter()
        with pytest.raises(UnknownGraphError):
            router.top_r("ghost", 3, 1)
        with pytest.raises(UnknownGraphError):
            router.remove_graph("ghost")

    def test_bad_and_duplicate_names_rejected(self):
        router = DiversityRouter()
        router.add_graph("ok-name.v1", _two_cliques())
        with pytest.raises(InvalidParameterError):
            router.add_graph("ok-name.v1", _two_cliques())
        for bad in ("", "has/slash", "has space", ".hidden"):
            with pytest.raises(InvalidParameterError):
                router.add_graph(bad, _two_cliques())

    def test_remove_graph_returns_service(self):
        router = DiversityRouter()
        added = router.add_graph("g", _two_cliques())
        assert router.remove_graph("g") is added
        assert router.graphs() == []

    def test_shared_store_warm_starts_every_graph(self, tmp_path):
        g1, g2 = _two_cliques(), _random_graph(18, 0.35, 11)
        first = DiversityRouter(store=IndexStore(tmp_path / "store"))
        first.add_graph("a", g1)
        first.add_graph("b", g2)
        second = DiversityRouter(store=IndexStore(tmp_path / "store"))
        assert second.add_graph("a", g1).warm_started
        assert second.add_graph("b", g2).warm_started

    def test_store_accepts_a_path(self, tmp_path):
        router = DiversityRouter(store=tmp_path / "store")
        assert isinstance(router.store, IndexStore)

    def test_compact_requires_store(self):
        with pytest.raises(StoreError):
            DiversityRouter().compact()

    def test_updates_route_to_one_graph_only(self):
        router = DiversityRouter()
        router.add_graph("a", _two_cliques())
        router.add_graph("b", _two_cliques())
        before = _ranked(router.top_r("b", 3, 9))
        router.apply_updates("a", [delete("b2", "b3")])
        assert router.service("a").snapshot.version == 1
        assert router.service("b").snapshot.version == 0
        assert _ranked(router.top_r("b", 3, 9)) == before

    def test_compact_protects_registered_but_superseded_lineages(
            self, tmp_path):
        """Regression: two names can share one lineage (same graph
        content).  When one of them updates, the shared head becomes
        'superseded' — but the other service still serves it, so
        router.compact() must keep it alive."""
        router = DiversityRouter(store=IndexStore(tmp_path / "store"))
        shared = _two_cliques()
        router.add_graph("a", shared)
        router.add_graph("b", shared.copy())  # same content, same lineage
        assert router.service("b").warm_started
        router.top_r("b", 3, 9)
        router.apply_updates("a", [delete("b2", "b3")])

        report = router.compact()
        assert router.service("b").snapshot.key not in report.removed_keys
        # "b" can still warm-start from its head.
        revived = DiversityService.warm(shared,
                                        IndexStore(tmp_path / "store"))
        assert _ranked(revived.top_r(3, 9)) == \
            _ranked(online_search(shared, 3, 9))

    def test_stats_payload_aggregates(self):
        router = DiversityRouter()
        router.add_graph("a", _two_cliques())
        router.add_graph("b", _two_cliques())
        router.top_r("a", 3, 1)
        router.top_r("b", 3, 1)
        router.score("b", "a0", 3)
        stats = router.stats_payload()
        assert stats["queries_total"] == 3
        assert stats["graphs"]["a"]["queries"] == 1
        assert stats["graphs"]["b"]["queries"] == 2


# ----------------------------------------------------------------------
# HTTP round trips
# ----------------------------------------------------------------------
class TestHTTPRoundTrip:
    def test_top_r_byte_identical_to_in_process(self, fleet):
        """The acceptance bar: wire answers == in-process answers."""
        router, _, client = fleet
        for name in ("cliques", "random"):
            service = router.service(name)
            for k, r in GRID:
                wire = client.top_r(name, k=k, r=r)
                local = service.top_r(k, r, collect_contexts=False)
                assert json.dumps(wire["vertices"]) == \
                    json.dumps(local.vertices), (name, k, r)
                assert json.dumps(wire["scores"]) == \
                    json.dumps(local.scores), (name, k, r)

    def test_routed_and_wire_answers_equal_a_standalone_service(self):
        """A multi-graph router, and the HTTP front over it, answer like
        a single-graph service started on its own (formerly asserted by
        the retired server-throughput bench)."""
        graphs = {f"g{i}": powerlaw_cluster(150, 4, 0.5, seed=31 + i)
                  for i in range(4)}
        router = DiversityRouter()
        for name, graph in graphs.items():
            router.add_graph(name, graph)
        service = DiversityService.start(graphs["g0"])
        server = serve(router, port=0)
        try:
            with ServerClient(
                    f"http://127.0.0.1:{server.server_port}") as client:
                for k, r in [(3, 10), (4, 5), (3, 1), (4, 10)]:
                    local = service.top_r(k, r, collect_contexts=False)
                    routed = router.top_r("g0", k, r,
                                          collect_contexts=False)
                    wire = client.top_r("g0", k=k, r=r)
                    assert routed.vertices == local.vertices, (k, r)
                    assert routed.scores == local.scores, (k, r)
                    assert wire["vertices"] == local.vertices, (k, r)
                    assert wire["scores"] == local.scores, (k, r)
        finally:
            server.shutdown()
            server.server_close()

    def test_top_r_contexts_round_trip(self, fleet):
        router, _, client = fleet
        wire = client.top_r("cliques", k=3, r=2, contexts=True)
        local = router.top_r("cliques", 3, 2)
        for wire_entry, local_entry in zip(wire["entries"], local.entries):
            assert wire_entry["vertex"] == local_entry.vertex
            assert wire_entry["score"] == local_entry.score
            wire_contexts = [frozenset(c) for c in wire_entry["contexts"]]
            assert wire_contexts == [frozenset(c)
                                     for c in local_entry.contexts]

    def test_score_endpoint(self, fleet):
        router, _, client = fleet
        assert client.score("cliques", "a0", 3) == \
            router.score("cliques", "a0", 3)
        assert client.score("random", 0, 3) == router.score("random", 0, 3)

    def test_discovery_endpoints(self, fleet):
        router, _, client = fleet
        assert client.healthz() == {"status": "ok", "graphs": 2}
        listing = client.graphs()
        assert [g["name"] for g in listing] == ["cliques", "random"]
        assert listing[0]["vertices"] == 9
        single = client.graph_stats("random")
        assert single["name"] == "random"
        assert single["edges"] == router.service("random").snapshot.num_edges
        stats = client.stats()
        assert set(stats["graphs"]) == {"cliques", "random"}
        assert stats["store"]["keys"] == 2

    def test_error_statuses(self, fleet):
        _, _, client = fleet
        cases = [
            (404, lambda: client.top_r("ghost", k=3, r=1)),
            (400, lambda: client.top_r("cliques", k=1, r=1)),
            (400, lambda: client.score("cliques", "no-such-vertex", 3)),
            (400, lambda: client.apply_updates("cliques", [("warp", 1, 2)])),
            (404, lambda: client._request("GET", "/no/such/endpoint")),
            (400, lambda: client._request("GET", "/graphs/cliques/top_r",
                                          params={"k": "four"})),
            (400, lambda: client._request("POST", "/graphs/cliques/updates",
                                          body={"updates": "not-a-list"})),
        ]
        for status, call in cases:
            with pytest.raises(ServerError) as excinfo:
                call()
            assert excinfo.value.status == status

    def test_contexts_param_is_a_real_boolean(self, fleet):
        """contexts=false / contexts=no must not enable collection."""
        _, _, client = fleet
        for value, expected in (("1", True), ("true", True),
                                ("false", False), ("no", False),
                                ("0", False)):
            wire = client._request("GET", "/graphs/cliques/top_r",
                                   params={"k": 3, "r": 2,
                                           "contexts": value})
            assert ("entries" in wire) is expected, value

    def test_malformed_content_length_gets_a_400(self, fleet):
        import http.client
        _, server, _ = fleet
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=10)
        try:
            connection.putrequest("POST", "/graphs/cliques/updates")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
            # The server closes after this 400 (the body length is
            # unknown), so the response must say so.
            assert response.getheader("Connection") == "close"
            assert response.will_close
        finally:
            connection.close()

    def test_malformed_bodies_get_a_400_not_a_500(self, fleet):
        """Unhashable vertex labels and non-integer feed floors are the
        client's mistake, not an internal error."""
        _, _, client = fleet
        cases = [
            ("/graphs/cliques/updates",
             {"updates": [["insert", {"a": 1}, "a0"]]}),
            ("/graphs/cliques/updates",
             {"updates": [["insert", [[1]], "a0"]]}),
            ("/graphs/cliques/updates/feed/truncate", {"version": "x"}),
            ("/graphs/cliques/updates/feed/truncate", {"seq": [1]}),
        ]
        for path, body in cases:
            with pytest.raises(ServerError) as excinfo:
                client._request("POST", path, body=body)
            assert excinfo.value.status == 400, (path, body)

    @pytest.mark.parametrize("body", [
        b'[["insert", NaN, NaN]]',
        b'[["insert", Infinity, -Infinity]]',
        b'{"updates": [["insert", 0, NaN]]}',
    ])
    def test_non_finite_json_constants_get_a_400(self, fleet, body):
        """``NaN`` / ``Infinity`` are not JSON; accepting them let one
        NaN object pass the self-loop check and grew the graph."""
        router, _, client = fleet
        before = router.service("random").snapshot
        status, payload = client.request_raw(
            "POST", "/graphs/random/updates", body=body,
            headers={"Content-Type": "application/json"})
        assert status == 400
        assert "error" in json.loads(payload)
        after = router.service("random").snapshot
        assert after.version == before.version
        assert after.num_vertices == before.num_vertices
        assert after.num_edges == before.num_edges

    def test_updates_over_the_wire(self, fleet):
        router, _, client = fleet
        report = client.apply_updates(
            "cliques", [("delete", "b2", "b3"), ("insert", "a0", "b0")])
        assert report["num_updates"] == 2
        assert report["version"] == 2
        expected = _two_cliques()
        expected.remove_edge("b2", "b3")
        expected.add_edge("a0", "b0")
        for k, r in GRID:
            assert client.top_r("cliques", k=k, r=r)["vertices"] == \
                online_search(expected, k, r).vertices, (k, r)

    def test_edgeupdate_objects_accepted_by_client(self, fleet):
        _, _, client = fleet
        report = client.apply_updates("cliques", [delete("b2", "b3"),
                                                  insert("b2", "a0")])
        assert report["num_updates"] == 2

    def test_keep_alive_connection_survives_undrained_post_bodies(
            self, fleet):
        """Regression: a POST whose route never read the body (404'd
        name, /compact with a stray body) left the bytes in the socket,
        desyncing every later request on a keep-alive connection."""
        import http.client
        _, server, _ = fleet
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=10)
        try:
            body = json.dumps({"updates": [["insert", 1, 2]]})
            connection.request("POST", "/graphs/ghost/updates", body=body,
                               headers={"Content-Type": "application/json"})
            assert connection.getresponse().read() and True
            # Same socket: the next request must parse cleanly.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_compact_over_the_wire(self, fleet):
        router, _, client = fleet
        client.apply_updates("cliques", [delete("b2", "b3")])
        client.apply_updates("cliques", [insert("b2", "b3")])
        report = client.compact()
        assert report["removed_versions"] >= 2
        assert report["kept_versions"] == len(router.store.keys())

    def test_no_score_cache_endpoint(self, fleet):
        """Nothing persists a score cache: a restart re-derives hot
        thresholds from the stored GCT, the one artifact a served
        graph's versions hold."""
        router, _, client = fleet
        client.top_r("cliques", k=3, r=5)
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/graphs/cliques/scores")
        assert excinfo.value.status == 404
        snapshot = router.service("cliques").snapshot
        assert router.store.current(
            snapshot.graph_view, key=snapshot.key).artifact_names == ["gct"]


# ----------------------------------------------------------------------
# Client keep-alive
# ----------------------------------------------------------------------
class TestClientKeepAlive:
    def test_100_requests_reuse_at_most_two_sockets(self, fleet):
        """Regression: the client used to open a fresh connection per
        request (urllib transport), which made any proxy built on it
        pay a TCP handshake per routed query.  One hundred requests
        from one client must ride at most two sockets (one, plus one
        spare for a stale-socket recovery)."""
        _, server, _ = fleet
        client = ServerClient(f"http://127.0.0.1:{server.server_port}")
        try:
            for i in range(100):
                if i % 3 == 0:
                    assert client.healthz()["status"] == "ok"
                elif i % 3 == 1:
                    client.top_r("cliques", k=3, r=2)
                else:
                    client.score("random", 0, 3)
            assert client.connections_opened <= 2
        finally:
            client.close()

    def test_mixed_posts_and_errors_stay_on_the_pooled_socket(self, fleet):
        """Error statuses and POST bodies must not poison keep-alive:
        the server drains request bodies unconditionally and the client
        must keep reusing the socket across 4xx answers."""
        _, server, _ = fleet
        client = ServerClient(f"http://127.0.0.1:{server.server_port}")
        try:
            for _ in range(10):
                with pytest.raises(ServerError) as excinfo:
                    client.top_r("ghost", k=3, r=1)
                assert excinfo.value.status == 404
                client.apply_updates("cliques", [])
                assert client.healthz()["status"] == "ok"
            assert client.connections_opened <= 2
        finally:
            client.close()

    def test_recovers_when_the_server_closes_idle_sockets(self, fleet):
        """A keep-alive socket the server dropped mid-pool must be
        retried on a fresh connection, invisibly to the caller."""
        _, server, _ = fleet
        client = ServerClient(f"http://127.0.0.1:{server.server_port}")
        try:
            assert client.healthz()["status"] == "ok"
            # Forcibly kill the pooled socket under the client.
            assert client._pool
            client._pool[0].sock.close()
            assert client.healthz()["status"] == "ok"
            assert client.connections_opened == 2
        finally:
            client.close()


# ----------------------------------------------------------------------
# Concurrency over the wire
# ----------------------------------------------------------------------
class TestHTTPConcurrency:
    def test_readers_never_see_torn_answers_during_update(self, fleet):
        """Concurrent HTTP top_r during POST /updates returns either the
        old or the new exact answer — snapshot isolation end to end."""
        router, server, _ = fleet
        base = f"http://127.0.0.1:{server.server_port}"
        old = [tuple(pair) for pair in zip(
            *[router.top_r("cliques", 3, 9).vertices,
              router.top_r("cliques", 3, 9).scores])]
        new_graph = _two_cliques()
        new_graph.remove_edge("b2", "b3")
        expected = online_search(new_graph, 3, 9)
        new = list(zip(expected.vertices, expected.scores))

        answers, errors = [], []

        def reader():
            client = ServerClient(base)
            try:
                for _ in range(25):
                    wire = client.top_r("cliques", k=3, r=9)
                    answers.append(tuple(zip(wire["vertices"],
                                             wire["scores"])))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        writer = ServerClient(base)
        writer.apply_updates("cliques", [("delete", "b2", "b3")])
        for t in threads:
            t.join()
        assert not errors
        assert set(answers) <= {tuple(old), tuple(new)}
        final = writer.top_r("cliques", k=3, r=9)
        assert list(zip(final["vertices"], final["scores"])) == new

    def test_parallel_queries_across_graphs(self, fleet):
        """Many worker threads hammering different graphs all get exact
        answers — the router adds no shared mutable state to reads."""
        router, server, _ = fleet
        base = f"http://127.0.0.1:{server.server_port}"
        expected = {
            name: {(k, r): router.top_r(name, k, r,
                                        collect_contexts=False).vertices
                   for k, r in GRID}
            for name in ("cliques", "random")}
        errors = []

        def reader(name):
            client = ServerClient(base)
            try:
                for k, r in GRID:
                    wire = client.top_r(name, k=k, r=r)
                    assert wire["vertices"] == expected[name][(k, r)]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(name,))
                   for name in ("cliques", "random") for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_requires_a_graph(self, capsys):
        from repro.cli import main
        assert main(["serve", "--http", "0"]) == 1
        assert "--graph" in capsys.readouterr().err

    def test_rejects_bad_graph_spec(self, capsys, tmp_path):
        from repro.cli import main
        assert main(["serve", "--http", "0", "--graph", "nopath"]) == 1
        assert "NAME=PATH" in capsys.readouterr().err

    def test_rejects_negative_workers(self, capsys):
        from repro.cli import main
        assert main(["serve", "--http", "0", "--graph", "g=g.txt",
                     "--workers", "-1"]) == 1
        assert "--workers" in capsys.readouterr().err
