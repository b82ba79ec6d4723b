"""Tests for the process-sharded serving cluster.

The acceptance contract of the subsystem:

* **Placement is deterministic.**  The consistent-hash
  :class:`ShardMap` assigns the same names to the same workers across
  instances, runs, and processes (no ``hash()`` randomisation), pins
  override it explicitly, and resizing moves only a minority of names.
* **Answer preservation.**  A ``top_r`` answer through the cluster
  frontend is byte-identical (vertices, scores) to a single-process
  :class:`DiversityRouter` over the same graphs.
* **Fault isolation + recovery.**  Killing one worker 503s (with
  ``Retry-After``) exactly that worker's graphs — never another
  worker's — and the supervised respawn replays its registrations,
  warm from its own store root.
* **Fan-out endpoints** (``/graphs``, ``/stats``, ``/compact``,
  ``/healthz``) merge every live worker's JSON.
"""

import http.client
import json
import os
import subprocess
import sys
import time

import pytest

from repro.errors import ClusterError, InvalidParameterError, ServerError
from repro.graph.graph import Graph
from repro.graph.io import write_edge_list
from repro.core.online import online_search
from repro.cluster import ShardMap, ShardedCluster
from repro.datasets.synthetic import powerlaw_cluster
from repro.server import DiversityRouter, ServerClient, serve

GRID = [(k, r) for k in (2, 3, 4, 5) for r in (1, 3, 10)]


def _ranked(result):
    return [(entry.vertex, entry.score) for entry in result.entries]


def _two_cliques() -> Graph:
    g = Graph()
    a = [f"a{i}" for i in range(5)]
    b = [f"b{i}" for i in range(4)]
    for clique in (a, b):
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                g.add_edge(clique[i], clique[j])
    return g


def _wheel(n: int = 12) -> Graph:
    """A hub on an n-cycle: hub score 1 at k=3, spokes in one context."""
    g = Graph()
    for i in range(n):
        g.add_edge("hub", f"rim{i}")
        g.add_edge(f"rim{i}", f"rim{(i + 1) % n}")
    return g


def _grid_graph() -> Graph:
    g = Graph()
    for row in range(4):
        for col in range(4):
            if col + 1 < 4:
                g.add_edge((row, col), (row, col + 1))
            if row + 1 < 4:
                g.add_edge((row, col), (row + 1, col))
            if row + 1 < 4 and col + 1 < 4:
                g.add_edge((row, col), (row + 1, col + 1))
    return g


#: Three named graphs pinned across two workers, so worker 0's death
#: must leave "beta" (worker 1) serving.
GRAPHS = {"alpha": _two_cliques, "beta": _wheel, "gamma": _grid_graph}
PINS = {"alpha": 0, "beta": 1, "gamma": 0}


@pytest.fixture(scope="module")
def cluster():
    """A 2-worker cluster with supervision off — death tests stage
    recovery by hand (restart_dead_workers) to stay deterministic."""
    cluster = ShardedCluster(workers=2, pins=PINS, supervise=False,
                             restart_interval=0.2)
    cluster.start(port=0)
    try:
        for name, factory in GRAPHS.items():
            cluster.add_graph(name, graph=factory())
        yield cluster
    finally:
        cluster.stop()


@pytest.fixture(scope="module")
def cluster_client(cluster):
    client = ServerClient(cluster.url)
    yield client
    client.close()


# ----------------------------------------------------------------------
# ShardMap
# ----------------------------------------------------------------------
class TestShardMap:
    NAMES = [f"graph-{i}" for i in range(200)]

    def test_same_names_same_workers_across_instances(self):
        first = ShardMap(workers=4).assignments(self.NAMES)
        second = ShardMap(workers=4).assignments(self.NAMES)
        assert first == second
        assert all(0 <= slot < 4 for slot in first.values())

    def test_assignment_is_stable_across_processes(self):
        """The map must not lean on hash() randomisation: a fresh
        interpreter with a different PYTHONHASHSEED routes identically."""
        script = (
            "import json, sys\n"
            "from repro.cluster import ShardMap\n"
            "names = [f'graph-{i}' for i in range(50)]\n"
            "print(json.dumps(ShardMap(workers=3).assignments(names)))\n")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(
                       [str(__import__('pathlib').Path(
                           __file__).resolve().parents[1] / 'src')]
                       + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        remote = json.loads(out.stdout)
        local = ShardMap(workers=3).assignments([f"graph-{i}"
                                                 for i in range(50)])
        assert remote == local

    def test_every_worker_gets_a_share(self):
        assignments = ShardMap(workers=4).assignments(self.NAMES)
        loads = [list(assignments.values()).count(slot) for slot in range(4)]
        assert all(load > 0 for load in loads)

    def test_pin_overrides_and_unpin_restores(self):
        shard_map = ShardMap(workers=4)
        ring_owner = shard_map.owner("whale")
        target = (ring_owner + 1) % 4
        shard_map.pin("whale", target)
        assert shard_map.owner("whale") == target
        assert shard_map.pins == {"whale": target}
        shard_map.unpin("whale")
        assert shard_map.owner("whale") == ring_owner

    def test_pin_to_missing_worker_rejected(self):
        shard_map = ShardMap(workers=2)
        with pytest.raises(InvalidParameterError):
            shard_map.pin("whale", 2)
        with pytest.raises(InvalidParameterError):
            ShardMap(workers=2, pins={"whale": 7})

    def test_resize_moves_a_minority_of_names(self):
        shard_map = ShardMap(workers=4)
        before = shard_map.assignments(self.NAMES)
        moved = shard_map.resize(5, names=self.NAMES)
        after = shard_map.assignments(self.NAMES)
        # Consistency: an expected 1/5 of names move; a modulo map
        # would move ~4/5.  Allow generous slack over the expectation.
        assert 0 < len(moved) <= len(self.NAMES) * 0.45
        for name in self.NAMES:
            if name not in moved:
                assert after[name] == before[name], name
        for name, (old, new) in moved.items():
            assert before[name] == old and after[name] == new

    def test_resize_drops_pins_to_vanished_workers(self):
        shard_map = ShardMap(workers=4, pins={"whale": 3})
        shard_map.resize(2, names=["whale"])
        assert shard_map.pins == {}
        assert 0 <= shard_map.owner("whale") < 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            ShardMap(workers=0)
        with pytest.raises(InvalidParameterError):
            ShardMap(workers=2, replicas=0)
        with pytest.raises(InvalidParameterError):
            ShardMap(workers=2).resize(0)


# ----------------------------------------------------------------------
# Cluster answers vs the single-process router
# ----------------------------------------------------------------------
class TestClusterAnswers:
    def test_top_r_byte_identical_to_in_process_router(self, cluster,
                                                       cluster_client):
        """The acceptance bar: cluster wire answers == a single-process
        DiversityRouter over the same graphs, byte for byte."""
        router = DiversityRouter()
        for name, factory in GRAPHS.items():
            router.add_graph(name, factory())
        for name in GRAPHS:
            for k, r in GRID:
                wire = cluster_client.top_r(name, k=k, r=r)
                local = router.top_r(name, k, r, collect_contexts=False)
                assert json.dumps(wire["vertices"]) == \
                    json.dumps(local.vertices), (name, k, r)
                assert json.dumps(wire["scores"]) == \
                    json.dumps(local.scores), (name, k, r)

    def test_score_and_contexts_round_trip(self, cluster_client):
        graph = _two_cliques()
        reference = online_search(graph, 3, 2)
        assert cluster_client.score("alpha", "a0", 3) == \
            reference.entries[0].score
        wire = cluster_client.top_r("alpha", k=3, r=2, contexts=True)
        for wire_entry, local_entry in zip(wire["entries"],
                                           reference.entries):
            assert wire_entry["vertex"] == local_entry.vertex
            assert [frozenset(c) for c in wire_entry["contexts"]] == \
                [frozenset(c) for c in local_entry.contexts]

    def test_error_statuses_relay_from_workers(self, cluster_client):
        cases = [
            (404, lambda: cluster_client.top_r("ghost", k=3, r=1)),
            (400, lambda: cluster_client.top_r("alpha", k=1, r=1)),
            (400, lambda: cluster_client.score("alpha", "nope", 3)),
            (404, lambda: cluster_client._request("GET", "/no/such")),
        ]
        for status, call in cases:
            with pytest.raises(ServerError) as excinfo:
                call()
            assert excinfo.value.status == status

    def test_updates_proxy_to_the_owning_worker(self, cluster,
                                                cluster_client):
        report = cluster_client.apply_updates(
            "gamma", [("insert", [0, 0], [2, 2])])
        assert report["num_updates"] == 1
        mutated = _grid_graph()
        mutated.add_edge((0, 0), (2, 2))
        expected = online_search(mutated, 3, 5)
        wire = cluster_client.top_r("gamma", k=3, r=5)
        assert [tuple(v) for v in wire["vertices"]] == \
            [tuple(v) for v in expected.vertices]
        # Other graphs (other worker or same) are untouched.
        assert cluster_client.top_r("beta", k=3, r=5)["vertices"] == \
            online_search(_wheel(), 3, 5).vertices

    def test_registration_by_path(self, tmp_path, cluster, cluster_client):
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        path = tmp_path / "delta.txt"
        write_edge_list(graph, path)
        answer = cluster.add_graph("delta", path=path)
        assert answer["vertices"] == 4
        assert cluster_client.top_r("delta", k=3, r=2)["vertices"] == \
            online_search(graph, 3, 2).vertices

    def test_add_graph_validation(self, cluster):
        with pytest.raises(InvalidParameterError):
            cluster.add_graph("alpha", graph=_two_cliques())  # duplicate
        with pytest.raises(InvalidParameterError):
            cluster.add_graph("has space", graph=_two_cliques())
        with pytest.raises(InvalidParameterError):
            cluster.add_graph("both", graph=_two_cliques(), path="x.txt")
        with pytest.raises(InvalidParameterError):
            cluster.add_graph("neither")

    def test_malformed_content_length_gets_a_400_that_closes(self,
                                                             cluster):
        """The frontend closes after a 400 for an undrainable body, and
        its response must say so (a keep-alive client would otherwise
        reuse the dead socket)."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", cluster.frontend_port, timeout=10)
        try:
            connection.putrequest("POST", "/graphs/alpha/updates")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
            assert response.getheader("Connection") == "close"
            assert response.will_close
        finally:
            connection.close()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_any_worker_count_serves_the_single_process_answer(self,
                                                                workers):
        """Cluster wire answers equal a single-process server's, byte
        for byte, whatever the fleet size (formerly asserted by the
        retired cluster-throughput bench)."""
        graphs = {f"g{i}": powerlaw_cluster(150, 4, 0.5, seed=31 + i)
                  for i in range(3)}
        router = DiversityRouter()
        for name, graph in graphs.items():
            router.add_graph(name, graph)
        single = serve(router, port=0)
        reference = ServerClient(f"http://127.0.0.1:{single.server_port}")
        try:
            with ShardedCluster(workers=workers,
                                supervise=False).start(port=0) as fleet, \
                    ServerClient(fleet.url) as client:
                for name, graph in graphs.items():
                    fleet.add_graph(name, graph=graph)
                for name in graphs:
                    for k, r in [(3, 10), (4, 5), (3, 1), (4, 10)]:
                        wire = client.top_r(name, k=k, r=r)
                        local = reference.top_r(name, k=k, r=r)
                        assert json.dumps(wire["vertices"]) == \
                            json.dumps(local["vertices"]), (name, k, r)
                        assert json.dumps(wire["scores"]) == \
                            json.dumps(local["scores"]), (name, k, r)
        finally:
            reference.close()
            single.shutdown()
            single.server_close()

    def test_unstarted_cluster_refuses_use(self):
        idle = ShardedCluster(workers=1, supervise=False)
        with pytest.raises(ClusterError):
            idle.add_graph("g", graph=_two_cliques())
        with pytest.raises(ClusterError):
            idle.frontend_port
        with pytest.raises(ClusterError):
            ShardedCluster(workers=0)


# ----------------------------------------------------------------------
# Fan-out endpoints
# ----------------------------------------------------------------------
class TestFanOut:
    def test_healthz_aggregates_the_fleet(self, cluster_client):
        health = cluster_client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["workers_alive"] == 2
        assert health["graphs"] >= len(GRAPHS)

    def test_graphs_merged_and_sorted(self, cluster_client):
        listing = cluster_client.graphs()
        names = [entry["name"] for entry in listing]
        assert names == sorted(names)
        assert set(GRAPHS) <= set(names)

    def test_stats_sums_worker_counters(self, cluster, cluster_client):
        for name in GRAPHS:
            cluster_client.top_r(name, k=3, r=1)
        stats = cluster_client.stats()
        assert set(GRAPHS) <= set(stats["graphs"])
        assert len(stats["workers"]) == 2
        assert stats["queries_total"] == \
            sum(w["queries_total"] for w in stats["workers"])
        assert stats["queries_total"] >= len(GRAPHS)
        assert stats["workers_down"] == []

    def test_compact_fans_out_and_merges_reports(self, cluster_client):
        cluster_client.apply_updates("alpha", [("delete", "b2", "b3")])
        cluster_client.apply_updates("alpha", [("insert", "b2", "b3")])
        report = cluster_client.compact()
        assert report["workers_compacted"] == 2
        assert report["removed_versions"] >= 1
        assert report["kept_versions"] >= len(GRAPHS)

    def test_cluster_topology_endpoint(self, cluster, cluster_client):
        topology = cluster_client._request("GET", "/cluster")
        assert [w["slot"] for w in topology["workers"]] == [0, 1]
        placement = {name: slot
                     for slot, w in enumerate(topology["workers"])
                     for name in w["graphs"]}
        for name in GRAPHS:
            assert placement[name] == cluster.owner(name) == PINS[name]
        assert topology["pins"] == PINS


# ----------------------------------------------------------------------
# The relay transport
# ----------------------------------------------------------------------
class TestRelayTransport:
    def test_each_worker_is_relayed_over_one_pooled_socket(self):
        """The frontend relays through each worker handle's one
        ServerClient pool: a hot query phase plus /healthz and /stats
        fan-outs open exactly one socket per worker — there is no
        second pool beside it."""
        with ShardedCluster(workers=2, pins=PINS,
                            supervise=False).start(port=0) as fleet, \
                ServerClient(fleet.url) as client:
            for name, factory in GRAPHS.items():
                fleet.add_graph(name, graph=factory())
            for _ in range(20):
                for name in GRAPHS:
                    client.top_r(name, k=3, r=2)
            assert client.healthz()["workers_alive"] == 2
            assert len(client.stats()["workers"]) == 2
            opened = [worker.connections_opened
                      for _, worker in fleet.live_clients()]
            assert opened == [1, 1]
            assert client.connections_opened == 1


# ----------------------------------------------------------------------
# Worker death, 503s, and supervised recovery
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def _retry_after(self, cluster, name):
        """Raw request so the Retry-After header is observable."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", cluster.frontend_port, timeout=10)
        try:
            connection.request("GET", f"/graphs/{name}/top_r?k=3&r=1")
            response = connection.getresponse()
            return response.status, response.getheader("Retry-After"), \
                json.loads(response.read())
        finally:
            connection.close()

    def test_death_503_isolation_and_manual_recovery(self, cluster,
                                                     cluster_client):
        """Kill worker 0: its graphs 503 with Retry-After, worker 1's
        graph keeps answering, and restart_dead_workers() replays the
        registrations warm from the worker's own store root."""
        before = {name: cluster_client.top_r(name, k=3, r=5)
                  for name in GRAPHS}
        cluster.kill_worker(0)

        status, retry_after, body = self._retry_after(cluster, "alpha")
        assert status == 503
        assert retry_after is not None and int(retry_after) >= 1
        assert "worker 0" in body["error"]
        # The surviving worker's graph never drops.
        wire = cluster_client.top_r("beta", k=3, r=5)
        assert wire["vertices"] == before["beta"]["vertices"]
        # Fan-outs degrade instead of failing — and say so.
        health = cluster_client.healthz()
        assert health["status"] == "degraded"
        assert health["workers_down"] == [0]
        listing = cluster_client._request("GET", "/graphs")
        assert listing["workers_down"] == [0]
        assert "beta" in {entry["name"] for entry in listing["graphs"]}

        restarted = cluster.restart_dead_workers()
        assert restarted == [0]
        for name in GRAPHS:
            wire = cluster_client.top_r(name, k=3, r=5)
            assert json.dumps(wire["vertices"]) == \
                json.dumps(before[name]["vertices"]), name
        # Respawn warm-started from the worker's own store root.
        assert cluster_client.graph_stats("alpha")["warm_started"]
        assert cluster_client.healthz()["status"] == "ok"

    def test_kill_requires_a_live_worker(self, cluster):
        with pytest.raises(ClusterError):
            cluster.kill_worker(0) and cluster.kill_worker(0)

    def test_supervised_respawn_recovers_without_intervention(self):
        """The end-to-end promise: with supervision on, a killed worker
        comes back (registrations replayed) within the restart window."""
        graph = _two_cliques()
        with ShardedCluster(workers=2, pins={"solo": 1}, supervise=True,
                            restart_interval=0.1).start(port=0) as cluster:
            cluster.add_graph("solo", graph=graph)
            client = ServerClient(cluster.url)
            expected = online_search(graph, 3, 5).vertices
            assert client.top_r("solo", k=3, r=5)["vertices"] == expected
            cluster.kill_worker(1)
            deadline = time.time() + 30
            while time.time() < deadline:
                try:
                    wire = client.top_r("solo", k=3, r=5)
                    break
                except ServerError as exc:
                    assert exc.status in (0, 503)
                    time.sleep(0.05)
            else:
                pytest.fail("supervisor never brought worker 1 back")
            assert wire["vertices"] == expected
            client.close()
