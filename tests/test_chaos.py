"""Chaos tests: replicated failover under seeded fault injection.

Every schedule here is driven by a :class:`FaultInjector` seeded with
``SEED`` — which worker dies next, where a byte flips, how long a kill
is delayed all replay deterministically, so a red run reproduces
byte-for-byte instead of going "flaky, reran, green".

The acceptance claims exercised:

* **Rolling restarts lose nothing.**  With supervision and one
  follower per worker, every worker killed once under live retrying
  traffic produces zero escaped failures and zero wrong answers —
  respawned workers warm-start and replay the acked update journal
  before they are published, so a served answer is never stale.
* **Shard moves are zero-503.**  A drain/double-serve ``move_graph``
  under live **non-retrying** traffic never surfaces a 5xx.
* **A lost disk recovers from the replica.**  A worker whose primary
  store root is destroyed warm-starts from its follower copy (no
  access to the dead worker's disk) and serves the as-last-served
  rankings; a *corrupt* replica is refused, the worker cold-rebuilds
  (slow but never wrong), and the next sync pass repairs the replica.
* **No half-applied version ever publishes.**  A worker SIGKILLed at a
  seeded random point around an update batch leaves a store whose
  manifest always parses, and post-recovery rankings equal an
  in-process oracle that applied exactly the *acknowledged* batches.
"""

import json
import random
import threading
import time

import pytest

from repro.cluster import ShardedCluster
from repro.errors import ClusterError, ServerError
from repro.graph.graph import Graph
from repro.replication import FaultInjector, corrupt_file, \
    read_store_manifest, verify_artifact
from repro.server import ServerClient
from repro.service.service import DiversityService

SEED = 20210416  # one schedule, replayed exactly, every run


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
    g = Graph()
    for i in range(n):
        g.add_edge("hub", f"rim{i}")
        g.add_edge(f"rim{i}", f"rim{(i + 1) % n}")
    return g


GRAPHS = {"alpha": _two_cliques, "beta": _wheel}
PINS = {"alpha": 0, "beta": 1}

#: One journaled update batch per graph, applied before the chaos so
#: recovery must restore *as last served*, not merely *as registered*.
BATCHES = {
    "alpha": [("insert", "a0", "b0"), ("insert", "a1", "b1")],
    "beta": [("insert", "rim0", "rim6")],
}


def _answer(client: ServerClient, name: str):
    payload = client.top_r(name, k=3, r=5)
    return payload["vertices"], payload["scores"]


def _oracle(name: str, batches) -> DiversityService:
    """The in-process ground truth: base graph + exactly ``batches``."""
    service = DiversityService.cold(GRAPHS[name]())
    for batch in batches:
        service.apply_updates(batch)
    return service


def _oracle_answer(service: DiversityService):
    result = service.top_r(3, 5)
    return result.vertices, result.scores


def _wait_healthy(url: str, respawns_at_least: int = 0,
                  deadline: float = 30.0):
    """Poll the frontend until every worker answers again."""
    probe = ServerClient(url, timeout=5.0)
    try:
        cutoff = time.monotonic() + deadline
        while time.monotonic() < cutoff:
            try:
                health = probe.healthz()
            except ServerError:
                time.sleep(0.05)
                continue
            if health["status"] == "ok" \
                    and sum(health["respawns"]) >= respawns_at_least:
                return health
            time.sleep(0.05)
        raise AssertionError(f"fleet did not recover within {deadline}s")
    finally:
        probe.close()


class _Reader(threading.Thread):
    """Hammers one graph's top-r; records any escaped failure or any
    answer that differs from the expected rankings."""

    def __init__(self, url: str, name: str, expected, retries: int):
        super().__init__(daemon=True)
        self.client = ServerClient(url, timeout=10.0, retries=retries,
                                   retry_backoff=0.02)
        self.name = name
        self.expected = expected
        self.failures = []
        self.served = 0
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            try:
                got = _answer(self.client, self.name)
            except ServerError as exc:
                self.failures.append(
                    f"{self.name}: status {exc.status}: {exc}")
                if len(self.failures) > 5:
                    return  # stop flooding; the test already failed
                continue
            self.served += 1
            if got != self.expected:
                self.failures.append(
                    f"{self.name}: wrong answer {got!r} "
                    f"!= {self.expected!r}")
                return

    def stop(self):
        self._halt.set()
        self.join(timeout=30)
        self.client.close()


class TestRollingRestartAndMove:
    """The headline chaos schedule: every worker killed once under
    retrying traffic, then a live shard move under non-retrying
    traffic — zero escaped failures, rankings byte-identical to the
    in-process oracle throughout."""

    def test_rolling_restart_then_zero_503_move(self):
        fleet = ShardedCluster(workers=2, pins=PINS,
                               supervise=True, restart_interval=0.1,
                               followers=1, replication_interval=0.1)
        fleet.start(port=0)
        readers = []
        try:
            client = ServerClient(fleet.url, timeout=10.0, retries=40,
                                  retry_backoff=0.02)
            for name, factory in GRAPHS.items():
                fleet.add_graph(name, graph=factory())
                client.apply_updates(name, BATCHES[name])
            expected = {name: _answer(client, name) for name in GRAPHS}
            for name in GRAPHS:
                oracle = _oracle(name, [BATCHES[name]])
                assert expected[name] == _oracle_answer(oracle), name

            # Live retrying traffic on every graph for the whole ride.
            readers = [_Reader(fleet.url, name, expected[name],
                               retries=60) for name in GRAPHS]
            for reader in readers:
                reader.start()

            fi = FaultInjector(fleet, SEED)
            killed = 0
            for slot in fi.rolling_restart_order():
                fi.kill_worker(slot)
                killed += 1
                _wait_healthy(fleet.url, respawns_at_least=killed)
            assert killed == 2, fi.log

            # The zero-503 move: non-retrying traffic may not see a
            # single failure while "alpha" changes hands.
            source = fleet.owner("alpha")
            target = 1 - source
            mover = _Reader(fleet.url, "alpha", expected["alpha"],
                            retries=0)
            mover.start()
            time.sleep(0.1)  # let the non-retrying reader get going
            outcome = fleet.move_graph("alpha", target,
                                       drain_seconds=0.3)
            time.sleep(0.2)  # traffic after the flip + deregistration
            mover.stop()
            assert outcome["moved"] and outcome["target"] == target
            assert fleet.owner("alpha") == target
            assert mover.failures == [], "\n".join(
                mover.failures + fi.log)
            assert mover.served > 0

            for reader in readers:
                reader.stop()
            escaped = [f for reader in readers for f in reader.failures]
            assert escaped == [], "\n".join(escaped + fi.log)
            assert all(reader.served > 0 for reader in readers)

            # Writes work against the new owner, and the fleet's final
            # rankings match the oracle byte-for-byte.
            extra = [("insert", "a2", "b2")]
            client.apply_updates("alpha", extra)
            finals = {"alpha": _oracle("alpha", [BATCHES["alpha"], extra]),
                      "beta": _oracle("beta", [BATCHES["beta"]])}
            for name, oracle in finals.items():
                assert json.dumps(_answer(client, name)) == \
                    json.dumps(_oracle_answer(oracle)), name
            # Both acked batches were journaled; replication passes may
            # already have checkpointed a durable prefix away, so the
            # retained suffix is only bounded above.
            assert fleet.journal_total("alpha") == 2
            assert fleet.journal_length("alpha") <= 2

            # Satellite: supervision surfaced through /healthz + /stats.
            health = client.healthz()
            assert sum(health["respawns"]) >= 2
            assert health["status"] == "ok"
            stats = client.stats()
            supervision = stats["supervision"]
            assert supervision["followers"] == 1
            assert supervision["respawns_total"] >= 2
            journal = stats["journal"]["graphs"]["alpha"]
            assert journal["total"] == 2
            assert journal["entries"] + journal["checkpointed"] == 2
            client.close()
        finally:
            for reader in readers:
                if reader.is_alive():  # pragma: no cover - on failure
                    reader.stop()
            fleet.stop()


class TestReplicaFailover:
    """A destroyed primary store root recovers from the follower copy
    alone — and a corrupt follower is refused, never trusted."""

    def _fleet(self, journal_window=128):
        return ShardedCluster(workers=1, pins={"alpha": 0}, supervise=False,
                              followers=1, replication_interval=900.0,
                              journal_window=journal_window)

    def test_warm_failover_from_replica(self):
        fleet = self._fleet()
        fleet.start(port=0)
        try:
            client = ServerClient(fleet.url, timeout=10.0)
            fleet.add_graph("alpha", graph=_two_cliques())
            client.apply_updates("alpha", BATCHES["alpha"])
            client.apply_updates("alpha", [("insert", "a3", "b3")])
            reports = fleet.replicate_followers()
            assert fleet.last_replication_error is None
            assert reports[0]["files_full"] + reports[0]["files_delta"] > 0

            fi = FaultInjector(fleet, SEED)
            slot = fi.destroy_store(0)
            assert slot == 0
            # The dead worker's disk is gone; recovery has only the
            # replica to work with.
            with pytest.raises(Exception):
                read_store_manifest(fleet.store_root / "worker0")
            assert fleet.restart_dead_workers() == [0]
            assert "restored" in (fleet.last_restore_note or "")

            stats = client.graph_stats("alpha")
            assert stats["warm_started"] is True
            oracle = _oracle("alpha", [BATCHES["alpha"],
                                       [("insert", "a3", "b3")]])
            assert _answer(client, "alpha") == _oracle_answer(oracle)
            assert sum(client.healthz()["respawns"]) == 1
            client.close()
        finally:
            fleet.stop()

    def test_corrupt_replica_refused_then_repaired(self):
        # Checkpointing off: the repair-in-place half of this test
        # needs the respawn to replay the *original* registration +
        # full journal, whose canonical rebuild converges to the same
        # version chain (and relpaths) the corrupt replica holds.
        fleet = self._fleet(journal_window=0)
        fleet.start(port=0)
        try:
            client = ServerClient(fleet.url, timeout=10.0)
            fleet.add_graph("alpha", graph=_two_cliques())
            client.apply_updates("alpha", BATCHES["alpha"])
            fleet.replicate_followers()

            fi = FaultInjector(fleet, SEED)
            note = fi.corrupt_replica(0, mode="flip")
            assert note is not None
            # One flipped byte can be *healable* (delta assembly
            # re-derives base-resident regions and verifies the
            # result), so rot every artifact: now no restore path can
            # produce verified bytes and the replica must be refused.
            replica = fleet.replica_root(0, 0)
            for i, path in enumerate(sorted(
                    replica.glob("objects/**/*.bin"))):
                corrupt_file(path, seed=SEED + i, mode="flip")
            fi.destroy_store(0)
            assert fleet.restart_dead_workers() == [0]
            # The poisoned replica was refused: cold rebuild, not a
            # corrupt warm start.  Slow, but never wrong.
            assert client.graph_stats("alpha")["warm_started"] is False
            oracle = _oracle("alpha", [BATCHES["alpha"]])
            assert _answer(client, "alpha") == _oracle_answer(oracle)

            # The canonical rebuild converges byte-identically, so the
            # next sync pass repairs the replica in place.
            report = fleet.replicate_followers()[0]
            assert report["files_repaired"] >= 1
            assert all(verify_artifact(path)
                       for path in replica.glob("objects/**/*.bin"))
        finally:
            fleet.stop()


class TestKillDuringUpdate:
    """Property-random (seeded): SIGKILL the worker at a random point
    around an update batch, every leg.  No half-applied version may
    ever publish: the manifest always parses, and recovered rankings
    equal an oracle that applied exactly the *acked* batches."""

    LEGS = 5

    def test_acked_batches_define_the_recovered_state(self):
        rng = random.Random(SEED)
        fleet = ShardedCluster(workers=1, pins={"alpha": 0}, supervise=False)
        fleet.start(port=0)
        try:
            client = ServerClient(fleet.url, timeout=10.0)
            fleet.add_graph("alpha", graph=_two_cliques())
            oracle = DiversityService.cold(_two_cliques())
            acked = 0
            for leg in range(self.LEGS):
                batch = [("insert", f"x{leg}", "a0"),
                         ("insert", f"x{leg}", "a1")]
                delay = rng.uniform(0.0, 0.02)

                def _kill(pause=delay):
                    time.sleep(pause)
                    try:
                        fleet.kill_worker(0)
                    except ClusterError:
                        pass  # already dead this leg

                killer = threading.Thread(target=_kill, daemon=True)
                killer.start()
                try:
                    client.apply_updates("alpha", batch)
                except ServerError:
                    pass  # unacked: the oracle must NOT apply it
                else:
                    oracle.apply_updates(batch)
                    acked += 1
                killer.join(timeout=30)
                # Whatever instant the kill landed at, the store's
                # manifest is a complete, parseable publish.
                read_store_manifest(fleet.store_root / "worker0")
                cutoff = time.monotonic() + 30
                while fleet.client_for(0) is None:
                    fleet.restart_dead_workers()
                    if time.monotonic() > cutoff:  # pragma: no cover
                        raise AssertionError("worker never respawned")
                    time.sleep(0.02)
                assert _answer(client, "alpha") == \
                    _oracle_answer(oracle), \
                    f"leg {leg}: diverged from the acked-batch oracle"
            # The journal holds exactly the acked stream — that is what
            # every future respawn will replay.
            assert fleet.journal_length("alpha") == acked
            assert acked >= 1  # the schedule must exercise the ack path
            client.close()
        finally:
            fleet.stop()
