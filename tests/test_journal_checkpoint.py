"""Journal checkpointing: bounded recovery for long-lived clusters.

PR 9's recovery replayed every graph's full update journal from
sequence 0 out of an unbounded in-memory list — recovery time and
frontend RSS grew with total update history.  These tests pin the fix:

* **Bounded journal, bounded replay.**  After K×window acked batches,
  the frontend retains at most one window of bodies, and a respawn
  replays only the retained suffix — the checkpointed prefix is folded
  into the graph's effective registration, whose fingerprint lands the
  worker on the checkpointed store chain tip.
* **Truncation drives the resync contract.**  A feed consumer that
  sleeps past a checkpoint's truncation sees ``complete=False`` and
  must full-resync; consumers at the floor replay the suffix whole.
* **Rankings stay oracle-identical across truncation** — folding is a
  pure refactoring of the replay script, never a semantic change.
* **Deregistration drops every per-graph residue** (journal record,
  write gate, worker feed, shard pin) — previously a slow leak.
"""

import json
import threading
import time

import pytest

from repro.cluster import ShardedCluster
from repro.errors import ClusterError, ServerError
from repro.graph.graph import Graph
from repro.replication import replicate_store
from repro.server import ServerClient
from repro.service.service import DiversityService

SEED = 20210416  # match the chaos suite: one schedule, replayed exactly


def _clique(n: int = 5) -> Graph:
    g = Graph()
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(f"c{i}", f"c{j}")
    return g


def _chain_batch(i: int):
    """Batch ``i``: one fresh edge hanging a chain off the clique."""
    head = "c0" if i == 0 else f"n{i - 1}"
    return [("insert", head, f"n{i}")]


def _oracle(batches):
    service = DiversityService.cold(_clique())
    for batch in batches:
        service.apply_updates(list(batch))
    return service


def _answer(client: ServerClient, name: str):
    payload = client.top_r(name, k=3, r=5)
    return payload["vertices"], payload["scores"]


def _oracle_answer(service: DiversityService):
    result = service.top_r(3, 5)
    return result.vertices, result.scores


class TestBoundedJournal:
    """K×window batches: memory stays O(window), replay ≤ one window."""

    WINDOW = 8
    ROUNDS = 27  # 3 full windows + a retained tail of 3

    def test_respawn_replays_at_most_one_window(self):
        fleet = ShardedCluster(workers=1, pins={"alpha": 0}, supervise=False,
                               journal_window=self.WINDOW)
        fleet.start(port=0)
        try:
            client = ServerClient(fleet.url, timeout=10.0)
            fleet.add_graph("alpha", graph=_clique())
            batches = [_chain_batch(i) for i in range(self.ROUNDS)]
            max_body = max(len(json.dumps({"updates": b}).encode())
                           for b in batches)
            for i, batch in enumerate(batches):
                client.apply_updates("alpha", batch)
                # The retained journal never exceeds the window, and
                # its byte accounting tracks the retained bodies only.
                assert fleet.journal_length("alpha") <= self.WINDOW
                assert fleet.journal_total("alpha") == i + 1
                journal = fleet.journal_payload()["graphs"]["alpha"]
                assert journal["bytes_retained"] \
                    <= self.WINDOW * (max_body + 32)

            retained = fleet.journal_length("alpha")
            assert retained == self.ROUNDS % self.WINDOW  # 3, not 27
            fleet.kill_worker(0)
            assert fleet.restart_dead_workers() == [0]

            # The respawned worker's feed counts the batches actually
            # replayed into it: the retained suffix, not the history.
            replayed = client.update_feed("alpha")["last_seq"]
            assert replayed == retained <= self.WINDOW

            # And the recovered rankings are oracle-identical: folding
            # changed the replay script, never the served answers.
            oracle = _oracle(batches)
            assert _answer(client, "alpha") == _oracle_answer(oracle)
            assert client.graph_stats("alpha")["warm_started"] is True

            # /stats surfaces the truncated journal.
            journal = client.stats()["journal"]
            assert journal["window"] == self.WINDOW
            entry = journal["graphs"]["alpha"]
            assert entry["total"] == self.ROUNDS
            assert entry["entries"] == retained
            assert entry["checkpointed"] == self.ROUNDS - retained
            assert entry["checkpoint_version"] is not None
            assert entry["checkpoint_key"] is not None
            client.close()
        finally:
            fleet.stop()

    def test_move_after_checkpoint_stays_oracle_identical(self):
        fleet = ShardedCluster(workers=2, pins={"alpha": 0}, supervise=False,
                               journal_window=2)
        fleet.start(port=0)
        try:
            client = ServerClient(fleet.url, timeout=10.0)
            fleet.add_graph("alpha", graph=_clique())
            batches = [_chain_batch(i) for i in range(5)]
            for batch in batches:
                client.apply_updates("alpha", batch)
            assert fleet.journal_length("alpha") < 5  # checkpointed

            outcome = fleet.move_graph("alpha", 1, drain_seconds=0.05)
            assert outcome["moved"] and fleet.owner("alpha") == 1
            oracle = _oracle(batches)
            assert _answer(client, "alpha") == _oracle_answer(oracle)

            # Post-move writes keep journaling (and folding) normally.
            extra = _chain_batch(5)
            client.apply_updates("alpha", extra)
            assert fleet.journal_total("alpha") == 6
            oracle = _oracle(batches + [extra])
            assert _answer(client, "alpha") == _oracle_answer(oracle)
            client.close()
        finally:
            fleet.stop()


class TestTruncationResync:
    """The chaos leg: a consumer sleeps past a checkpoint's truncation
    and must take the ``complete=False`` full-resync path."""

    def test_sleeping_consumer_forced_to_full_resync(self):
        fleet = ShardedCluster(workers=1, pins={"alpha": 0}, supervise=False,
                               followers=1, replication_interval=900.0,
                               journal_window=4)
        fleet.start(port=0)
        try:
            client = ServerClient(fleet.url, timeout=10.0)
            fleet.add_graph("alpha", graph=_clique())
            batches = [_chain_batch(i) for i in range(6)]
            client.apply_updates("alpha", batches[0])
            client.apply_updates("alpha", batches[1])

            # The consumer tails the feed, then falls asleep at seq 2.
            tail = client.update_feed("alpha", since=0)
            assert tail["complete"] and tail["last_seq"] == 2
            asleep_at = tail["last_seq"]

            # While it sleeps: more batches land, replication ships
            # them durably, and the checkpoint truncates both the
            # frontend journal and the worker's feed floor.
            for batch in batches[2:]:
                client.apply_updates("alpha", batch)
            fleet.replicate_followers()
            assert fleet.last_replication_error is None
            assert fleet.journal_length("alpha") == 0
            assert fleet.journal_total("alpha") == 6

            # Waking up: the feed no longer reaches back to seq 2 —
            # the contract says full resync, not silent gap-skipping.
            woke = client.update_feed("alpha", since=asleep_at)
            assert woke["complete"] is False

            # The resync path (re-read the served state whole) agrees
            # with an oracle that applied every acked batch.
            oracle = _oracle(batches)
            assert _answer(client, "alpha") == _oracle_answer(oracle)

            # A consumer at the floor is unaffected.
            at_floor = client.update_feed("alpha",
                                          since=woke["last_seq"])
            assert at_floor["complete"] and at_floor["entries"] == []
            client.close()
        finally:
            fleet.stop()

    def test_long_poll_laggard_woken_by_truncation(self):
        fleet = ShardedCluster(workers=1, pins={"alpha": 0}, supervise=False,
                               followers=1, replication_interval=900.0,
                               journal_window=2)
        fleet.start(port=0)
        try:
            client = ServerClient(fleet.url, timeout=10.0)
            poller = ServerClient(fleet.url, timeout=30.0)
            fleet.add_graph("alpha", graph=_clique())
            for i in range(3):
                client.apply_updates("alpha", _chain_batch(i))

            results = []

            def poll():  # parked: seq 3 is the feed's head right now
                results.append(poller.update_feed("alpha", since=3,
                                                  timeout=10))

            thread = threading.Thread(target=poll)
            thread.start()
            time.sleep(0.2)
            # Replication + checkpoint truncate the worker feed; the
            # parked long-poller must not sleep through its own
            # obsolescence... but a floor at 3 does not strand it:
            # only a *later* append or a floor past 3 wakes it.
            fleet.replicate_followers()
            client.apply_updates("alpha", _chain_batch(3))
            thread.join(timeout=10)
            assert not thread.is_alive()
            answer = results[0]
            assert answer["last_seq"] == 4
            assert [e["seq"] for e in answer["entries"]] == [4]
            client.close()
            poller.close()
        finally:
            fleet.stop()


class TestRemoveGraph:
    """Deregistration drops the journal record, write gate, worker
    registration, and shard pin — nothing per-graph leaks."""

    def test_remove_drops_all_frontend_state(self):
        fleet = ShardedCluster(workers=2, pins={"alpha": 0},
                               supervise=False)
        fleet.start(port=0)
        try:
            client = ServerClient(fleet.url, timeout=10.0, retries=0)
            fleet.add_graph("alpha", graph=_clique())
            client.apply_updates("alpha", _chain_batch(0))
            assert fleet.journal_total("alpha") == 1
            assert "alpha" in fleet._write_gates

            answer = fleet.remove_graph("alpha")
            assert answer["removed"] and answer["worker"] == 0
            assert fleet.graphs() == []
            assert fleet.journal_total("alpha") == 0
            assert "alpha" not in fleet._write_gates
            assert "alpha" not in fleet._journal
            assert "alpha" not in fleet.shard_map.pins
            with pytest.raises(ServerError) as excinfo:
                client.top_r("alpha", k=3, r=5)
            assert excinfo.value.status == 404

            # A respawn never resurrects it, and a re-add starts clean.
            fleet.kill_worker(fleet.owner("alpha"))
            fleet.restart_dead_workers()
            with pytest.raises(ServerError) as excinfo:
                client.top_r("alpha", k=3, r=5)
            assert excinfo.value.status == 404
            fleet.add_graph("alpha", graph=_clique())
            assert _answer(client, "alpha") == \
                _oracle_answer(_oracle([]))
            client.close()
        finally:
            fleet.stop()

    def test_remove_unknown_graph_raises(self):
        fleet = ShardedCluster(workers=1, supervise=False)
        fleet.start(port=0)
        try:
            with pytest.raises(ClusterError):
                fleet.remove_graph("ghost")
        finally:
            fleet.stop()


class TestNewestReplicaRestore:
    """With several followers at different ages, a lost primary is
    restored from the *newest* replica, not the lowest index."""

    def test_restore_prefers_the_freshest_follower(self):
        fleet = ShardedCluster(workers=1, pins={"alpha": 0}, supervise=False,
                               followers=2, replication_interval=900.0,
                               journal_window=0)
        fleet.start(port=0)
        try:
            client = ServerClient(fleet.url, timeout=10.0)
            fleet.add_graph("alpha", graph=_clique())
            primary = fleet.store_root / "worker0"

            # replica0 syncs early (stale), replica1 after more writes
            # (fresh) — index order would wrongly prefer replica0.
            client.apply_updates("alpha", _chain_batch(0))
            replicate_store(primary, fleet.replica_root(0, 0))
            client.apply_updates("alpha", _chain_batch(1))
            client.apply_updates("alpha", _chain_batch(2))
            replicate_store(primary, fleet.replica_root(0, 1))

            fleet.destroy_worker_store(0)
            assert fleet.restart_dead_workers() == [0]
            note = fleet.last_restore_note or ""
            assert "replica1" in note, note
            oracle = _oracle([_chain_batch(i) for i in range(3)])
            assert _answer(client, "alpha") == _oracle_answer(oracle)
            client.close()
        finally:
            fleet.stop()
