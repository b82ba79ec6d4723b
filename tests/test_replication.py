"""Tests for the replication subsystem: store sync, update feeds,
lock liveness, and client retries.

The acceptance contract:

* **Follower sync is byte-faithful and cheap.**  A replicated root
  serves the same artifacts (checksum-verified); delta re-versions
  ship as byte ranges, unchanged files ship as nothing, and corrupt
  replica bytes are *repaired* while corrupt source bytes are
  *refused*.
* **The update feed is a replayable journal.**  Entries come back in
  apply order with the exact wire updates; replaying them onto the
  registered base graph reproduces the served rankings.
* **The store's writer lock never wedges.**  A writer killed holding
  the lock — flock or the pid-file fallback — does not block the next
  writer.
* **Client retries are idempotent-only, bounded, and deterministic.**
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import repro.service.lock as lock_module
from repro.core.online import online_search
from repro.errors import ServerError, StoreError
from repro.graph.graph import Graph
from repro.replication import (
    HungSocket,
    UpdateFeed,
    corrupt_file,
    read_store_manifest,
    replicate_store,
    verify_artifact,
)
from repro.replication.feed import entry_from_payload
from repro.server import DiversityRouter, ServerClient
from repro.server.client import _retry_jitter
from repro.server.http import serve
from repro.service.lock import StoreLock, pid_alive, read_owner
from repro.service.service import DiversityService
from repro.service.store import IndexStore

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _clique_with_tail(n: int = 5) -> Graph:
    g = Graph()
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(f"c{i}", f"c{j}")
    g.add_edge("c0", "tail0")
    g.add_edge("tail0", "tail1")
    return g


def _digest_tree(root: Path):
    """{relpath: sha256} over every file under ``root`` but the store's
    per-root ``.lock`` and ``manifest.json`` (not replicated bytes)."""
    return {str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name not in (".lock", "manifest.json")}


def _ranked(graph: Graph, k: int = 3, r: int = 5):
    result = online_search(graph, k, r)
    return [(e.vertex, e.score) for e in result.entries]


# ----------------------------------------------------------------------
# StoreLock: liveness across dead writers
# ----------------------------------------------------------------------
class TestStoreLock:
    HOLD_SCRIPT = """
import sys, time
{patch}
from repro.service.lock import StoreLock
lock = StoreLock({path!r})
lock.acquire()
print("LOCKED", flush=True)
time.sleep(60)
"""

    def _hold_in_subprocess(self, path, pidfile: bool):
        patch = ("import repro.service.lock as L; L.fcntl = None"
                 if pidfile else "")
        script = self.HOLD_SCRIPT.format(patch=patch, path=str(path))
        env = dict(os.environ, PYTHONPATH=SRC)
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, text=True, env=env)
        assert process.stdout.readline().strip() == "LOCKED"
        return process

    def test_flock_released_when_writer_killed(self, tmp_path):
        """SIGKILL a real process holding the flock: the kernel frees
        it, so the next writer acquires promptly."""
        path = tmp_path / ".lock"
        holder = self._hold_in_subprocess(path, pidfile=False)
        try:
            assert read_owner(path) == holder.pid
            holder.kill()
            holder.wait(timeout=10)
            with StoreLock(path, timeout=10):
                assert read_owner(path) == os.getpid()
        finally:
            if holder.poll() is None:  # pragma: no cover - cleanup
                holder.kill()

    def test_pidfile_stale_lock_broken(self, tmp_path, monkeypatch):
        """Without fcntl, a lock whose recorded owner is dead is broken
        instead of blocking forever."""
        monkeypatch.setattr(lock_module, "fcntl", None)
        path = tmp_path / ".lock"
        holder = self._hold_in_subprocess(path, pidfile=True)
        try:
            assert read_owner(path) == holder.pid
            assert pid_alive(holder.pid)
            holder.kill()
            holder.wait(timeout=10)
            assert not pid_alive(holder.pid)
            with StoreLock(path, timeout=10):
                pass  # broke the stale lock instead of timing out
        finally:
            if holder.poll() is None:  # pragma: no cover - cleanup
                holder.kill()

    def test_pidfile_live_holder_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lock_module, "fcntl", None)
        path = tmp_path / ".lock"
        with StoreLock(path):
            waiter = StoreLock(path, timeout=0.2)
            with pytest.raises(StoreError) as excinfo:
                waiter.acquire()
            assert "alive" in str(excinfo.value)

    def test_store_put_survives_killed_writer(self, tmp_path):
        """The satellite's end-to-end shape: a writer process dies
        holding the store's lock mid-put; the next put succeeds."""
        root = tmp_path / "store"
        graph = _clique_with_tail()
        DiversityService.cold(graph, store=IndexStore(root))
        holder = self._hold_in_subprocess(root / ".lock", pidfile=False)
        try:
            holder.kill()
            holder.wait(timeout=10)
            service = DiversityService.start(graph, store=IndexStore(root))
            report = service.apply_updates([("insert", "tail1", "tail2")])
            assert report.num_updates == 1
        finally:
            if holder.poll() is None:  # pragma: no cover - cleanup
                holder.kill()

    def test_owner_parsing_and_liveness(self, tmp_path):
        path = tmp_path / ".lock"
        assert read_owner(path) is None
        path.write_text("garbage")
        assert read_owner(path) is None
        path.write_text("-4\n")
        assert read_owner(path) is None
        assert not pid_alive(0)
        assert not pid_alive(-1)
        lock = StoreLock(path)
        lock.acquire()
        with pytest.raises(StoreError):
            lock.acquire()  # double-acquire by one instance
        lock.release()
        lock.release()  # idempotent


# ----------------------------------------------------------------------
# Store replication
# ----------------------------------------------------------------------
@pytest.fixture()
def replicated(tmp_path):
    """A source store with a live-update delta chain, one
    sync'd follower, and the serving service."""
    source = tmp_path / "primary"
    follower = tmp_path / "replica"
    graph = _clique_with_tail()
    service = DiversityService.cold(graph, store=IndexStore(source))
    service.apply_updates([("insert", "tail1", "tail2")])
    service.apply_updates([("insert", "tail2", "c1")])
    report = replicate_store(source, follower)
    return source, follower, service, report


class TestReplicateStore:
    def _artifact_files(self, root: Path):
        return sorted(p.relative_to(root)
                      for p in root.glob("objects/**/*") if p.is_file())

    def test_first_pass_ships_everything_byte_identical(self, replicated):
        source, follower, _, report = replicated
        assert report.files_full + report.files_delta > 0
        assert report.files_repaired == 0
        assert report.files_skipped == 0
        assert _digest_tree(follower) == _digest_tree(source)
        assert read_store_manifest(follower)["graphs"] == \
            read_store_manifest(source)["graphs"]

    def test_delta_reversion_ships_as_byte_ranges(self, replicated):
        source, follower, service, _ = replicated
        service.apply_updates([("insert", "tail2", "c2")])
        report = replicate_store(source, follower)
        # The patched binary artifacts arrive as header + dict + heap
        # tail, reusing follower-local bytes — not as full copies.
        assert report.files_delta >= 1
        assert report.bytes_reused > 0
        assert _digest_tree(follower) == _digest_tree(source)

    def test_idempotent_pass_ships_nothing(self, replicated):
        source, follower, _, _ = replicated
        report = replicate_store(source, follower)
        assert report.files_synced == 0
        assert report.files_skipped > 0
        assert report.bytes_shipped == 0

    def test_follower_warm_starts_the_lineage(self, replicated):
        _, follower, _, _ = replicated
        base = _clique_with_tail()
        warm = DiversityService.warm(base, IndexStore(follower))
        assert warm.warm_started
        result = warm.top_r(3, 5)
        assert [(e.vertex, e.score) for e in result.entries] == \
            _ranked(base)

    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    def test_corrupt_replica_detected_and_repaired(self, replicated,
                                                   mode):
        source, follower, _, _ = replicated
        victim = sorted(follower.glob("objects/**/*.bin"))[0]
        corrupt_file(victim, seed=7, mode=mode)
        assert not verify_artifact(victim)
        report = replicate_store(source, follower)
        assert report.files_repaired >= 1
        assert verify_artifact(victim)

    def test_corrupt_source_refused(self, replicated, tmp_path):
        source, _, _, _ = replicated
        victim = sorted(source.glob("objects/**/*.bin"))[0]
        corrupt_file(victim, seed=7, mode="flip")
        with pytest.raises(StoreError) as excinfo:
            replicate_store(source, tmp_path / "fresh")
        assert "refusing" in str(excinfo.value)

    def test_merge_keeps_the_followers_own_lineages(self, tmp_path):
        a_root, b_root, c_root = (tmp_path / name
                                  for name in ("a", "b", "c"))
        DiversityService.cold(_clique_with_tail(),
                              store=IndexStore(a_root))
        other = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        DiversityService.cold(other, store=IndexStore(b_root))
        replicate_store(a_root, c_root)
        replicate_store(b_root, c_root, merge=True)
        merged = set(read_store_manifest(c_root)["graphs"])
        assert merged == set(read_store_manifest(a_root)["graphs"]) \
            | set(read_store_manifest(b_root)["graphs"])
        # Without merge, the mirror is exact: A's lineage goes away.
        replicate_store(b_root, c_root)
        assert set(read_store_manifest(c_root)["graphs"]) == \
            set(read_store_manifest(b_root)["graphs"])

    def test_validation_errors(self, replicated, tmp_path):
        source, _, _, _ = replicated
        with pytest.raises(StoreError):
            read_store_manifest(tmp_path / "nowhere")
        with pytest.raises(StoreError):
            replicate_store(tmp_path / "nowhere", tmp_path / "f")
        with pytest.raises(StoreError):
            replicate_store(source, tmp_path / "f", keys=["nope"])

    def test_throttle_sees_every_file(self, replicated, tmp_path):
        source, _, _, _ = replicated
        seen = []
        replicate_store(source, tmp_path / "throttled",
                        throttle=seen.append)
        assert set(seen) == {str(p) for p in
                             self._artifact_files(source)}


# ----------------------------------------------------------------------
# UpdateFeed semantics
# ----------------------------------------------------------------------
class TestUpdateFeed:
    def test_append_since_and_order(self):
        feed = UpdateFeed()
        feed.append("g", [("insert", 1, 2)], version=1)
        feed.append("g", [("delete", 1, 2)], version=2)
        feed.append("other", [("insert", 9, 9)])
        entries, last, complete = feed.since("g", 0)
        assert [e.seq for e in entries] == [1, 2]
        assert [e.updates for e in entries] == \
            [(("insert", 1, 2),), (("delete", 1, 2),)]
        assert (last, complete) == (2, True)
        entries, last, complete = feed.since("g", 2)
        assert entries == [] and last == 2 and complete

    def test_capacity_overflow_marks_incomplete(self):
        feed = UpdateFeed(capacity=2)
        for i in range(5):
            feed.append("g", [("insert", i, i + 1)])
        entries, last, complete = feed.since("g", 0)
        assert [e.seq for e in entries] == [4, 5]
        assert last == 5
        assert not complete  # seqs 1-3 dropped: replay would gap
        _, _, complete = feed.since("g", 3)
        assert complete  # the floor: everything after 3 is present

    def test_wait_wakes_on_append(self):
        feed = UpdateFeed()
        results = []

        def poll():
            results.append(feed.wait("g", 0, timeout=10))

        thread = threading.Thread(target=poll)
        thread.start()
        time.sleep(0.05)
        feed.append("g", [("insert", 1, 2)])
        thread.join(timeout=10)
        assert not thread.is_alive()
        entries, last, complete = results[0]
        assert [e.seq for e in entries] == [1] and last == 1 and complete

    def test_wait_times_out_empty(self):
        feed = UpdateFeed()
        started = time.monotonic()
        entries, last, complete = feed.wait("g", 0, timeout=0.1)
        assert time.monotonic() - started < 5
        assert entries == [] and last == 0 and complete

    def test_payload_round_trip_with_tuple_labels(self):
        feed = UpdateFeed()
        entry = feed.append("g", [("insert", (0, 1), (2, 3))],
                            version=4, report={"num_updates": 1})
        wire = json.loads(json.dumps(entry.to_payload()))
        decoded = entry_from_payload(wire)
        assert decoded.updates == (("insert", (0, 1), (2, 3)),)
        assert decoded.seq == 1 and decoded.version == 4

    def test_payload_version_coerced_to_int(self):
        # Hand-rolled clients may send the version as a JSON string;
        # checkpoint floor comparisons must never mix str and int.
        wire = {"seq": "3", "graph": "g",
                "updates": [["insert", 1, 2]], "version": "7"}
        decoded = entry_from_payload(wire)
        assert decoded.version == 7 and isinstance(decoded.version, int)
        assert decoded.seq == 3 and isinstance(decoded.seq, int)
        absent = entry_from_payload(
            {"seq": 1, "graph": "g", "updates": []})
        assert absent.version is None

    def test_drop_forgets_the_graph(self):
        feed = UpdateFeed()
        feed.append("g", [("insert", 1, 2)])
        feed.drop("g")
        assert feed.since("g", 0) == ([], 0, True)
        with pytest.raises(ValueError):
            UpdateFeed(capacity=0)

    def test_truncate_raises_floor_and_flags_laggards(self):
        feed = UpdateFeed()
        for i in range(5):
            feed.append("g", [("insert", i, i + 1)], version=i + 1)
        assert feed.truncate("g", 3) == 3
        entries, last, complete = feed.since("g", 3)
        assert [e.seq for e in entries] == [4, 5]
        assert last == 5 and complete  # at the floor: suffix is whole
        # A consumer that slept past the truncation point must resync.
        _, _, complete = feed.since("g", 1)
        assert not complete
        # Idempotent: re-truncating at or below the floor drops nothing.
        assert feed.truncate("g", 3) == 0
        assert feed.truncate("missing", 10) == 0

    def test_truncate_wakes_parked_laggard(self):
        feed = UpdateFeed()
        for i in range(3):
            feed.append("g", [("insert", i, i + 1)])
        results = []

        def poll():
            results.append(feed.wait("g", 3, timeout=10))

        thread = threading.Thread(target=poll)
        thread.start()
        time.sleep(0.05)
        feed.truncate("g", 3)
        feed.append("g", [("insert", 9, 10)])
        thread.join(timeout=10)
        assert not thread.is_alive()
        entries, last, complete = results[0]
        assert [e.seq for e in entries] == [4] and last == 4 and complete

    def test_truncate_version_maps_to_seq_prefix(self):
        feed = UpdateFeed()
        feed.append("g", [("insert", 0, 1)], version=5)
        feed.append("g", [("insert", 1, 2)], version=6)
        feed.append("g", [("insert", 2, 3)], version=9)
        assert feed.truncate_version("g", 6) == 2
        entries, _, complete = feed.since("g", 2)
        assert [e.version for e in entries] == [9] and complete
        _, _, complete = feed.since("g", 0)
        assert not complete  # below the raised floor
        assert feed.truncate_version("g", 4) == 0
        assert feed.truncate_version("ghost", 99) == 0
        # Entries without a version are never folded by version.
        feed.append("h", [("insert", 1, 2)])
        assert feed.truncate_version("h", 99) == 0


# ----------------------------------------------------------------------
# The feed endpoint, end to end
# ----------------------------------------------------------------------
@pytest.fixture()
def served_router():
    router = DiversityRouter()
    router.add_graph("g", _clique_with_tail())
    server = serve(router, port=0)
    client = ServerClient(f"http://127.0.0.1:{server.server_port}")
    yield router, client
    client.close()
    server.shutdown()


class TestFeedEndpoint:
    def test_feed_replays_to_the_served_rankings(self, served_router):
        _, client = served_router
        batches = [[("insert", "tail1", "tail2")],
                   [("insert", "tail2", "c1"), ("delete", "c0", "tail0")]]
        for batch in batches:
            client.apply_updates("g", batch)
        answer = client.update_feed("g")
        assert answer["complete"] and answer["last_seq"] == 2
        entries = [entry_from_payload(e) for e in answer["entries"]]
        assert [e.seq for e in entries] == [1, 2]
        assert [e.version for e in entries] == [1, 2]  # snapshot versions
        # Replaying the feed onto the registered base graph reproduces
        # exactly what the server now serves — the recovery contract.
        oracle = _clique_with_tail()
        replayed = DiversityService.cold(oracle)
        for entry in entries:
            replayed.apply_updates(list(entry.updates))
        wire = client.top_r("g", k=3, r=5)
        local = replayed.top_r(3, 5)
        assert json.dumps(wire["vertices"]) == \
            json.dumps(local.vertices)
        assert json.dumps(wire["scores"]) == json.dumps(local.scores)

    def test_since_filters_and_reports(self, served_router):
        _, client = served_router
        client.apply_updates("g", [("insert", "tail1", "tail2")])
        client.apply_updates("g", [("insert", "tail2", "tail3")])
        answer = client.update_feed("g", since=1)
        assert [e["seq"] for e in answer["entries"]] == [2]
        assert answer["since"] == 1 and answer["last_seq"] == 2

    def test_long_poll_wakes_on_update(self, served_router):
        _, client = served_router
        applier = threading.Timer(
            0.2, client.apply_updates,
            args=("g", [("insert", "tail1", "tail2")]))
        applier.start()
        started = time.monotonic()
        answer = client.update_feed("g", since=0, timeout=10)
        elapsed = time.monotonic() - started
        applier.join()
        assert [e["seq"] for e in answer["entries"]] == [1]
        assert elapsed < 10  # woke on the append, not the timeout

    def test_unknown_graph_and_bad_params(self, served_router):
        _, client = served_router
        with pytest.raises(ServerError) as excinfo:
            client.update_feed("ghost")
        assert excinfo.value.status == 404
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/graphs/g/updates/feed",
                            params={"timeout": "soon"})
        assert excinfo.value.status == 400

    def test_truncate_endpoint_drives_the_resync_path(self, served_router):
        _, client = served_router
        acks = [client.apply_updates("g", [("insert", "tail1", "tail2")]),
                client.apply_updates("g", [("insert", "tail2", "c1")])]
        # The ack carries the post-apply store coordinates the cluster
        # journals for checkpointing (no store here, so key is None).
        assert [a["version"] for a in acks] == [1, 2]
        assert all("key" in a for a in acks)
        answer = client.truncate_feed("g", version=acks[0]["version"])
        assert answer["dropped"] == 1 and answer["last_seq"] == 2
        # A consumer polling from before the truncation must resync;
        # one at the floor still replays the suffix completely.
        assert client.update_feed("g", since=0)["complete"] is False
        tail = client.update_feed("g", since=1)
        assert tail["complete"] and [e["seq"] for e in tail["entries"]] == [2]
        # Explicit-seq form, and the validation errors.
        assert client.truncate_feed("g", seq=2)["dropped"] == 1
        with pytest.raises(ServerError) as excinfo:
            client.truncate_feed("ghost", version=1)
        assert excinfo.value.status == 404
        with pytest.raises(ServerError) as excinfo:
            client.truncate_feed("g")
        assert excinfo.value.status == 400

    def test_remove_graph_drops_feed_and_unhooks(self, served_router):
        router, client = served_router
        client.apply_updates("g", [("insert", "tail1", "tail2")])
        assert router.feed.last_seq("g") == 1
        service = router.remove_graph("g")
        assert router.feed.last_seq("g") == 0
        assert service.update_listener is None
        service.apply_updates([("insert", "tail2", "tail3")])
        assert router.feed.last_seq("g") == 0  # standalone use: silent


# ----------------------------------------------------------------------
# Client retries, deadlines, and the hung-socket fault
# ----------------------------------------------------------------------
class _FlakyHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # noqa: A002
        pass

    def _answer(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        self.server.hits += 1
        if self.server.hits <= self.server.fail_first:
            status, body = 503, b'{"error": "respawning"}'
        else:
            status, body = 200, b'{"ok": true}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _answer
    do_POST = _answer


@pytest.fixture()
def flaky_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    server.hits = 0
    server.fail_first = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()


class TestClientRetries:
    def test_get_retries_through_503s(self, flaky_server):
        flaky_server.fail_first = 2
        client = ServerClient(f"http://127.0.0.1:{flaky_server.server_port}",
                              retries=4, retry_backoff=0.01)
        assert client._request("GET", "/anything") == {"ok": True}
        assert flaky_server.hits == 3
        client.close()

    def test_retries_exhausted_surface_the_503(self, flaky_server):
        flaky_server.fail_first = 100
        client = ServerClient(f"http://127.0.0.1:{flaky_server.server_port}",
                              retries=2, retry_backoff=0.01)
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/anything")
        assert excinfo.value.status == 503
        assert flaky_server.hits == 3  # 1 + 2 retries, not more
        client.close()

    def test_post_never_retries(self, flaky_server):
        """A write that 503s must not be re-sent: the server may have
        been mid-apply, and a re-send could double-apply a batch."""
        flaky_server.fail_first = 1
        client = ServerClient(f"http://127.0.0.1:{flaky_server.server_port}",
                              retries=5, retry_backoff=0.01)
        with pytest.raises(ServerError):
            client._request("POST", "/anything", body={"x": 1})
        assert flaky_server.hits == 1
        client.close()

    def test_deadline_bounds_a_hung_socket(self):
        """The nastiest failure: a server that accepts and goes silent.
        The per-attempt socket timeout plus the deadline bound the
        total wait — the client never hangs."""
        with HungSocket() as hung:
            client = ServerClient(hung.url, timeout=0.3, retries=10,
                                  retry_backoff=0.05, deadline=1.5)
            started = time.monotonic()
            with pytest.raises(ServerError) as excinfo:
                client._request("GET", "/healthz")
            elapsed = time.monotonic() - started
            assert excinfo.value.status == 0
            assert elapsed < 10  # bounded, nowhere near 10 x 0.3 + pauses
            client.close()

    def test_jitter_is_deterministic_and_bounded(self):
        values = {_retry_jitter("/graphs/g/top_r", attempt)
                  for attempt in range(16)}
        assert len(values) == 16  # distinct per attempt
        assert all(0.0 <= v < 1.0 for v in values)
        assert _retry_jitter("/x", 3) == _retry_jitter("/x", 3)

    def test_connection_refused_retries_then_raises(self):
        probe = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
        port = probe.server_port
        probe.server_close()  # nothing listens here now
        client = ServerClient(f"http://127.0.0.1:{port}", retries=2,
                              retry_backoff=0.01)
        with pytest.raises(ServerError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        client.close()
