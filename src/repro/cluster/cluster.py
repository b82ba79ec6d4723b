""":class:`ShardedCluster`: worker processes behind one supervised frontend.

``repro serve`` used to put every graph in one Python process — one
GIL, so routed throughput capped at roughly one core no matter how
many graphs were hosted.  The cluster breaks that cap along the natural
boundary the paper's workload offers: *graphs are independent*, so each
named graph lives on exactly one worker process (a full
:class:`~repro.server.router.DiversityRouter` + HTTP stack over its own
:class:`~repro.service.IndexStore` root) and the
:class:`~repro.cluster.frontend.ClusterFrontend` relays each request to
the owner chosen by a deterministic consistent-hash
:class:`~repro.cluster.shardmap.ShardMap`.

Responsibilities, in order of appearance:

* **Spawn.**  ``start()`` launches the worker fleet (daemonic
  :mod:`multiprocessing` processes; fork when this process is
  single-threaded, forkserver otherwise — forking a threaded process
  can copy held locks) and waits for each worker's ready handshake.
* **Register.**  ``add_graph`` posts the graph to its owning worker's
  private ``/admin/graphs`` endpoint and remembers the registration
  spec — the replay script for that worker's next incarnation.
* **Supervise.**  A monitor thread respawns dead workers on their old
  store root (replayed graphs warm-start from persisted artifacts) and
  replays their registrations.  Until the respawn lands, the frontend
  answers 503 + ``Retry-After`` for that shard's graphs — and *only*
  that shard's: a worker death never touches the rest of the fleet.
* **Answer-preservation.**  Workers run the unmodified single-process
  API and the frontend relays bodies byte-for-byte, so a cluster
  answer is exactly the single-process answer for the same graph
  (asserted end to end by ``tests/test_cluster.py``).

* **Replicate.**  With ``followers=N``, a replication thread mirrors
  every worker's store root into ``N`` follower roots
  (``<root>/worker<slot>-replica<f>``) via
  :func:`repro.replication.sync.replicate_store` — binary re-versions
  ship as byte-range deltas, every arrival checksum-verified.  When a
  worker's *primary* store root is lost (disk death, simulated by
  :meth:`destroy_worker_store`), the respawn seeds a fresh primary
  from the newest valid replica before the worker comes up, so it
  still warm-starts.
* **Replay.**  The frontend journals every successfully relayed update
  batch (:meth:`note_update`); a respawned worker gets its graph
  registrations *and* the post-registration update stream replayed, so
  recovery restores the graph as last served, not as registered.
* **Checkpoint.**  The journal is *bounded*: once replication has
  durably shipped the store versions covering a prefix of acked
  batches (immediately, with no followers), the prefix is folded into
  the graph's effective registration and truncated
  (:meth:`checkpoint_journals`), and the owning worker's feed floor is
  raised to match — recovery replays a bounded suffix, not everything
  since boot, and frontend memory stays O(window) per graph.
* **Move.**  :meth:`move_graph` hands a graph to another worker with
  zero 503s: replicate the artifacts, register the target, replay the
  journal, then close the graph's write gate only for the final
  catch-up + pin flip (reads double-serve from the old owner until the
  flip, writes stall for milliseconds instead of failing).

Examples
--------
>>> from repro.graph.graph import Graph
>>> with ShardedCluster(workers=2).start(port=0) as cluster:
...     _ = cluster.add_graph("tri", graph=Graph(edges=[(0, 1), (1, 2),
...                                                     (0, 2)]))
...     from repro.server.client import ServerClient
...     client = ServerClient(cluster.url)
...     client.top_r("tri", k=3, r=1)["vertices"]
[0]
"""

from __future__ import annotations

import json
import math
import multiprocessing
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    ClusterError,
    InvalidParameterError,
    ServerError,
    StoreError,
)
from repro.graph.graph import Graph
from repro.graph.io import graph_to_payload
from repro.replication.sync import read_store_manifest, replicate_store
from repro.server.client import ServerClient
from repro.server.http import _coerce_updates
from repro.server.router import _NAME_PATTERN
from repro.cluster.frontend import ClusterFrontend, serve_frontend
from repro.cluster.shardmap import DEFAULT_REPLICAS, ShardMap
from repro.cluster.worker import load_graph_spec, run_worker


def _spawn_context():
    """Fork where it is safe, forkserver where it is not (same
    reasoning as :func:`repro.build.parallel._pool_context`).

    Re-evaluated at every spawn, not cached: the *initial* fleet is
    usually spawned from a single-threaded process (fork is cheap and
    safe), but supervised *respawns* run on the supervisor thread with
    the frontend's handler threads live — forking there could copy a
    lock in a held state into the child, so those take forkserver.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context()


class _WorkerHandle:
    """One worker slot's live state (process, port, pooled client)."""

    def __init__(self, slot: int, process, port: int,
                 client: ServerClient) -> None:
        self.slot = slot
        self.process = process
        self.port = port
        self.client = client
        #: Set by the frontend when a request to this worker failed at
        #: the connection level; the supervisor probes (and respawns if
        #: the probe fails) instead of waiting for ``is_alive`` to flip.
        self.suspect = False

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _JournalEntry:
    """One journaled update batch: the raw acked wire body plus the
    owner's post-apply store coordinates, when its response carried
    them (the checkpoint-eligibility signal)."""

    __slots__ = ("body", "version", "key")

    def __init__(self, body: bytes, version: Optional[int],
                 key: Optional[str]) -> None:
        self.body = body
        self.version = version
        self.key = key


class _JournalRecord:
    """One graph's bounded update journal plus its checkpoint.

    ``entries`` holds only the *suffix* past the checkpoint; the
    ``base`` batches before it have been folded into ``folded`` — the
    registration graph with those batches applied, mutation-for-
    mutation as the worker applied them, so its content fingerprint
    equals the checkpointed store key and a respawn warm-starts at the
    chain tip.  Positions handed to replay are absolute
    (``base + index``), which keeps them valid across a truncation.
    """

    __slots__ = ("entries", "base", "bytes_retained",
                 "checkpoint_version", "checkpoint_key", "folded")

    def __init__(self) -> None:
        self.entries: List[_JournalEntry] = []
        self.base = 0
        self.bytes_retained = 0
        self.checkpoint_version: Optional[int] = None
        self.checkpoint_key: Optional[str] = None
        self.folded: Optional[Graph] = None


class ShardedCluster:
    """N worker processes + consistent-hash router tier + supervisor.

    Parameters
    ----------
    workers:
        Worker process count (>= 1).
    store_root:
        Directory under which each worker gets its own IndexStore root
        (``<root>/worker<slot>``).  Defaults to a cluster-owned
        temporary directory removed on :meth:`stop`; pass a real path
        to keep artifacts across cluster restarts.
    build_jobs:
        Forwarded to every worker's router (the PR-4 ``BuildPlan``
        knob).  Workers are daemonic, where pool dispatch degrades to
        the byte-identical in-process build.
    pins:
        Explicit ``{name: slot}`` shard overrides.
    supervise:
        Run the restart loop (disable in tests that stage worker death
        by hand and call :meth:`restart_dead_workers` themselves).
    restart_interval:
        Seconds between supervisor checks; also sizes the 503
        ``Retry-After`` hint.
    followers:
        Follower store copies per worker (>= 0).  With ``followers=N``
        a background thread keeps ``N`` replica roots per slot in sync
        (see :meth:`replicate_followers`); a lost primary store root is
        then rebuilt from the newest valid replica at respawn.  Note
        this is *store* replication — ``replicas=`` above is the
        unrelated consistent-hash ring-point count.
    replication_interval:
        Seconds between follower sync passes.
    journal_window:
        Retained-batch threshold that triggers an opportunistic journal
        checkpoint from the write path (``0`` disables checkpointing
        entirely — the journal then grows with history, as before).
        Replication passes checkpoint eagerly regardless of the window;
        the window is the backstop for follower-less clusters and for
        write bursts between passes.
    """

    def __init__(self, workers: int, *,
                 store_root=None,
                 build_jobs: Optional[int] = 0,
                 pins: Optional[Dict[str, int]] = None,
                 replicas: int = DEFAULT_REPLICAS,
                 host: str = "127.0.0.1",
                 supervise: bool = True,
                 restart_interval: float = 0.5,
                 followers: int = 0,
                 replication_interval: float = 0.25,
                 journal_window: int = 128,
                 spawn_timeout: float = 30.0,
                 quiet: bool = True) -> None:
        if workers < 1:
            raise ClusterError(f"a cluster needs >= 1 worker, got {workers}")
        if followers < 0:
            raise ClusterError(f"followers must be >= 0, got {followers}")
        if journal_window < 0:
            raise ClusterError(
                f"journal_window must be >= 0, got {journal_window}")
        self.shard_map = ShardMap(workers, replicas=replicas, pins=pins)
        self.followers = followers
        self.replication_interval = replication_interval
        self.build_jobs = build_jobs
        self.host = host
        self.supervise = supervise
        self.restart_interval = restart_interval
        self.spawn_timeout = spawn_timeout
        self.quiet = quiet
        if store_root is None:
            self._store_root = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
            self._owns_store_root = True
        else:
            self._store_root = Path(store_root)
            self._owns_store_root = False
        self.journal_window = journal_window
        self._handles: List[Optional[_WorkerHandle]] = [None] * workers
        self._registrations: Dict[str, Dict[str, object]] = {}
        #: Per-graph bounded update journal: the raw wire bodies of
        #: acked update batches *past the checkpoint*, in relay order —
        #: the replay script that restores a respawned worker (or a
        #: shard-move target) to *as last served*.  Once replication
        #: has durably shipped the store versions covering a prefix
        #: (or, with no followers, once the window fills), the prefix
        #: is folded into the record's effective registration graph and
        #: truncated (:meth:`checkpoint_journals`), so recovery replays
        #: a bounded suffix instead of everything since boot.
        self._journal: Dict[str, _JournalRecord] = {}
        #: Per-graph write gates.  The frontend holds a graph's gate
        #: across each relayed write; a shard move's final catch-up
        #: closes it while flipping the pin, which is what makes the
        #: handoff lossless *and* 503-free (writes wait, reads never
        #: gate — they double-serve from the old owner until the flip).
        self._write_gates: Dict[str, threading.Lock] = {}
        self._respawn_counts: List[int] = [0] * workers
        #: Per-slot summary of the last follower sync pass.
        self._replication_reports: Dict[int, Dict[str, object]] = {}
        #: ``{slot: {follower: {graph key: newest shipped version}}}``
        #: from the last sync pass — the durability floors journal
        #: checkpointing compares acked batches against.
        self._follower_floors: Dict[int, Dict[int, Dict[str, int]]] = {}
        self.last_replication_error: Optional[str] = None
        #: Fault-injection hook: seconds to sleep per replicated file
        #: (a "slow follower"); the chaos harness sets it, sync passes
        #: honour it through replicate_store's throttle callback.
        self.replication_delay: float = 0.0
        # _lock guards only quick handle/registration reads and writes
        # (it sits on the frontend's per-request path via client_for);
        # _respawn_lock serialises whole respawn passes, whose probe /
        # spawn / replay steps block for seconds and must never stall
        # routed requests to healthy workers.
        self._lock = threading.RLock()
        self._respawn_lock = threading.Lock()
        # Serialises shard moves: two concurrent move_graph calls for
        # any graphs could interleave their replicate/replay/flip
        # phases against the same worker stores.
        self._move_lock = threading.Lock()
        self._replicator: Optional[threading.Thread] = None
        #: Last respawn failure (visible to operators via repr/debug);
        #: cleared by the next successful pass.
        self.last_respawn_error: Optional[str] = None
        #: Last restore-from-replica note ("worker N: store restored
        #: from ..."), kept until the next restore.
        self.last_restore_note: Optional[str] = None
        self._frontend: Optional[ClusterFrontend] = None
        self._supervisor: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._wake_event = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, port: int = 0) -> "ShardedCluster":
        """Spawn the fleet, bind the frontend, start supervising."""
        if self._started:
            raise ClusterError("this cluster is already started")
        for slot in range(self.num_workers):
            self._handles[slot] = self._spawn(slot)  # repro-lint: disable=RL002 -- pre-start: the supervisor thread does not exist yet
        self._frontend = serve_frontend(self, port, host=self.host,
                                        quiet=self.quiet)
        self._started = True
        if self.supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, name="repro-cluster-supervisor",
                daemon=True)
            self._supervisor.start()
        if self.followers > 0:
            self._replicator = threading.Thread(
                target=self._replicate_loop,
                name="repro-cluster-replicator", daemon=True)
            self._replicator.start()
        return self

    def stop(self) -> None:
        """Shut the frontend, supervisor, and every worker down."""
        self._stop_event.set()
        self._wake_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10)
            self._supervisor = None
        if self._replicator is not None:
            self._replicator.join(timeout=10)
            self._replicator = None
        if self._frontend is not None:
            self._frontend.shutdown()
            self._frontend.server_close()
            self._frontend = None
        # _respawn_lock: an in-flight supervisor pass (the join above
        # can time out while _spawn blocks) must finish — and see the
        # stop flag instead of publishing a fresh worker — before the
        # handles are snapshotted and the store root removed.
        with self._respawn_lock, self._lock:
            handles, self._handles = (list(self._handles),
                                      [None] * self.num_workers)
        for handle in handles:
            if handle is None:
                continue
            handle.client.close()
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)
                if handle.process.is_alive():  # pragma: no cover
                    handle.process.kill()
                    handle.process.join(timeout=5)
        if self._owns_store_root:
            shutil.rmtree(self._store_root, ignore_errors=True)
        self._started = False

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Spawning and supervision
    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> _WorkerHandle:
        ctx = _spawn_context()
        parent, child = ctx.Pipe(duplex=False)
        store_root = self._store_root / f"worker{slot}"
        process = ctx.Process(
            target=run_worker,
            args=(slot, self.host, 0, str(store_root), self.build_jobs,
                  child, self.quiet),
            name=f"repro-worker-{slot}", daemon=True)
        process.start()
        child.close()
        try:
            try:
                if not parent.poll(self.spawn_timeout):
                    raise ClusterError(
                        f"worker {slot} did not come up within "
                        f"{self.spawn_timeout}s")
                kind, value = parent.recv()
            except EOFError:
                raise ClusterError(
                    f"worker {slot} died before reporting ready") from None
            finally:
                parent.close()
            if kind != "ready":
                raise ClusterError(
                    f"worker {slot} failed to start: {value}")
        except ClusterError:
            # Never leak the process: a slow-but-alive worker left
            # behind here would hold the slot's store root and a port
            # with no handle pointing at it (even stop() couldn't
            # reach it), and the next retry would double-occupy both.
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
                if process.is_alive():  # pragma: no cover
                    process.kill()
            raise
        client = ServerClient(f"http://{self.host}:{value}")
        return _WorkerHandle(slot, process, value, client)

    def _supervise(self) -> None:  # pragma: no cover - timing-dependent
        while not self._stop_event.is_set():
            self._wake_event.wait(self.restart_interval)
            self._wake_event.clear()
            if self._stop_event.is_set():
                return
            try:
                self.restart_dead_workers()
            except Exception as exc:  # repro-lint: disable=RL003 -- a dead supervisor means permanent 503s; record and retry next tick
                # The supervisor must outlive any single bad pass — a
                # dead supervisor means permanent 503s for every later
                # worker death.  Record and retry next tick.
                self.last_respawn_error = f"{type(exc).__name__}: {exc}"

    def restart_dead_workers(self) -> List[int]:
        """One supervisor pass: respawn every dead worker and replay
        its graph registrations.  Returns the restarted slots.

        The blocking steps (health probe, process spawn, registration
        replay) run *outside* the handle lock, so routed requests to
        healthy workers never stall behind a recovery; a slot whose
        respawn or replay fails is left empty (503s) for the next pass
        to retry, and never published half-registered.
        """
        restarted: List[int] = []
        errors: List[str] = []
        with self._respawn_lock:
            for slot in range(self.num_workers):
                if self._stop_event.is_set():
                    break  # stop() is tearing the fleet down
                with self._lock:
                    handle = self._handles[slot]
                if handle is not None and handle.alive \
                        and not handle.suspect:
                    continue
                if handle is not None and handle.alive and handle.suspect:
                    try:  # probe before declaring a live process dead
                        handle.client.healthz()
                        handle.suspect = False
                        continue
                    except ServerError:
                        handle.process.terminate()
                        handle.process.join(timeout=5)
                if handle is not None:
                    handle.client.close()
                    with self._lock:
                        self._handles[slot] = None
                restored = self._restore_store_if_needed(slot)
                if restored:
                    self.last_restore_note = restored
                try:
                    replacement = self._spawn(slot)
                except ClusterError as exc:
                    errors.append(f"worker {slot}: {exc}")
                    continue
                try:
                    if self._stop_event.is_set():
                        raise ClusterError("cluster stopping")
                    self._replay_registrations(replacement)
                except (ServerError, ClusterError) as exc:
                    # Died again mid-replay: discard the half-registered
                    # incarnation; this slot stays down until next pass.
                    errors.append(f"worker {slot} replay: {exc}")
                    replacement.client.close()
                    if replacement.process.is_alive():
                        replacement.process.terminate()
                        replacement.process.join(timeout=5)
                    continue
                with self._lock:
                    self._handles[slot] = replacement
                    self._respawn_counts[slot] += 1
                restarted.append(slot)
        self.last_respawn_error = "; ".join(errors) or None
        return restarted

    def _restore_store_if_needed(self, slot: int) -> Optional[str]:
        """Seed a lost/unreadable primary store root from the newest
        valid replica before a respawn (returns a note, or ``None``
        when the primary was healthy or no replica could help).

        No published handle exists for this slot while this runs, so
        no concurrent sync pass can write the primary mid-restore.
        Every restored artifact is checksum-verified by
        :func:`replicate_store` — a corrupt replica is *refused* and
        the next one tried; with none usable the worker cold-starts,
        which is slow but never wrong.
        """
        if self.followers < 1:
            return None
        primary = self._store_root / f"worker{slot}"
        try:
            read_store_manifest(primary)
            return None  # primary intact: normal warm start
        except StoreError:
            pass  # lost or unreadable: fall through to the replicas
        # Rank replicas newest-first (highest shipped store version):
        # with checkpointed journals the suffix replay only reaches
        # back to the checkpoint, so restoring a *stale* replica when a
        # fresher one exists would cost a cold rebuild of the folded
        # registration instead of a chain-tip warm start.
        ranked: List[Tuple[int, int, Path]] = []
        for follower in range(self.followers):
            replica = self.replica_root(slot, follower)
            try:
                manifest = read_store_manifest(replica)
            except StoreError:
                continue  # missing/corrupt replica: skip
            newest = max(
                (int(number) for entry in manifest["graphs"].values()
                 for number in entry["versions"]), default=0)
            ranked.append((newest, follower, replica))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        for _, _, replica in ranked:
            try:
                report = replicate_store(replica, primary)
            except StoreError:
                continue  # replica failed verification: try the next
            return (f"worker {slot}: store restored from "
                    f"{replica.name} ({report.summary()})")
        return None  # cold start; registrations replay regardless

    def _replay_registrations(self, handle: _WorkerHandle) -> None:
        """Re-register the slot's graphs, then replay their journaled
        post-checkpoint update batches (in relay order).

        The registration is the *effective* spec — the folded graph
        when a checkpoint exists — so the replay starts at the
        checkpoint and streams only the retained suffix, however long
        the cluster has been up.  The suffix cannot miss a batch: this
        slot has no published handle while replay runs, so the frontend
        answers 503 for its graphs — no *new* update can be relayed
        (and journaled) until the replayed worker is published; and the
        caller holds ``_respawn_lock``, which excludes a concurrent
        checkpoint from folding entries out from under the replay.
        """
        with self._lock:
            owned = []
            for name in self._registrations:
                if self.shard_map.owner(name) != handle.slot:
                    continue
                spec, start = self._effective_spec_locked(name)
                owned.append((name, spec, start))
        for name, spec, start in owned:
            handle.client._request("POST", "/admin/graphs", body=spec)
            self._replay_journal(handle.client, name, start)

    def note_worker_failure(self, slot: int) -> None:
        """Frontend hook: a request to this worker failed at the
        connection level.  Mark it suspect and wake the supervisor."""
        with self._lock:
            handle = self._handles[slot]
            if handle is not None:
                handle.suspect = True
        self._wake_event.set()

    def kill_worker(self, slot: int) -> int:
        """SIGKILL one worker (chaos hook for tests and the smoke
        script); returns the killed pid."""
        with self._lock:
            handle = self._handles[slot]
            if handle is None or not handle.alive:
                raise ClusterError(f"worker {slot} is not running")
            pid = handle.process.pid
            handle.process.kill()
            handle.process.join(timeout=10)
        return pid

    def destroy_worker_store(self, slot: int) -> Path:
        """Chaos hook: SIGKILL one worker **and** delete its primary
        store root — the disk-died scenario.  Recovery must then come
        from a follower replica (or a cold rebuild); returns the
        removed root."""
        self.kill_worker(slot)
        root = self._store_root / f"worker{slot}"
        shutil.rmtree(root, ignore_errors=True)
        return root

    # ------------------------------------------------------------------
    # Follower replication
    # ------------------------------------------------------------------
    def replica_root(self, slot: int, follower: int) -> Path:
        """One follower copy's store root
        (``<store_root>/worker<slot>-replica<follower>``)."""
        return self._store_root / f"worker{slot}-replica{follower}"

    def replicate_followers(self) -> Dict[int, Dict[str, object]]:
        """One follower sync pass over every worker's store root.

        Returns ``{slot: last-report-payload}``; per-slot failures are
        recorded in :attr:`last_replication_error` (and retried next
        pass) rather than raised — one slot's mid-compaction wobble
        must not starve the rest of the fleet of fresh replicas.
        """
        throttle = None
        if self.replication_delay > 0:
            delay = self.replication_delay
            throttle = lambda relpath: time.sleep(delay)  # noqa: E731
        errors: List[str] = []
        for slot in range(self.num_workers):
            primary = self._store_root / f"worker{slot}"
            try:
                read_store_manifest(primary)
            except StoreError:
                continue  # nothing to replicate yet (or primary lost)
            for follower in range(self.followers):
                try:
                    report = replicate_store(
                        primary, self.replica_root(slot, follower),
                        throttle=throttle)
                except StoreError as exc:
                    errors.append(
                        f"worker {slot} replica {follower}: {exc}")
                    continue
                with self._lock:
                    self._replication_reports[slot] = report.to_payload()
                    self._follower_floors.setdefault(slot, {})[follower] \
                        = dict(report.version_floors)
        self.last_replication_error = "; ".join(errors) or None
        # Every batch whose store version all followers now hold is
        # durably recoverable from a replica: fold and truncate.
        self.checkpoint_journals()
        with self._lock:
            return dict(self._replication_reports)

    def _replicate_loop(self) -> None:  # pragma: no cover - timing
        while not self._stop_event.is_set():
            self._stop_event.wait(self.replication_interval)
            if self._stop_event.is_set():
                return
            try:
                self.replicate_followers()
            except Exception as exc:  # repro-lint: disable=RL003 -- a dead replicator means silently stale replicas; record and retry next tick
                self.last_replication_error = \
                    f"{type(exc).__name__}: {exc}"

    # ------------------------------------------------------------------
    # Update journal, checkpointing, and write gates
    # ------------------------------------------------------------------
    def note_update(self, name: str, body: bytes,
                    version: Optional[int] = None,
                    key: Optional[str] = None) -> None:
        """Frontend hook: journal one successfully relayed update body
        (the replay script for respawns and shard moves), tagged with
        the owner's post-apply store ``version``/``key`` when its
        response carried them — the coordinates checkpointing compares
        against the followers' shipped floors."""
        with self._lock:
            rec = self._journal.setdefault(name, _JournalRecord())
            entry = _JournalEntry(
                bytes(body),
                int(version) if version is not None else None,
                str(key) if key is not None else None)
            rec.entries.append(entry)
            rec.bytes_retained += len(entry.body)
            crowded = (self.journal_window > 0
                       and len(rec.entries) >= self.journal_window)
        if crowded:
            # Opportunistic fold on the write path: never blocks — a
            # concurrent respawn/move/checkpoint keeps the locks and
            # the next update (or replication pass) retries.
            self.checkpoint_journals(blocking=False)

    def journal_length(self, name: str) -> int:
        """*Retained* (post-checkpoint) batches for one graph — what a
        recovery would replay (observability + tests)."""
        with self._lock:
            rec = self._journal.get(name)
            return len(rec.entries) if rec is not None else 0

    def journal_total(self, name: str) -> int:
        """All batches ever journaled for one graph: checkpointed
        (folded away) + retained."""
        with self._lock:
            rec = self._journal.get(name)
            return rec.base + len(rec.entries) if rec is not None else 0

    def journal_payload(self) -> Dict[str, object]:
        """Per-graph journal/checkpoint state (frontend ``/stats``)."""
        with self._lock:
            graphs: Dict[str, Dict[str, object]] = {}
            for name in sorted(self._journal):
                rec = self._journal[name]
                graphs[name] = {
                    "entries": len(rec.entries),
                    "total": rec.base + len(rec.entries),
                    "checkpointed": rec.base,
                    "checkpoint_version": rec.checkpoint_version,
                    "checkpoint_key": rec.checkpoint_key,
                    "bytes_retained": rec.bytes_retained,
                }
            return {"window": self.journal_window, "graphs": graphs}

    def write_gate(self, name: str) -> threading.Lock:
        """The per-graph lock serialising relayed writes against a
        shard move's final catch-up (created on first use)."""
        with self._lock:
            gate = self._write_gates.get(name)
            if gate is None:
                gate = threading.Lock()
                self._write_gates[name] = gate
            return gate

    def checkpoint_journals(self, blocking: bool = True
                            ) -> Dict[str, int]:
        """Fold every graph's durably covered journal prefix into its
        effective registration and truncate the retained list.

        A batch is *covered* when every follower's last sync pass
        shipped the store version its ack reported (with no followers,
        folding itself is the durability: the frontend replays the
        folded registration + suffix, which never consults a store).
        After folding, the owning worker's ``UpdateFeed`` floor is
        raised to match (best-effort RPC) so feed consumers that slept
        past the truncation take the ``complete=False`` resync path.

        Runs under the respawn *and* move locks: both replay paths read
        an (effective spec, position) pair and then stream entries, and
        a fold in between would drop batches out from under them.
        Returns ``{graph: batches folded}`` for this pass.
        """
        if self.journal_window <= 0 or self._stop_event.is_set():
            return {}
        if not self._respawn_lock.acquire(blocking=blocking):
            return {}
        try:
            if not self._move_lock.acquire(blocking=blocking):
                return {}
            try:
                return self._checkpoint_under_locks()
            finally:
                self._move_lock.release()
        finally:
            self._respawn_lock.release()

    def _checkpoint_under_locks(self) -> Dict[str, int]:
        with self._lock:
            names = sorted(self._journal)
        folded: Dict[str, int] = {}
        truncations: List[Tuple[int, str, int]] = []
        for name in names:
            count, version = self._fold_one(name)
            if count:
                folded[name] = count
                if version is not None:
                    truncations.append(
                        (self.shard_map.owner(name), name, version))
        for slot, name, version in truncations:
            client = self.client_for(slot)
            if client is None:
                continue
            try:
                client.truncate_feed(name, version=version)
            except ServerError:
                # Worker down or mid-handoff: the feed floor is an
                # optimisation (lagging consumers resync a little
                # later); the next checkpoint retries.
                pass
        return folded

    def _fold_one(self, name: str) -> Tuple[int, Optional[int]]:
        """Fold one graph's eligible journal prefix; returns
        ``(batches folded, checkpoint version)``."""
        with self._lock:
            rec = self._journal.get(name)
            spec = self._registrations.get(name)
            if rec is None or spec is None or not rec.entries:
                return 0, None if rec is None else rec.checkpoint_version
            eligible = self._eligible_prefix(name, rec)
            if eligible == 0:
                return 0, rec.checkpoint_version
            if rec.folded is None:
                rec.folded = load_graph_spec(spec)
            prefix = rec.entries[:eligible]
            # Decode every body up front: a body that no longer parses
            # must fail the fold *before* any graph mutation, leaving
            # the journal intact rather than half-advanced.
            batches = [_coerce_updates(json.loads(
                entry.body.decode("utf-8"))) for entry in prefix]
            for entry, updates in zip(prefix, batches):
                # Mirror apply_batch's graph mutations exactly — same
                # ops, same order — so the folded graph's fingerprint
                # equals the worker's post-batch store key.
                for op, u, v in updates:
                    if op == "insert":
                        rec.folded.add_edge(u, v)
                    else:
                        rec.folded.remove_edge(u, v)
                rec.base += 1
                rec.bytes_retained -= len(entry.body)
                if entry.version is not None:
                    rec.checkpoint_version = entry.version
                if entry.key is not None:
                    rec.checkpoint_key = entry.key
            del rec.entries[:eligible]
            return eligible, rec.checkpoint_version

    def _eligible_prefix(self, name: str, rec: _JournalRecord) -> int:
        """How many leading retained entries are durably covered."""
        if self.followers < 1:
            # No replicas to wait for: the folded registration *is* the
            # recovery source (registration + suffix replay never needs
            # a store — a lost primary just costs a cold build).
            return len(rec.entries)
        slot = self.shard_map.owner(name)
        floors = self._follower_floors.get(slot)
        if floors is None or len(floors) < self.followers:
            return 0  # not every follower has completed a pass yet
        count = 0
        for entry in rec.entries:
            if entry.key is None or not all(
                    entry.key in floor
                    and (entry.version is None
                         or floor[entry.key] >= entry.version)
                    for floor in floors.values()):
                break
            count += 1
        return count

    def _effective_spec_locked(self, name: str
                               ) -> Tuple[Dict[str, object], int]:
        """The registration a recovery replays *now*, plus the absolute
        journal position to resume from: the original spec when nothing
        is checkpointed, otherwise the folded graph shipped inline (its
        fingerprint matches the checkpointed store key, so the worker
        warm-starts at the chain tip instead of re-applying history).
        Callers hold ``_lock`` *and* the respawn or move lock — the
        pair must stay coherent until the replay finishes."""
        spec = self._registrations[name]
        rec = self._journal.get(name)
        if rec is None or rec.folded is None:
            return dict(spec), rec.base if rec is not None else 0
        return {"name": name, "graph": graph_to_payload(rec.folded)}, \
            rec.base

    def _replay_journal(self, client: ServerClient, name: str,
                        start: int) -> int:
        """POST journaled batches at absolute positions ``>= start``
        for one graph to a worker; returns the new absolute position.

        Positions are absolute (checkpointed + retained), so they stay
        meaningful across truncations; the suffix is sliced under the
        lock at O(suffix) — the journal is never copied wholesale.
        """
        with self._lock:
            rec = self._journal.get(name)
            if rec is None:
                return start
            first = max(start, rec.base)
            pending = rec.entries[first - rec.base:]
        for entry in pending:
            status, payload = client.request_raw(
                "POST", f"/graphs/{name}/updates", body=entry.body,
                headers={"Content-Type": "application/json"})
            if status >= 400:
                raise ClusterError(
                    f"replaying an update batch to graph {name!r} "
                    f"failed with status {status}: "
                    f"{payload[:200].decode('utf-8', 'replace')}")
        return first + len(pending)

    # ------------------------------------------------------------------
    # Shard handoff
    # ------------------------------------------------------------------
    def move_graph(self, name: str, target: int, *,
                   drain_seconds: float = 0.2) -> Dict[str, object]:
        """Hand one graph to another worker with zero 503s.

        The drain/double-serve protocol:

        1. **Replicate** the source worker's store into the target's
           (``merge=True`` — the target keeps its own graphs), so the
           target can warm-start the graph.
        2. **Register** the graph on the target (idempotent admin
           endpoint) and **replay** the journaled update stream while
           the source keeps serving reads *and* writes.
        3. **Flip** under the graph's write gate: with writes briefly
           parked (not failed), replay whatever landed since step 2,
           then pin the graph to the target.  Gated writes resume
           against the new owner; reads were never blocked at all —
           they double-serve from the source until the flip.
        4. **Drain**: after ``drain_seconds`` (covering requests that
           resolved the old owner just before the flip), deregister the
           graph from the source, which keeps answering in-flight reads
           until then.

        The store merge in step 1 assumes the *target's own* graphs are
        not mid-write during the brief manifest merge; move graphs in a
        write lull (reads are unrestricted throughout).
        """
        if not self._started:
            raise ClusterError("start() the cluster before moving graphs")
        if not 0 <= target < self.num_workers:
            raise ClusterError(
                f"cannot move {name!r} to worker {target}: have "
                f"{self.num_workers} worker(s)")
        with self._lock:
            if name not in self._registrations:
                raise ClusterError(f"no graph named {name!r} is registered")
        with self._move_lock:
            source = self.shard_map.owner(name)
            if source == target:
                return {"graph": name, "source": source, "target": target,
                        "moved": False}
            target_client = self.client_for(target)
            if target_client is None:
                raise ClusterError(
                    f"cannot move {name!r}: target worker {target} is down")
            try:
                replicate_store(self._store_root / f"worker{source}",
                                self._store_root / f"worker{target}",
                                merge=True)
            except StoreError:
                # No readable source store (e.g. an all-JSON fleet that
                # never persisted): the target cold-builds at
                # registration instead of warm-starting.  Correctness
                # comes from registration + journal replay either way.
                pass
            # Effective spec + suffix: the target warm-starts at the
            # checkpoint (the folded graph's fingerprint is the
            # checkpointed store key, which step 1 just replicated in)
            # and only the retained journal streams over.  Holding
            # _move_lock keeps (spec, start) coherent: a concurrent
            # checkpoint cannot fold entries past ``start``.
            with self._lock:
                spec, start = self._effective_spec_locked(name)
            target_client._request("POST", "/admin/graphs", body=spec)
            position = self._replay_journal(target_client, name, start)
            gate = self.write_gate(name)
            with gate:
                # Writes are parked here (frontend relays hold this
                # gate); catch up on what landed since, then flip.
                self._replay_journal(target_client, name, position)
                self.shard_map.pin(name, target)
            time.sleep(drain_seconds)
            source_client = self.client_for(source)
            if source_client is not None:
                # Best-effort: a dead source has nothing to deregister.
                source_client._request("POST", "/admin/graphs/remove",
                                       body={"name": name})
            return {"graph": name, "source": source, "target": target,
                    "moved": True}

    def remove_graph(self, name: str) -> Dict[str, object]:
        """Deregister a graph fleet-wide and drop every piece of
        frontend-side state that tracked it.

        Before this existed, a graph's ``_journal`` record and write
        gate lived for the cluster's lifetime even after its worker
        stopped serving it — a slow per-graph leak.  The worker-side
        removal also drops the graph's :class:`UpdateFeed` journal
        (``DiversityRouter.remove_graph`` calls ``feed.drop``); the
        shard pin is released so a later re-add hashes freshly.
        """
        if not self._started:
            raise ClusterError("start() the cluster before removing graphs")
        with self._lock:
            if name not in self._registrations:
                raise ClusterError(f"no graph named {name!r} is registered")
        # Serialised against shard moves: a move in flight reads the
        # spec and streams the journal; removing them under it would
        # strand the target half-registered.
        with self._move_lock:
            slot = self.shard_map.owner(name)
            client = self.client_for(slot)
            if client is not None:
                # Best-effort: a dead worker simply never re-registers
                # the graph (its registration is gone below).
                client._request("POST", "/admin/graphs/remove",
                                body={"name": name})
            with self._lock:
                self._registrations.pop(name, None)
                self._journal.pop(name, None)
                self._write_gates.pop(name, None)
            self.shard_map.unpin(name)
        return {"graph": name, "worker": slot, "removed": True}

    def add_graph(self, name: str, graph: Optional[Graph] = None,
                  path=None) -> Dict[str, object]:
        """Register a graph on its owning worker.

        Exactly one of ``graph`` (shipped inline as a ``repro-graph``
        payload) or ``path`` (a file the worker process reads itself —
        cheaper for large graphs) is required.  Returns the worker's
        registration answer (the graph's stats payload).
        """
        if not self._started:
            raise ClusterError("start() the cluster before adding graphs")
        if not _NAME_PATTERN.match(name or ""):
            raise InvalidParameterError(
                f"bad graph name {name!r}: use letters, digits, '.', '_' "
                "or '-' (it becomes a URL path segment)")
        if name in self._registrations:
            raise InvalidParameterError(
                f"a graph named {name!r} is already registered")
        if (graph is None) == (path is None):
            raise InvalidParameterError(
                "pass exactly one of graph= or path=")
        spec: Dict[str, object] = {"name": name}
        if path is not None:
            spec["path"] = str(path)
        else:
            spec["graph"] = graph_to_payload(graph)
        slot = self.shard_map.owner(name)
        client = self.client_for(slot)
        if client is None:
            raise ClusterError(
                f"worker {slot} (owner of {name!r}) is down; wait for "
                "the supervisor or call restart_dead_workers()")
        answer = client._request("POST", "/admin/graphs", body=spec)
        with self._lock:
            self._registrations[name] = spec
        return answer

    def graphs(self) -> List[str]:
        """Registered graph names, sorted."""
        with self._lock:
            return sorted(self._registrations)

    # ------------------------------------------------------------------
    # Frontend interface
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self.shard_map.workers

    def owner(self, name: str) -> int:
        """The worker slot serving ``name``."""
        return self.shard_map.owner(name)

    def client_for(self, slot: int) -> Optional[ServerClient]:
        """The pooled client for one worker, or ``None`` when down."""
        with self._lock:
            handle = self._handles[slot]
            if handle is None or not handle.alive:
                return None
            return handle.client

    def live_clients(self) -> List[Tuple[int, Optional[ServerClient]]]:
        """``(slot, client-or-None)`` for every worker slot."""
        return [(slot, self.client_for(slot))
                for slot in range(self.num_workers)]

    def worker_port(self, slot: int) -> Optional[int]:
        """The port a worker currently listens on (``None`` when down)."""
        with self._lock:
            handle = self._handles[slot]
            return handle.port if handle is not None else None

    @property
    def retry_after_seconds(self) -> int:
        """The 503 ``Retry-After`` hint: one supervisor interval up."""
        return max(1, math.ceil(self.restart_interval))

    @property
    def frontend_port(self) -> int:
        if self._frontend is None:
            raise ClusterError("the cluster frontend is not running")
        return self._frontend.server_port

    @property
    def url(self) -> str:
        """The frontend's base URL."""
        return f"http://{self.host}:{self.frontend_port}"

    @property
    def store_root(self) -> Path:
        """Directory holding the per-worker IndexStore roots."""
        return self._store_root

    def supervision_payload(self) -> Dict[str, object]:
        """Recovery observability: per-worker respawn counts, the last
        respawn failure, and (with followers) replication state.
        Surfaced through the frontend's ``/healthz`` and ``/stats``."""
        with self._lock:
            payload: Dict[str, object] = {
                "respawns": list(self._respawn_counts),
                "respawns_total": sum(self._respawn_counts),
                "last_respawn_error": self.last_respawn_error,
            }
            if self.followers:
                payload["followers"] = self.followers
                payload["last_replication_error"] = \
                    self.last_replication_error
                payload["last_restore_note"] = self.last_restore_note
                payload["replication"] = {
                    str(slot): report for slot, report
                    in sorted(self._replication_reports.items())}
            return payload

    def topology_payload(self) -> Dict[str, object]:
        """The ``GET /cluster`` body: who serves what, from where."""
        with self._lock:
            placement: Dict[int, List[str]] = {
                slot: [] for slot in range(self.num_workers)}
            for name in sorted(self._registrations):
                placement[self.shard_map.owner(name)].append(name)
            workers = []
            for slot in range(self.num_workers):
                handle = self._handles[slot]
                workers.append({
                    "slot": slot,
                    "alive": handle is not None and handle.alive,
                    "port": handle.port if handle is not None else None,
                    "pid": handle.process.pid
                    if handle is not None else None,
                    "graphs": placement[slot],
                })
            return {
                "workers": workers,
                "pins": self.shard_map.pins,
                "supervised": self.supervise,
                "restart_interval": self.restart_interval,
                "followers": self.followers,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "started" if self._started else "stopped"
        return (f"ShardedCluster(workers={self.num_workers}, {state}, "
                f"graphs={len(self._registrations)})")
