"""The traced run: a short traced scenario plus the per-layer probes.

Every per-layer number is taken from this side of the program: by
timing a call into a layer's public function, or by reading
``/proc/<pid>`` of a program process.  Functions are looked up at run
time and every metric is measured in its own ``try``: when a later
change removed or re-shaped what a probe calls, that one metric reports
``null`` with the reason and the run goes on.  Each measurement runs
inside a span, so a written trace shows where the traced run's own time
went.

:data:`MOVES` says, per metric, which end-to-end metric it should move
and on which workload — written down before anything was measured; on
every other workload the prediction is *no change*.  Names, units and
direction are declared once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import random
import signal
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServerError
from repro.server import ServerClient

from . import estimators as est
from . import oracle
from .inputs import EdgeModel, Fleet, powerlaw_cluster_edges
from .procs import Harness, all_cpus, cpu_seconds
from .scenario import Scenario
from .serving import Server, sweep
from .tracing import Tracer
from .workloads import SWEEP, Counts, summarise

Values = Dict[str, Optional[float]]

MOVES: Dict[str, str] = {
    "graph.read_edge_list_s": "setup_s on all",
    "truss.bitmap_decompose_s": "setup_s on index-scan",
    "build.serial_s": "setup_s on all (one CPU: the plan is serial)",
    "build.auto_s": "setup_s on index-scan where more than one CPU is allowed",
    "build.pool2_s": "setup_s on index-scan where more than one CPU is allowed",
    "build.repair_forests_ms": "update_ms on churn-restart, index-scan",
    "build.affected_per_batch": "update_ms on churn-restart, index-scan",
    "core.gct_scan_ms": "query_* on index-scan",
    "core.tsd_topr_ms": "query_* on index-scan",
    "core.tsd_search_space_ratio": "query_* on index-scan",
    "core.gct_compress_s": "setup_s on index-scan",
    "core.hybrid_precompute_s":
        "update_ms when a snapshot carries hybrid rankings (no workload does)",
    "core.bound_search_ms": "none gated (the index-free path)",
    "core.contexts_ms": "query_* on index-scan",
    "engine.top_r_miss_ms": "query_* on index-scan",
    "engine.top_r_hit_us": "query_* on index-scan",
    "engine.cache_hit_ratio": "query_* on index-scan",
    "engine.planner_choose_us": "query_* on index-scan",
    "service.snapshot_hit_us": "query_* on serve-hot, serve-cluster",
    "service.snapshot_miss_ms": "query_p90_ms on churn-restart",
    "service.apply_batch_ms": "update_ms on all",
    "service.store_put_ms": "update_ms on churn-restart (growing batches)",
    "service.store_load_ms": "restart_ready_s on all",
    "service.fingerprint_ms": "setup_s, restart_ready_s on all",
    "service.compact_s": "none gated (operator action)",
    "service.compact_reclaimed_bytes": "store_bytes after a compaction",
    "service.invalidated_per_batch": "query_qps, query_p90_ms on churn-restart",
    "service.retained_per_batch": "query_qps, query_p90_ms on churn-restart",
    "storage.write_artifact_ms": "setup_s on all; update_ms on churn-restart",
    "storage.write_delta_ms": "update_ms on all",
    "storage.delta_bytes_per_batch": "store_bytes on all",
    "storage.open_reader_us": "restart_ready_s on index-scan, churn-restart",
    "storage.decode_record_us": "query_* on index-scan; restart_ready_s",
    "storage.cached_record_us": "query_* on serve-hot after a restart",
    "storage.mmap_scan_ms": "query_* on index-scan; restart_ready_s",
    "storage.verify_checksum_ms": "none gated (replication verifies)",
    "storage.bytes_per_edge": "store_bytes on all",
    "server.router_top_r_us": "query_* on serve-hot",
    "server.result_payload_us": "query_* on serve-hot",
    "server.healthz_roundtrip_us": "query_* on serve-hot (the HTTP floor)",
    "server.http_overhead_us": "query_* on serve-hot",
    "server.cpu_ms_per_query": "query_qps on serve-hot",
    "server.client_cpu_ms_per_query": "query_qps on serve-hot, serve-cluster",
    "server.launch_s": "setup_s, restart_ready_s on serve-*",
    "cluster.direct_worker_p50_ms": "query_* on serve-cluster (the worker half)",
    "cluster.proxy_hop_ms": "query_* on serve-cluster only",
    "cluster.frontend_cpu_ms_per_query": "query_qps on serve-cluster",
    "cluster.worker_cpu_ms_per_query": "query_qps on serve-cluster",
    "cluster.healthz_roundtrip_us": "query_* on serve-cluster",
    "cluster.spawn_s": "setup_s, restart_ready_s on serve-cluster",
    "cluster.add_graph_s": "setup_s on serve-cluster",
    "cluster.respawn_ready_s": "none gated (failover)",
    "cluster.retry_503_count": "none gated (failover)",
    "replication.bootstrap_ms": "none gated (off the request path)",
    "replication.bootstrap_bytes": "none gated",
    "replication.delta_ms": "none gated",
    "replication.delta_bytes": "none gated",
    "replication.delta_share": "none gated",
    "replication.verify_ms": "none gated",
    "trace.overhead_pct": "-",
    "host.calib_ms": "-",
    "raw.query_p50_ms": "-",
    "raw.query_p99_ms": "-",
    "raw.query_p999_ms": "-",
    "raw.stall_share": "-",
}

#: Share of ``--seconds`` the traced scenario's one epoch may use.
_TRACED_SHARE = 0.5
_PROBE_GRAPH_N = 2000     # bound_search is index-free and slow: a fixed small graph
_WIRE_REQUESTS = 1500     # per wire block: /proc CPU time ticks in 10 ms
_PROBE_BATCHES = 6


class ProbeGone(Exception):
    """What a probe needs no longer exists."""


def resolve(module: str, attribute: str):
    """``module.attribute`` (dotted attributes allowed), or ProbeGone."""
    try:
        target = importlib.import_module(module)
        for part in attribute.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise ProbeGone(f"{module}.{attribute} is gone: {exc}") from None
    return target


def best(fn: Callable[[], object], repeats: int = 3) -> float:
    """Fastest of ``repeats`` timed calls, in seconds."""
    clock = time.perf_counter
    times = []
    for _ in range(repeats):
        start = clock()
        fn()
        times.append(clock() - start)
    return min(times)


def per_call(fn: Callable[[], object], calls: int, repeats: int = 3) -> float:
    """Seconds per call of a cheap function: fastest of ``repeats`` loops."""
    def loop():
        for _ in range(calls):
            fn()
    return best(loop, repeats) / calls


def calibrate() -> float:
    """A fixed spin loop, in ms: how fast the host is right now.

    A diagnostic only.  Dividing metrics by it was tried and made them
    noisier, so nothing is normalised by this number.
    """
    def spin():
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return total
    return 1e3 * best(spin, 5)


def build_indexes(graph, jobs: int):
    """``repro.build.build_indexes``; the serial build survives the
    planned removal of its ``jobs=`` knob, the pool builds do not."""
    build = resolve("repro.build", "build_indexes")
    if "jobs" in inspect.signature(build).parameters:
        return build(graph, jobs=jobs)
    if jobs == 1:
        return build(graph)
    raise ProbeGone("build_indexes no longer takes jobs=")


class Recorder:
    """Per-layer values; a measurement that fails is ``null`` + reason."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.values: Values = {}
        self.reasons: Dict[str, str] = {}

    def many(self, names: Sequence[str], fn: Callable[[], Values]) -> None:
        """Metrics that one call (chain) into the program yields together."""
        with self.tracer.span(f"probe.{names[0]}"):
            try:
                measured = fn()
            except Exception as exc:  # repro-lint: disable=RL003 -- whatever a later change broke in this probe is reported as null + reason; the run goes on
                for name in names:
                    self.values[name] = None
                    self.reasons[name] = f"{type(exc).__name__}: {exc}"
                return
        for name in names:
            self.values[name] = measured[name]

    def one(self, name: str, fn: Callable[[], Optional[float]]) -> None:
        self.many([name], lambda: {name: fn()})


# ----------------------------------------------------------------------
# Library probes: one graph, this process
# ----------------------------------------------------------------------
class Library:
    """Shared state of the in-process probes: graph 0 and its indexes."""

    def __init__(self, scenario: Scenario, work: Path) -> None:
        self.work = work
        self.n = scenario.n
        fleet = Fleet(scenario.seed, 1, scenario.n)
        self.name = fleet.names[0]
        self.edges = fleet.initial[self.name]
        self.graph = oracle.build_graph(self.n, self.edges)
        self.batches = [updates for _, updates in fleet.update_batches(
            [self.name] * _PROBE_BATCHES)]
        self.ks = [k for k, _ in SWEEP]
        self._indexes = None
        #: the batches applied in memory: (snapshot after, report, seconds)
        self._applied: Optional[List[Tuple[object, object, float]]] = None
        self._store = None

    def indexes(self):
        if self._indexes is None:
            self._indexes = build_indexes(self.graph, 1)
        return self._indexes

    def snapshot(self):
        tsd, gct = self.indexes()
        return resolve("repro", "Snapshot")(self.graph, tsd=tsd, gct=gct)

    def applied(self) -> List[Tuple[object, object, float]]:
        """The plan applied in memory, each ``apply_batch`` timed; readers
        refill what each batch invalidated, as a server's would."""
        if self._applied is None:
            apply_batch = resolve("repro.service.updates", "apply_batch")
            current = self.snapshot()
            applied = []
            for batch in self.batches:
                for k in self.ks:
                    current.top_r(k, 10, collect_contexts=False)
                start = time.perf_counter()
                current, report = apply_batch(current, batch)
                applied.append((current, report, time.perf_counter() - start))
            self._applied = applied
        return self._applied

    def store(self):
        """A store holding the initial version and one per batch."""
        if self._store is None:
            tsd, gct = self.indexes()
            store = open_store(self.work / "library-store")
            version = store.put(self.graph, tsd=tsd, gct=gct)
            for snapshot, report, _ in self.applied():
                version = store.put(
                    snapshot.graph_view, tsd=snapshot.tsd, gct=snapshot.gct,
                    previous=version,
                    changed_vertices=report.affected_vertices)
            self._store = store
        return self._store


def open_store(root: Path):
    """The store with the binary codec, while that is still a choice."""
    store_class = resolve("repro", "IndexStore")
    if "codec" in inspect.signature(store_class).parameters:
        return store_class(root, codec="bin")
    return store_class(root)


def library_probes(rec: Recorder, lib: Library) -> None:
    ks = lib.ks

    def read_edge_list_s():
        read_edge_list = resolve("repro.graph", "read_edge_list")
        path = lib.work / "graph0.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in lib.edges),
                        encoding="utf-8")
        return best(lambda: read_edge_list(path))
    rec.one("graph.read_edge_list_s", read_edge_list_s)

    def decompose_s():
        decompose = resolve("repro.truss.bitmap_decomposition",
                            "bitmap_truss_decomposition_graph")
        return best(lambda: decompose(lib.graph), 2)
    rec.one("truss.bitmap_decompose_s", decompose_s)

    def build_s(jobs: int, wide: bool):
        start = time.perf_counter()
        if wide:  # the pool needs the CPUs the run is pinned away from
            with all_cpus():
                build_indexes(lib.graph, jobs)
        else:
            build_indexes(lib.graph, jobs)
        return time.perf_counter() - start
    rec.one("build.serial_s", lambda: build_s(1, False))
    rec.one("build.auto_s", lambda: build_s(0, True))
    rec.one("build.pool2_s", lambda: build_s(2, True))

    # core
    def gct():
        return lib.indexes()[1]

    def tsd():
        return lib.indexes()[0]
    rec.one("core.gct_scan_ms", lambda: 1e3 * best(
        lambda: [gct().top_r(k, 10, collect_contexts=False) for k in ks]) / len(ks))
    rec.one("core.tsd_topr_ms", lambda: 1e3 * best(
        lambda: [tsd().top_r(k, 10, collect_contexts=False) for k in ks]) / len(ks))
    rec.one("core.tsd_search_space_ratio", lambda: sum(
        tsd().top_r(k, 10, collect_contexts=False).search_space
        for k in ks) / (len(ks) * lib.n))
    rec.one("core.gct_compress_s", lambda: best(
        lambda: resolve("repro", "GCTIndex").compress(tsd()), 2))
    rec.one("core.hybrid_precompute_s", lambda: best(
        lambda: resolve("repro", "HybridSearcher").precompute(
            lib.graph, index=tsd()), 2))

    def contexts_ms():
        top = gct().top_r(3, 10, collect_contexts=False).vertices
        return 1e3 * best(lambda: [gct().contexts(v, 3) for v in top])
    rec.one("core.contexts_ms", contexts_ms)

    def bound_search_ms():
        bound_search = resolve("repro", "bound_search")
        small = oracle.build_graph(
            _PROBE_GRAPH_N, powerlaw_cluster_edges(_PROBE_GRAPH_N, seed=7))
        return 1e3 * best(
            lambda: bound_search(small, 4, 10, collect_contexts=False), 1)
    rec.one("core.bound_search_ms", bound_search_ms)

    # engine
    def scan_engine():
        engine = resolve("repro", "QueryEngine")(
            lib.graph, resolve("repro", "EngineConfig")(score_cache_size=1))
        engine.top_r(3, 10, method="gct", collect_contexts=False)  # builds the index
        return engine

    def top_r_miss_ms():
        engine = scan_engine()
        return 1e3 * best(
            lambda: [engine.top_r(k, 10, method="gct", collect_contexts=False)
                     for k in ks]) / len(ks)
    rec.one("engine.top_r_miss_ms", top_r_miss_ms)

    def top_r_hit_us():
        engine = scan_engine()
        engine.top_r(4, 10, method="gct", collect_contexts=False)
        return 1e6 * per_call(lambda: engine.top_r(
            4, 10, method="gct", collect_contexts=False), 200)
    rec.one("engine.top_r_hit_us", top_r_hit_us)

    def cache_hit_ratio():
        # A fixed pattern, so the ratio repeats exactly: 4 thresholds,
        # each asked three times in a row, through a one-entry memo.
        engine = scan_engine()
        for k in ks:
            for _ in range(3):
                engine.top_r(k, 10, method="gct", collect_contexts=False)
        stats = engine.stats()
        return stats.cache_hits / (stats.cache_hits + stats.cache_misses)
    rec.one("engine.cache_hit_ratio", cache_hit_ratio)

    def planner_choose_us():
        chooser = resolve("repro.engine.planner", "QueryPlanner")(
            resolve("repro", "EngineConfig")())
        return 1e6 * per_call(lambda: chooser.choose(
            num_edges=lib.graph.num_edges, queries_seen=5), 2000)
    rec.one("engine.planner_choose_us", planner_choose_us)

    # service
    def snapshot_miss_ms():
        def misses():
            fresh = lib.snapshot()
            start = time.perf_counter()
            for k in ks:
                fresh.top_r(k, 10, collect_contexts=False)
            return (time.perf_counter() - start) / len(ks)
        return 1e3 * min(misses() for _ in range(3))
    rec.one("service.snapshot_miss_ms", snapshot_miss_ms)

    def snapshot_hit_us():
        snapshot = lib.snapshot()
        snapshot.top_r(4, 10, collect_contexts=False)
        return 1e6 * per_call(
            lambda: snapshot.top_r(4, 10, collect_contexts=False), 500)
    rec.one("service.snapshot_hit_us", snapshot_hit_us)
    rec.one("service.fingerprint_ms", lambda: 1e3 * best(
        lambda: resolve("repro.service.store", "graph_fingerprint")(lib.graph)))

    def apply_batches():
        applied = lib.applied()
        reports = [report for _, report, _ in applied]
        count = len(applied)
        return {
            "service.apply_batch_ms":
                1e3 * sum(seconds for _, _, seconds in applied) / count,
            "build.affected_per_batch":
                sum(len(r.affected_vertices) for r in reports) / count,
            "service.invalidated_per_batch":
                sum(len(r.invalidated_thresholds) for r in reports) / count,
            "service.retained_per_batch":
                sum(len(r.retained_thresholds) for r in reports) / count,
        }
    rec.many(["service.apply_batch_ms", "build.affected_per_batch",
              "service.invalidated_per_batch", "service.retained_per_batch"],
             apply_batches)

    def repair_forests_ms():
        repair_forests = resolve("repro.build", "repair_forests")
        seconds = 0.0
        for snapshot, report, _ in lib.applied():
            graph = snapshot.graph_view
            start = time.perf_counter()
            repair_forests(graph, list(report.affected_vertices))
            seconds += time.perf_counter() - start
        return 1e3 * seconds / len(lib.batches)
    rec.one("build.repair_forests_ms", repair_forests_ms)

    def store_put_ms():
        tsd_index, gct_index = lib.indexes()
        store = open_store(lib.work / "put-store")
        start = time.perf_counter()
        store.put(lib.graph, tsd=tsd_index, gct=gct_index)
        return 1e3 * (time.perf_counter() - start)
    rec.one("service.store_put_ms", store_put_ms)
    rec.one("service.store_load_ms", lambda: 1e3 * best(
        lambda: lib.store().load(lib.applied()[-1][0].graph_view)))

    storage_probes(rec, lib)
    replication_probes(rec, lib)

    def compact():
        # After every other reader of the library's store: it deletes
        # the versions they read.
        store = lib.store()
        start = time.perf_counter()
        report = store.compact()
        return {"service.compact_s": time.perf_counter() - start,
                "service.compact_reclaimed_bytes": float(report.reclaimed_bytes)}
    rec.many(["service.compact_s", "service.compact_reclaimed_bytes"], compact)

    # server, the in-process half: router dispatch and encoding
    def router():
        made = resolve("repro.server", "DiversityRouter")()
        made.add_graph("g", lib.graph)
        made.top_r("g", 4, 10, collect_contexts=False)
        return made

    def router_top_r_us():
        made = router()
        return 1e6 * per_call(
            lambda: made.top_r("g", 4, 10, collect_contexts=False), 500)
    rec.one("server.router_top_r_us", router_top_r_us)

    def result_payload_us():
        result_payload = resolve("repro.server", "result_payload")
        result = router().top_r("g", 4, 10, collect_contexts=False)
        return 1e6 * per_call(lambda: json.dumps(result_payload(result)), 500)
    rec.one("server.result_payload_us", result_payload_us)


def storage_probes(rec: Recorder, lib: Library) -> None:
    directory = lib.work / "storage"
    directory.mkdir()
    base = directory / "gct.bin"
    ks = lib.ks

    def written() -> Path:
        """The GCT artifact every reader probe opens."""
        if not base.exists():
            resolve("repro.storage", "write_artifact")(
                base, lib.indexes()[1].to_payload())
        return base

    def write_artifact_ms():
        write_artifact = resolve("repro.storage", "write_artifact")
        payload = lib.indexes()[1].to_payload()
        return 1e3 * best(lambda: write_artifact(base, payload))
    rec.one("storage.write_artifact_ms", write_artifact_ms)

    def bytes_per_edge():
        tsd_path = directory / "tsd.bin"
        resolve("repro.storage", "write_artifact")(
            tsd_path, lib.indexes()[0].to_payload())
        return (written().stat().st_size
                + tsd_path.stat().st_size) / len(lib.edges)
    rec.one("storage.bytes_per_edge", bytes_per_edge)

    def delta():
        write_delta = resolve("repro.storage", "write_delta")
        snapshot, report, _ = lib.applied()[0]
        patched = snapshot.gct.to_payload(include_profile=False)
        delta_path = directory / "gct-delta.bin"
        times = []
        for _ in range(3):
            start = time.perf_counter()
            wrote = write_delta(written(), delta_path, patched,
                                report.affected_vertices)
            times.append(time.perf_counter() - start)
            if not wrote:
                raise ProbeGone("write_delta refused a same-vertex-set batch")
        return {"storage.write_delta_ms": 1e3 * min(times),
                "storage.delta_bytes_per_batch": float(
                    delta_path.stat().st_size - base.stat().st_size)}
    rec.many(["storage.write_delta_ms", "storage.delta_bytes_per_batch"], delta)

    def reader_class():
        return resolve("repro.storage", "ArtifactReader")
    rec.one("storage.open_reader_us", lambda: 1e6 * per_call(
        lambda: reader_class()(written()).close(), 50))

    def with_reader(fn):
        reader = reader_class()(written())
        try:
            return fn(reader)
        finally:
            reader.close()

    def decode_record_us(reader):
        positions = list(range(min(lib.n, 1000)))
        start = time.perf_counter()
        for pos in positions:
            reader.supernodes(pos)
        return 1e6 * (time.perf_counter() - start) / len(positions)
    rec.one("storage.decode_record_us", lambda: with_reader(decode_record_us))
    rec.one("storage.cached_record_us", lambda: with_reader(
        lambda reader: 1e6 * per_call(lambda: reader.supernodes(5), 2000)))
    rec.one("storage.verify_checksum_ms", lambda: with_reader(
        lambda reader: 1e3 * best(reader.verify_checksum)))

    def mmap_scan_ms():
        lazy = resolve("repro.storage", "open_gct_artifact")(written())
        return 1e3 * best(lambda: [
            lazy.top_r(k, 10, collect_contexts=False) for k in ks]) / len(ks)
    rec.one("storage.mmap_scan_ms", mmap_scan_ms)


def replication_probes(rec: Recorder, lib: Library) -> None:
    """Follower sync of the library's store: full, then one more batch."""
    follower = lib.work / "follower"

    def bootstrap():
        replicate = resolve("repro.replication", "replicate_store")
        root = lib.store().root
        start = time.perf_counter()
        full = replicate(root, follower)
        return {"replication.bootstrap_ms": 1e3 * (time.perf_counter() - start),
                "replication.bootstrap_bytes": float(full.bytes_shipped)}
    rec.many(["replication.bootstrap_ms", "replication.bootstrap_bytes"],
             bootstrap)

    def delta():
        replicate = resolve("repro.replication", "replicate_store")
        apply_batch = resolve("repro.service.updates", "apply_batch")
        store = lib.store()
        if not follower.exists():
            replicate(store.root, follower)
        last = lib.applied()[-1][0]
        graph = last.graph_view
        model = EdgeModel(lib.n, [(min(u, v), max(u, v))
                                  for u, v in graph.edges()])
        batch = model.batch(random.Random(f"replication/{lib.n}"), 4, 4)
        following, report = apply_batch(last, batch)
        store.put(following.graph_view, tsd=following.tsd, gct=following.gct,
                  previous=store.current(graph),
                  changed_vertices=report.affected_vertices)
        start = time.perf_counter()
        shipped = replicate(store.root, follower)
        seconds = time.perf_counter() - start
        mirror = replicate(store.root, lib.work / "mirror")
        return {"replication.delta_ms": 1e3 * seconds,
                "replication.delta_bytes": float(shipped.bytes_shipped),
                "replication.delta_share":
                    shipped.bytes_shipped / mirror.bytes_shipped}
    rec.many(["replication.delta_ms", "replication.delta_bytes",
              "replication.delta_share"], delta)

    def verify_ms():
        verify = resolve("repro.replication", "verify_artifact")
        artifact = max(Path(lib.store().root).rglob("gct.bin"),
                       key=lambda p: p.stat().st_size)
        return 1e3 * best(lambda: verify(artifact))
    rec.one("replication.verify_ms", verify_ms)


# ----------------------------------------------------------------------
# Wire probes: a launched server and a launched cluster
# ----------------------------------------------------------------------
def _hot_plan(scenario: Scenario) -> List[Tuple[str, int, int]]:
    return [(name, k, r) for name in scenario.names for k, r in SWEEP]


def _timed_block(client, plan: Sequence[Tuple[str, int, int]], requests: int,
                 tracer: Tracer, span_name: str) -> List[float]:
    clock = time.perf_counter
    latencies = []
    with tracer.span(span_name):
        for index in range(requests):
            name, k, r = plan[index % len(plan)]
            start = clock()
            client.top_r(name, k, r)
            latencies.append(clock() - start)
    return latencies


def _own_cpu() -> float:
    times = os.times()
    return times.user + times.system


def server_wire_probes(rec: Recorder, harness: Harness, scenario: Scenario,
                       codec_bin: bool, counts: Counts) -> None:
    names = ["server.launch_s", "server.healthz_roundtrip_us",
             "server.http_overhead_us", "server.cpu_ms_per_query",
             "server.client_cpu_ms_per_query"]

    def probe():
        work = harness.work_dir("probe-server")
        store = work / "store"
        server = Server(harness, scenario.initial_paths, store, 0, codec_bin,
                        work / "serve.log")
        server.close(harness)  # the store is warm now: time a pure launch
        start = time.perf_counter()
        server = Server(harness, scenario.initial_paths, store, 0, codec_bin,
                        work / "serve.log")
        launch_s = time.perf_counter() - start
        try:
            sweep(server.client, scenario.names, SWEEP,
                  scenario.expected_initial, counts)
            healthz = per_call(server.client.healthz, 200)
            pid = server.program.process.pid
            cpu_before, own_before = cpu_seconds(pid), _own_cpu()
            latencies = _timed_block(server.client, _hot_plan(scenario),
                                     _WIRE_REQUESTS, rec.tracer,
                                     "probe.server.top_r")
            cpu, own = cpu_seconds(pid) - cpu_before, _own_cpu() - own_before
        finally:
            server.close(harness)
        router_us = rec.values.get("server.router_top_r_us")
        return {
            "server.launch_s": launch_s,
            "server.healthz_roundtrip_us": 1e6 * healthz,
            "server.http_overhead_us": None if router_us is None else
                1e6 * est.percentile(latencies, 50) - router_us,
            "server.cpu_ms_per_query": 1e3 * cpu / len(latencies),
            "server.client_cpu_ms_per_query": 1e3 * own / len(latencies),
        }
    rec.many(names, probe)
    if (rec.values.get("server.http_overhead_us") is None
            and "server.http_overhead_us" not in rec.reasons):
        rec.reasons["server.http_overhead_us"] = (
            "server.router_top_r_us was not measured")


def cluster_wire_probes(rec: Recorder, harness: Harness, scenario: Scenario,
                        codec_bin: bool, counts: Counts) -> None:
    names = ["cluster.spawn_s", "cluster.add_graph_s",
             "cluster.healthz_roundtrip_us", "cluster.direct_worker_p50_ms",
             "cluster.proxy_hop_ms", "cluster.frontend_cpu_ms_per_query",
             "cluster.worker_cpu_ms_per_query", "cluster.respawn_ready_s",
             "cluster.retry_503_count"]

    def probe():
        work = harness.work_dir("probe-cluster")
        store = work / "store"
        start = time.perf_counter()
        server = Server(harness, scenario.initial_paths, store, 2, codec_bin,
                        work / "serve.log")
        cold_s = time.perf_counter() - start
        server.close(harness)
        start = time.perf_counter()
        server = Server(harness, scenario.initial_paths, store, 2, codec_bin,
                        work / "serve.log")
        warm_s = time.perf_counter() - start
        workers: List[ServerClient] = []
        try:
            sweep(server.client, scenario.names, SWEEP,
                  scenario.expected_initial, counts)
            status, body = server.client.request_raw("GET", "/cluster")
            if status != 200:
                raise ProbeGone(f"GET /cluster answered {status}")
            topology = json.loads(body)["workers"]
            owner = {name: slot["port"] for slot in topology
                     for name in slot["graphs"]}
            direct = {port: ServerClient(f"http://127.0.0.1:{port}")
                      for port in sorted(set(owner.values()))}
            workers = list(direct.values())
            pids = ([server.program.process.pid]
                    + [slot["pid"] for slot in topology])
            plan = _hot_plan(scenario)
            healthz = per_call(server.client.healthz, 200)

            before = [cpu_seconds(pid) for pid in pids]
            via_frontend = _timed_block(server.client, plan, _WIRE_REQUESTS,
                                        rec.tracer, "probe.cluster.frontend")
            after = [cpu_seconds(pid) for pid in pids]
            clock = time.perf_counter
            to_worker = []
            with rec.tracer.span("probe.cluster.direct"):
                for index in range(_WIRE_REQUESTS):
                    name, k, r = plan[index % len(plan)]
                    start = clock()
                    direct[owner[name]].top_r(name, k, r)
                    to_worker.append(clock() - start)

            # Failover: kill one worker, count refusals until its graphs answer.
            victim = topology[0]
            refusals = 0
            respawn_s = None
            if victim["graphs"]:
                os.kill(victim["pid"], signal.SIGKILL)
                start = clock()
                while clock() < start + 30.0:
                    try:
                        server.client.top_r(victim["graphs"][0], 3, 10)
                    except ServerError:
                        refusals += 1
                        time.sleep(0.01)
                        continue
                    respawn_s = clock() - start
                    break
        finally:
            for client in workers:
                client.close()
            server.close(harness)
        front_p50 = est.percentile(via_frontend, 50)
        direct_p50 = est.percentile(to_worker, 50)
        return {
            "cluster.spawn_s": warm_s,
            "cluster.add_graph_s": (cold_s - warm_s) / len(scenario.names),
            "cluster.healthz_roundtrip_us": 1e6 * healthz,
            "cluster.direct_worker_p50_ms": 1e3 * direct_p50,
            "cluster.proxy_hop_ms": 1e3 * (front_p50 - direct_p50),
            "cluster.frontend_cpu_ms_per_query":
                1e3 * (after[0] - before[0]) / _WIRE_REQUESTS,
            "cluster.worker_cpu_ms_per_query":
                1e3 * (sum(after[1:]) - sum(before[1:])) / _WIRE_REQUESTS,
            "cluster.respawn_ready_s": respawn_s,
            "cluster.retry_503_count": float(refusals),
        }
    rec.many(names, probe)


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_run(harness: Harness, scenario: Scenario, seconds: float,
               codec_bin: bool, run_epoch, trace_out: Optional[Path],
               ) -> Tuple[Values, Counts, Dict[str, str]]:
    """``run_epoch`` is the driver's: one epoch of the workload's scenario."""
    tracer = Tracer()
    rec = Recorder(tracer)

    flags: List[List[bool]] = []
    with tracer.span("scenario"):
        epoch = run_epoch(harness, scenario, seconds * _TRACED_SHARE, codec_bin,
                          tracer, flags)
    counts = epoch.counts
    _, raw = summarise(scenario.workload, [epoch], len(scenario.cycle))
    rec.values.update(raw)
    latencies = (epoch.plan_reads if scenario.workload.shape == "churn"
                 else epoch.stream)
    traced = [flag for stream in flags for flag in stream]
    on = [x for x, flag in zip(latencies, traced) if flag]
    off = [x for x, flag in zip(latencies, traced) if not flag]
    rec.values["trace.overhead_pct"] = 100.0 * (
        est.percentile(on, 50) / est.percentile(off, 50) - 1.0)
    rec.values["host.calib_ms"] = calibrate()

    library_probes(rec, Library(scenario, harness.work_dir("probe-library")))
    server_wire_probes(rec, harness, scenario, codec_bin, counts)
    cluster_wire_probes(rec, harness, scenario, codec_bin, counts)

    values = {name: rec.values.get(name) for name in MOVES}
    notes = {name: rec.reasons.get(name, "not measured on this run")
             for name, value in values.items() if value is None}
    if trace_out is not None:
        tracer.write(trace_out, {
            "workload": scenario.workload.name, "seed": scenario.seed,
            "per_layer": values, "null_reasons": notes})
    return values, counts, notes
