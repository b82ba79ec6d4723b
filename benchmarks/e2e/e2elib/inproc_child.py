"""The in-process workload's child: the public Python API, timed in place.

Run as a script by :mod:`.inproc` (never imported by it), so the
process's peak RSS is the program's own and a ``SIGKILL`` of it is a
crash of the program.  Depends only on ``Graph``, ``DiversityService``,
``IndexStore``, ``QueryEngine`` and ``EngineConfig``.  Protocol: one
``ready <json>`` line when the program answers, for ``serve`` one
``done <json>`` line after the phases, then the child parks until the
parent has read ``/proc`` and killed it.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time


def load_graph(path):
    from repro import Graph
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    vertices = payload["vertices"]
    return Graph(vertices=vertices,
                 edges=[(vertices[u], vertices[v]) for u, v in payload["edges"]])


def open_store(root):
    """The store with the binary codec, while that is still a choice."""
    from repro import IndexStore
    if "codec" in inspect.signature(IndexStore).parameters:
        return IndexStore(root, codec="bin")
    return IndexStore(root)


def scan_engine(graph, store):
    """An engine whose every query is a full scan of the stored index:
    four live thresholds always miss a one-entry memo."""
    from repro import EngineConfig, QueryEngine
    return QueryEngine(graph, EngineConfig(score_cache_size=1), warm_start=store)


def same(result, expected) -> bool:
    return (list(result.vertices) == expected[0]
            and list(result.scores) == expected[1])


def emit(tag: str, payload) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def serve(plan) -> None:
    from repro import DiversityService
    clock = time.perf_counter
    counts = {"attempted": 0, "failed": 0, "mismatched": 0}
    graph = load_graph(plan["graph"])
    store = open_store(plan["store"])
    service = DiversityService.start(graph, store)
    # Queries go through the scan engine, never the service: a memoised
    # threshold in the service would be persisted with every batch it
    # survives, and how many it survives depends on the topology.
    engine = scan_engine(graph, store)
    first = plan["first"]
    counts["attempted"] += 1
    if not same(engine.top_r(first["k"], first["r"], method="gct"),
                first["expected"]):
        counts["mismatched"] += 1
    emit("ready", {"warm_started": service.warm_started})

    cycle = [(k, r, expected) for k, r, expected in plan["cycle"]]
    latencies, spans = [], []
    block, trace = plan["block"], plan["trace"]
    phase_start = clock()
    deadline = phase_start + plan["seconds"]
    while clock() < deadline:  # whole blocks only: a block is worth seconds here
        tracing = trace and (len(latencies) // block) % 2 == 1
        for _ in range(block // len(cycle)):
            for k, r, expected in cycle:
                start = clock()
                result = engine.top_r(k, r, method="gct")
                end = clock()
                if tracing:
                    spans.append((start, end))
                latencies.append(end - start)
                counts["attempted"] += 1
                if not same(result, expected):
                    counts["mismatched"] += 1
    phase_end = clock()

    updates, update_spans = [], []
    version = None
    for batch in plan["batches"]:
        counts["attempted"] += 1
        start = clock()
        report = service.apply_updates([tuple(update) for update in batch])
        end = clock()
        updates.append(end - start)
        update_spans.append((start, end))
        if report.num_updates != len(batch):
            counts["mismatched"] += 1
        version = service.snapshot.version
    emit("done", {"counts": counts, "latencies": latencies, "updates": updates,
                  "version": version, "query_phase": [phase_start, phase_end],
                  "spans": spans, "update_spans": update_spans})


def restart(plan) -> None:
    from repro import DiversityService
    counts = {"attempted": 0, "failed": 0, "mismatched": 0}
    graph = load_graph(plan["graph"])
    store = open_store(plan["store"])
    # warm() refuses a graph the store does not know: a lost update
    # surfaces here instead of being rebuilt behind our back.
    service = DiversityService.warm(graph, store)
    engine = scan_engine(graph, store)
    for k, r, expected in plan["sweep"]:
        counts["attempted"] += 1
        if not same(engine.top_r(k, r, method="gct"), expected):
            counts["mismatched"] += 1
    emit("ready", {"counts": counts, "warm_started": service.warm_started,
                   "version": service.snapshot.version})


def main() -> None:
    role, plan_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    {"serve": serve, "restart": restart}[role](plan)
    threading.Event().wait()  # park: the parent reads /proc, then kills


if __name__ == "__main__":
    main()
