"""The in-process workload, parent side: plans in, timings out.

The child (:mod:`.inproc_child`) is the program here: it is launched,
timed from outside for set-up and restart exactly like a server (spawn
→ first correct answer), times its own query and update calls (the
caller is in that process), and is killed with ``SIGKILL`` after the
parent has read its peak RSS.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import List, Optional

from .procs import Harness, Program, tree_bytes
from .scenario import Scenario
from .tracing import Tracer
from .workloads import RESTARTS_PER_EPOCH, SWEEP, Counts, Epoch

_CHILD = Path(__file__).with_name("inproc_child.py")

#: The phases after ``ready`` may take this long beyond the query phase.
_PHASE_SLACK_S = 60.0


def _child(harness: Harness, role: str, plan: dict, work: Path) -> Program:
    plan_path = work / f"{role}-plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    return harness.python([str(_CHILD), role, str(plan_path)],
                          work / f"{role}.log")


def _payload(line: str) -> dict:
    return json.loads(line.split(" ", 1)[1])


def _absorb(counts: Counts, child_counts: dict) -> None:
    counts.attempted += child_counts["attempted"]
    counts.failed += child_counts["failed"]
    counts.mismatched += child_counts["mismatched"]


def run_epoch(harness: Harness, scenario: Scenario, seconds: float,
              tracer: Optional[Tracer] = None,
              traced_flags: Optional[List[List[bool]]] = None) -> Epoch:
    workload = scenario.workload
    name = scenario.names[0]
    work = harness.work_dir(workload.name)
    store = work / "store"
    epoch = Epoch()
    clock = time.perf_counter
    initial = scenario.expected_initial[name]
    block = workload.cycles_per_block * len(scenario.cycle)
    first_k, first_r = SWEEP[0]

    start = clock()
    child = _child(harness, "serve", {
        "graph": str(scenario.initial_paths[name]), "store": str(store),
        "first": {"k": first_k, "r": first_r,
                  "expected": initial[(first_k, first_r)]},
        "cycle": [[k, r, initial[(k, r)]] for _, k, r in scenario.cycle],
        "seconds": seconds * workload.query_share, "block": block,
        "trace": tracer is not None,
        "batches": [updates for _, updates in scenario.batches],
    }, work)
    child.wait_for_line("ready ")
    epoch.setup_s = clock() - start
    if tracer is not None:
        tracer.add("phase.setup", start, clock())
    done = _payload(child.wait_for_line(
        "done ", limit=seconds * workload.query_share + _PHASE_SLACK_S))
    _absorb(epoch.counts, done["counts"])
    epoch.stream = done["latencies"]
    epoch.updates = done["updates"]
    epoch.store_bytes = tree_bytes(store)
    epoch.peak_rss_mb = child.peak_rss_mb()
    if tracer is not None:
        _record_child_spans(tracer, done)
        if traced_flags is not None:
            traced_flags.append([(i // block) % 2 == 1
                                 for i in range(len(done["latencies"]))])

    restarts = []
    for _ in range(RESTARTS_PER_EPOCH):
        start = clock()
        harness.stop(child)  # SIGKILL
        child = _child(harness, "restart", {
            "graph": str(scenario.updated_paths[name]), "store": str(store),
            "sweep": [[k, r, scenario.expected_final[name][(k, r)]]
                      for k, r in SWEEP],
        }, work)
        ready = _payload(child.wait_for_line("ready "))
        restarts.append(clock() - start)
        if tracer is not None:
            tracer.add("phase.restart", start, clock())
        _absorb(epoch.counts, ready["counts"])
        epoch.counts.attempted += 1  # the durability check
        if not ready["warm_started"] or ready["version"] != done["version"]:
            epoch.counts.mismatched += 1
        epoch.peak_rss_mb = max(epoch.peak_rss_mb, child.peak_rss_mb())
    epoch.restart_ready_s = min(restarts)
    harness.stop(child)
    return epoch


def _record_child_spans(tracer: Tracer, done: dict) -> None:
    """The child's clock is this process's clock (``CLOCK_MONOTONIC``)."""
    phase = tracer.add("phase.query", *done["query_phase"])
    for index, (start, end) in enumerate(done["spans"]):
        tracer.add("engine.top_r", start, end, phase, f"q{index}")
    for index, (start, end) in enumerate(done["update_spans"]):
        tracer.add("service.apply_updates", start, end, request=f"u{index}")

