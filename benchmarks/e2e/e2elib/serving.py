"""The served workloads: ``repro.cli serve`` driven over loopback HTTP.

The program is launched unmodified with its shipped defaults except
paths, ``--http 0``, ``--store``, ``--quiet`` (an access log line per
request would be measured too), ``--workers`` and the binary codec.
Load comes from this one process on one closed-loop keep-alive
connection: the next request is sent when the previous answer came.
"""

from __future__ import annotations

import re
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import ServerError
from repro.server import ServerClient

from . import oracle
from .procs import Harness, HarnessError, Program, tree_bytes
from .scenario import Scenario
from .tracing import Tracer
from .workloads import RESTARTS_PER_EPOCH, SWEEP, Counts, Epoch

_URL = re.compile(r"https?://[\w.\-]+:\d+")
_REFUSALS = (429, 503)
_REQUEST_TIMEOUT_S = 15.0


class Server:
    """One launch of ``repro.cli serve`` and a client connected to it."""

    def __init__(self, harness: Harness, paths: Dict[str, Path], store: Path,
                 workers: int, codec_bin: bool, log: Path) -> None:
        argv = ["-m", "repro.cli", "serve", "--http", "0",
                "--store", str(store), "--quiet"]
        if codec_bin:
            argv += ["--codec", "bin"]
        if workers:
            argv += ["--workers", str(workers)]
        for name, path in paths.items():
            argv += ["--graph", f"{name}={path}"]
        self.program: Program = harness.python(argv, log)
        line = self.program.wait_for_line("serving ")
        match = _URL.search(line)
        if match is None:
            raise HarnessError(f"no URL in {line!r}")
        self.url = match.group(0)
        self.client = ServerClient(self.url, timeout=_REQUEST_TIMEOUT_S)

    def close(self, harness: Harness) -> None:
        self.client.close()
        harness.stop(self.program)


def _block(tracer: Optional[Tracer], name: str):
    """A traced block, or nothing when the run is not traced."""
    return tracer.span(name) if tracer is not None else nullcontext()


def ask(client, name: str, k: int, r: int, expected: oracle.Answer,
        counts: Counts) -> None:
    """One verified top-r; the outcome lands in ``counts``."""
    counts.attempted += 1
    try:
        answer = client.top_r(name, k, r)
    except ServerError as exc:
        if exc.status in _REFUSALS:
            counts.refused += 1
        else:
            counts.failed += 1
        return
    if not oracle.matches(expected, answer.get("vertices"), answer.get("scores")):
        counts.mismatched += 1


def sweep(client, names: Sequence[str], queries, expected, counts: Counts) -> None:
    for name in names:
        for k, r in queries:
            ask(client, name, k, r, expected[name][(k, r)], counts)


def query_phase(server: Server, scenario: Scenario, seconds: float,
                tracer: Optional[Tracer], epoch: Epoch,
                traced_flags: Optional[List[List[bool]]] = None) -> None:
    """One closed-loop keep-alive connection sending whole cycles of the
    plan until ``seconds`` have passed.

    With a tracer, odd blocks record a span per request and even blocks
    do not, so the two halves differ by the tracing cost alone.
    """
    workload = scenario.workload
    cycle = scenario.cycle
    block = workload.cycles_per_block * len(cycle)
    expected = scenario.expected_initial
    # Fill the per-(graph, k) memo first: the phase measures the hot
    # path, and users do not pay the first miss on every request.
    sweep(server.client, scenario.names, workload.pairs, expected,
          epoch.counts)
    answers = [expected[name][(k, r)] for name, k, r in cycle]
    clock = time.perf_counter
    latencies, counts = epoch.stream, epoch.counts
    flags: List[bool] = []
    with _block(tracer, "phase.query"):
        deadline = clock() + seconds
        while clock() < deadline and counts.bad <= 50:  # 50: the program is broken
            for (name, k, r), answer in zip(cycle, answers):
                tracing = (tracer is not None
                           and (len(latencies) // block) % 2 == 1)
                start = clock()
                ask(server.client, name, k, r, answer, counts)
                end = clock()
                if tracing:
                    tracer.add("client.top_r", start, end,
                               request=f"q{len(latencies)}")
                latencies.append(end - start)
                flags.append(tracing)
    if traced_flags is not None:
        traced_flags.append(flags)


def post_batch(client, name: str, updates, counts: Counts) -> Optional[dict]:
    counts.attempted += 1
    try:
        ack = client.apply_updates(name, updates)
    except ServerError as exc:
        if exc.status in _REFUSALS:
            counts.refused += 1
        else:
            counts.failed += 1
        return None
    if ack.get("num_updates") != len(updates):
        counts.mismatched += 1
    return ack


def update_plan(server: Server, scenario: Scenario, epoch: Epoch,
                acked: Dict[str, int], tracer: Optional[Tracer]) -> None:
    clock = time.perf_counter
    for index, (name, updates) in enumerate(scenario.batches):
        start = clock()
        ack = post_batch(server.client, name, updates, epoch.counts)
        end = clock()
        epoch.updates.append(end - start)
        if tracer is not None:
            tracer.add("client.apply_updates", start, end, request=f"u{index}")
        if ack is not None:
            acked[name] = ack.get("version")


def churn_plan(server: Server, scenario: Scenario, epoch: Epoch,
               acked: Dict[str, int], tracer: Optional[Tracer],
               traced_flags: Optional[List[List[bool]]] = None) -> None:
    """The interleaved plan; with a tracer, odd steps record spans."""
    clock = time.perf_counter
    pairs = scenario.workload.pairs
    flags: List[bool] = []
    for index, step in enumerate(scenario.steps):
        tracing = tracer is not None and index % 2 == 1
        start = clock()
        ack = post_batch(server.client, step.name, step.updates, epoch.counts)
        end = clock()
        epoch.updates.append(end - start)
        if tracing:
            tracer.add("client.apply_updates", start, end, request=f"u{index}")
        if ack is not None:
            acked[step.name] = ack.get("version")
        for read, ((k, r), answer) in enumerate(zip(pairs, step.expected)):
            start = clock()
            ask(server.client, step.name, k, r, answer, epoch.counts)
            end = clock()
            epoch.plan_reads.append(end - start)
            flags.append(tracing)
            if tracing:
                tracer.add("client.top_r", start, end,
                           request=f"s{index}/{read}")
    if traced_flags is not None:
        traced_flags.append(flags)


def check_durable(server: Server, scenario: Scenario, acked: Dict[str, int],
                  counts: Counts) -> None:
    """Every acknowledged batch survived the kill.

    The restarted program was handed the graphs as the plan left them;
    it may answer correctly by rebuilding from nothing, so correctness
    alone proves no durability.  A warm start at the acknowledged
    version does: the store still held the lineage the updates wrote.
    """
    for name in scenario.names:
        counts.attempted += 1
        try:
            stats = server.client.graph_stats(name)
        except ServerError:
            counts.failed += 1
            continue
        if not stats.get("warm_started") or (
                name in acked and stats.get("version") != acked[name]):
            counts.mismatched += 1


def run_epoch(harness: Harness, scenario: Scenario, seconds: float,
              codec_bin: bool, tracer: Optional[Tracer] = None,
              traced_flags: Optional[List[List[bool]]] = None) -> Epoch:
    workload = scenario.workload
    work = harness.work_dir(workload.name)
    store = work / "store"
    epoch = Epoch()
    clock = time.perf_counter

    with _block(tracer, "phase.setup"):
        start = clock()
        server = Server(harness, scenario.initial_paths, store,
                        workload.workers, codec_bin, work / "serve.log")
        sweep(server.client, scenario.names, SWEEP[:1],
              scenario.expected_initial, epoch.counts)
        epoch.setup_s = clock() - start

    acked: Dict[str, int] = {}
    if workload.shape == "churn":
        with _block(tracer, "phase.plan"):
            churn_plan(server, scenario, epoch, acked, tracer, traced_flags)
    else:
        query_phase(server, scenario, seconds * workload.query_share, tracer,
                    epoch, traced_flags)
        with _block(tracer, "phase.updates"):
            update_plan(server, scenario, epoch, acked, tracer)
    epoch.store_bytes = tree_bytes(store)
    epoch.peak_rss_mb = server.program.peak_rss_mb()

    restarts = []
    for _ in range(RESTARTS_PER_EPOCH):
        with _block(tracer, "phase.restart"):
            start = clock()
            server.close(harness)  # SIGKILL of the whole group
            server = Server(harness, scenario.updated_paths, store,
                            workload.workers, codec_bin, work / "serve.log")
            sweep(server.client, scenario.names, SWEEP,
                  scenario.expected_final, epoch.counts)
            restarts.append(clock() - start)
        check_durable(server, scenario, acked, epoch.counts)
        epoch.peak_rss_mb = max(epoch.peak_rss_mb,
                                server.program.peak_rss_mb())
    epoch.restart_ready_s = min(restarts)
    server.close(harness)
    return epoch
