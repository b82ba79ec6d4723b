"""One run: scenario, epochs, estimators — and the probes when traced."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import inproc, layers, serving
from .procs import Harness, serve_offers_codec_bin
from .scenario import Scenario
from .tracing import Tracer
from .workloads import EPOCHS, WORKLOADS, Counts, Epoch, summarise

#: A quick run shrinks the graphs, the plans and the blocks as well as
#: the phases: it checks the machinery, not the program's speed.
_QUICK_BATCHES = 4
_QUICK_SHRINK = 4


def run(name: str, seed: int, seconds: float, trace: bool,
        epochs: Optional[int] = None, quick: bool = False,
        trace_out: Optional[Path] = None,
        ) -> Tuple[Dict[str, Optional[float]], Counts, Dict[str, str]]:
    """``(metrics, counts, notes)`` of one run of workload ``name``."""
    workload = WORKLOADS[name]
    batches = workload.batches
    if quick:
        workload = replace(workload, cycles_per_block=1,
                           n=workload.n // _QUICK_SHRINK)
        batches = _QUICK_BATCHES
    with Harness() as harness:
        inputs = harness.work_dir("inputs")
        scenario = Scenario(workload, seed, inputs, batches)
        codec_bin = workload.mode == "serve" and serve_offers_codec_bin()
        if trace:
            return layers.traced_run(harness, scenario, seconds, codec_bin,
                                     run_epoch, trace_out)
        results = [run_epoch(harness, scenario, seconds, codec_bin)
                   for _ in range(epochs or EPOCHS)]
    counts = Counts()
    for epoch in results:
        counts.add(epoch.counts)
    metrics, _ = summarise(workload, results, len(scenario.cycle))
    return metrics, counts, {}


def run_epoch(harness: Harness, scenario: Scenario, seconds: float,
              codec_bin: bool, tracer: Optional[Tracer] = None,
              traced_flags: Optional[List[List[bool]]] = None) -> Epoch:
    if scenario.workload.mode == "inproc":
        return inproc.run_epoch(harness, scenario, seconds, tracer, traced_flags)
    return serving.run_epoch(harness, scenario, seconds, codec_bin, tracer,
                             traced_flags)
