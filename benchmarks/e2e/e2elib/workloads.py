"""The four workloads, what one epoch yields, and how epochs become metrics.

One run is ``E`` epochs on identical inputs.  An epoch is: fresh work
dir → set-up (cold index build, persist to the store, launch, until
every graph answers) → query phase → update plan → SIGKILL → warm
restart on the same store → first correct sweep → teardown.  The
estimators of :mod:`.estimators` turn the epochs into the eight
end-to-end metrics; nothing gated is a single draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from . import estimators as est

#: The sweep that ends a restart (and a set-up, at k = 3 only): every
#: graph must answer these correctly before the program counts as ready.
SWEEP: Tuple[Tuple[int, int], ...] = ((3, 10), (4, 10), (5, 10), (6, 10))

EPOCHS = 3
#: A restart takes 0.3-0.5 s, a launch's jitter is tens of ms: each epoch
#: kills and restarts twice and the run keeps the fastest of the six.
RESTARTS_PER_EPOCH = 2


@dataclass(frozen=True)
class Workload:
    """Sizes and plan of one workload; why it exists is in ``BENCHMARK.json``."""
    name: str
    mode: str                 # "inproc": public Python API in a child; "serve": repro.cli serve
    graphs: int
    n: int
    pairs: Tuple[Tuple[int, int], ...]
    shape: str = "stream"     # "stream": query phase then update plan; "churn": interleaved plan
    workers: int = 0          # repro.cli serve --workers
    query_share: float = 0.0  # stream: share of --seconds one epoch's query phase gets
    cycles_per_block: int = 1
    batches: int = 0          # stream: update batches; churn: plan steps (one batch + gets each)
    grow_every: int = 0       # every g-th batch of a graph attaches a new vertex
    shuffle: bool = True      # seeded order of the query cycle; False keeps ``pairs`` order


_K = (3, 4, 5, 6)
_HOT_PAIRS = ((3, 10), (4, 10), (5, 10), (3, 1), (4, 100), (6, 10))

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # One graph 8x the reader LRU and a one-entry memo.  k cycles
    # fastest and the order is kept, so consecutive queries never share
    # a threshold and every query is a full scan; a block is two cycles
    # (24 scans).
    Workload(name="index-scan", mode="inproc", graphs=1, n=8000,
             pairs=tuple((k, r) for r in (1, 10, 100) for k in _K),
             shuffle=False, query_share=0.15, cycles_per_block=2, batches=8),
    # Eight graphs that fit the reader LRU, memo-hot pairs; a block is
    # five cycles of the 48-query plan (240 requests).
    Workload(name="serve-hot", mode="serve", graphs=8, n=1000,
             pairs=_HOT_PAIRS, query_share=0.17, cycles_per_block=5,
             batches=24),
    Workload(name="serve-cluster", mode="serve", graphs=8, n=1000, workers=2,
             pairs=_HOT_PAIRS, query_share=0.17, cycles_per_block=5,
             batches=24),
    # Thirty steps of one batch + 16 reads on the batch's graph.  Every
    # other batch of a graph attaches a new vertex: a changed vertex set
    # invalidates all four memoised thresholds (four scans among the 16
    # reads), the batches in between keep the vertex set and invalidate
    # only the thresholds whose scores moved (measured: 0.2-0.5 of the
    # four), so both the re-scan and the retained-hit path are read.
    Workload(name="churn-restart", mode="serve", graphs=3, n=3000,
             shape="churn",
             pairs=tuple((k, r) for k in _K for r in (1, 10, 50, 100)),
             batches=30, grow_every=2),
)}


@dataclass
class Counts:
    """Every operation is attempted once and lands in at most one bin."""
    attempted: int = 0
    failed: int = 0       # transport error, non-2xx other than a refusal, hang
    refused: int = 0      # the program answered 429/503
    mismatched: int = 0   # answered, but not what the oracle says

    def add(self, other: "Counts") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.refused += other.refused
        self.mismatched += other.mismatched

    @property
    def bad(self) -> int:
        return self.failed + self.refused + self.mismatched


@dataclass
class Epoch:
    setup_s: float = 0.0
    restart_ready_s: float = 0.0
    store_bytes: int = 0
    peak_rss_mb: float = 0.0
    #: stream shape: query latencies in the order sent (seconds)
    stream: List[float] = field(default_factory=list)
    #: churn shape: read latencies in plan order (seconds)
    plan_reads: List[float] = field(default_factory=list)
    #: update-batch latencies in plan order (seconds)
    updates: List[float] = field(default_factory=list)
    counts: Counts = field(default_factory=Counts)


def summarise(workload: Workload, epochs: Sequence[Epoch],
              cycle_length: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(end_to_end, raw)``: the gated metrics and the ungated whole-run view."""
    metrics = {
        "setup_s": est.best_of(e.setup_s for e in epochs),
        "restart_ready_s": est.best_of(e.restart_ready_s for e in epochs),
        "update_ms": 1e3 * _mean(est.replay_min([e.updates for e in epochs])),
        "store_bytes": float(epochs[0].store_bytes),
        "peak_rss_mb": max(e.peak_rss_mb for e in epochs),
    }
    sizes = [e.store_bytes for e in epochs]
    if max(sizes) - min(sizes) > 0.001 * min(sizes):
        raise AssertionError(f"store_bytes differs between epochs: {sizes}")

    if workload.shape == "churn":
        reads = est.replay_min([e.plan_reads for e in epochs])
        metrics["query_p50_ms"] = 1e3 * est.percentile(reads, 50)
        metrics["query_p90_ms"] = 1e3 * est.percentile(reads, 90)
        metrics["query_qps"] = len(reads) / sum(reads)
        everything = [x for e in epochs for x in e.plan_reads]
        block_means = [_mean(e.plan_reads) for e in epochs]
        quiet_mean = _mean(reads)
    else:
        size = workload.cycles_per_block * cycle_length
        blocks = [est.block_stats(block)
                  for e in epochs for block in est.cut_blocks(e.stream, size)]
        if not blocks:
            raise AssertionError("query phase too short for one block")
        metrics["query_p50_ms"] = 1e3 * est.quiet_decile([b["p50"] for b in blocks])
        metrics["query_p90_ms"] = 1e3 * est.quiet_decile([b["p90"] for b in blocks])
        metrics["query_qps"] = est.quiet_decile([b["qps"] for b in blocks], True)
        everything = [x for e in epochs for x in e.stream]
        block_means = [b["mean"] for b in blocks]
        quiet_mean = est.quiet_decile(block_means)
    raw = {
        "raw.query_p50_ms": 1e3 * est.percentile(everything, 50),
        "raw.query_p99_ms": 1e3 * est.percentile(everything, 99),
        "raw.query_p999_ms": 1e3 * est.percentile(everything, 99.9),
        "raw.stall_share": est.stall_share(block_means, quiet_mean),
    }
    return metrics, raw


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)
