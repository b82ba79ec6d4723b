"""Pure estimators of the noise protocol: no clock, no I/O, no ``repro``.

Interference on the benchmark host only ever *adds* time, arrives in
bursts of about a second and sometimes lasts a whole run.  So no gated
number is a single draw or a whole-run percentile; each is one of:

* :func:`best_of` — a one-shot phase keeps its fastest epoch;
* :func:`quiet_decile` — a homogeneous request stream is cut into
  like-for-like blocks (:func:`cut_blocks`) and the statistic of the
  quietest tenth of the blocks is reported;
* :func:`replay_min` — a plan of unlike operations is replayed in every
  epoch and each operation keeps its fastest replay.

The module also holds the span arithmetic of the traced run
(:func:`self_times`) and the declared-versus-measured metric check
(:func:`check_metrics`), both equally pure.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class MetricContractError(ValueError):
    """A metric was declared but not measured, or the reverse."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def cut_blocks(samples: Sequence[float], block_size: int) -> List[List[float]]:
    """Whole blocks of ``block_size`` samples; a ragged tail is dropped.

    A short tail block is not like-for-like with the others (it covers
    only part of the plan's cycle), so it never becomes a block.
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    whole = len(samples) // block_size
    return [list(samples[i * block_size:(i + 1) * block_size])
            for i in range(whole)]


def block_stats(block: Sequence[float]) -> Dict[str, float]:
    """p50, p90, mean and closed-loop rate of one block of latencies.

    The block's requests ran back to back on one closed loop, so the
    rate is their count over their summed latencies.
    """
    total = sum(block)
    return {"p50": percentile(block, 50), "p90": percentile(block, 90),
            "mean": total / len(block), "qps": len(block) / total}


def quiet_decile(block_values: Sequence[float], higher_is_better: bool = False) -> float:
    """The statistic in the quietest tenth of the blocks.

    The 10th percentile across blocks for a cost, the 90th for a rate:
    a burst slows some blocks and never speeds one up, so the quiet end
    of the distribution is the program's own speed.
    """
    return percentile(block_values, 90.0 if higher_is_better else 10.0)


def best_of(values: Iterable[float]) -> float:
    """The fastest of the epochs of a one-shot phase."""
    values = list(values)
    if not values:
        raise ValueError("best_of no epochs")
    return min(values)


def replay_min(replays: Sequence[Sequence[float]]) -> List[float]:
    """Per-operation minimum over identical replays of one plan."""
    if not replays:
        raise ValueError("replay_min of no replays")
    length = len(replays[0])
    if any(len(replay) != length for replay in replays):
        raise ValueError("replays of one plan must have equal lengths")
    return [min(column) for column in zip(*replays)]


def stall_share(block_means: Sequence[float], quiet_value: float,
                factor: float = 1.5) -> float:
    """Share of blocks whose mean exceeds ``factor`` × the quiet value.

    The quiet decile hides the program's own periodic stalls by design;
    this ungated number keeps them visible.
    """
    if not block_means:
        raise ValueError("stall_share of no blocks")
    slow = sum(1 for mean in block_means if mean > factor * quiet_value)
    return slow / len(block_means)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def _union_length(intervals: List[Tuple[float, float]]) -> float:
    covered = 0.0
    end = -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        covered += stop - max(start, end)
        end = stop
    return covered


def self_times(spans: Sequence[Mapping[str, object]]) -> Dict[object, float]:
    """Self time per span id: duration minus the *union* of its children.

    Children may overlap (spans recorded by another thread or by the
    in-process workload's child), so their durations are not summed:
    the part of the parent's interval they cover is measured once.
    Child intervals are clipped to the parent.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span.get("parent"))
        if parent is None:
            continue
        start = max(float(span["start"]), float(parent["start"]))
        stop = min(float(span["end"]), float(parent["end"]))
        if stop > start:
            children.setdefault(parent["id"], []).append((start, stop))
    return {span["id"]: (float(span["end"]) - float(span["start"])
                         - _union_length(children.get(span["id"], [])))
            for span in spans}


# ----------------------------------------------------------------------
# Metric contract
# ----------------------------------------------------------------------
def check_metrics(declared: Iterable[str],
                  measured: Mapping[str, Optional[float]],
                  allow_null: bool = False) -> None:
    """Exactly the declared metrics were measured, each a finite number.

    A declared-but-unmeasured or measured-but-undeclared metric is an
    error, never a silent zero: a benchmark that drops a number must
    fail loudly, not report that the number became 0.  ``allow_null``
    admits ``None`` for a per-layer probe whose function a later change
    removed (it is still *reported*, with its reason).
    """
    declared = list(declared)
    missing = [name for name in declared if name not in measured]
    extra = [name for name in measured if name not in set(declared)]
    if missing or extra:
        raise MetricContractError(
            f"declared but not measured: {missing}; "
            f"measured but not declared: {extra}")
    bad = [name for name in declared
           if not (allow_null and measured[name] is None)
           and (not isinstance(measured[name], (int, float))
                or isinstance(measured[name], bool)
                or not math.isfinite(measured[name]))]
    if bad:
        raise MetricContractError(f"not a finite number: {bad}")


def iqr_over_median(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (the driver's spread)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
