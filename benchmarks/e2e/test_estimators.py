"""The noise protocol's estimators, checked without a clock.

Pure: no timing, no I/O, no ``repro`` import, well under two seconds.  Synthetic "interference" only ever
adds time, in bursts — the property the estimators are built on.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from e2elib import estimators as est  # noqa: E402
from e2elib.inputs import EdgeModel  # noqa: E402


def _blocks(rng, count=60, size=200, base=1.0):
    """``count`` like-for-like blocks of latencies around ``base``."""
    return [[base * (1 + 0.02 * rng.random()) for _ in range(size)]
            for _ in range(count)]


def _slow(blocks, rng, share=0.3, factor=2.0):
    """A burst: ``share`` of the blocks, chosen at random, run 2x slower."""
    hit = set(rng.sample(range(len(blocks)), int(share * len(blocks))))
    return [[x * factor for x in block] if i in hit else block
            for i, block in enumerate(blocks)]


def test_quiet_decile_ignores_bursts_the_whole_run_median_does_not():
    rng = random.Random(1)
    quiet = _blocks(rng)
    noisy = _slow(quiet, rng)

    def decile(blocks, key):
        return est.quiet_decile([est.block_stats(b)[key] for b in blocks])

    for key in ("p50", "p90"):
        assert abs(decile(noisy, key) / decile(quiet, key) - 1) < 0.02
    rate = [est.block_stats(b)["qps"] for b in quiet]
    noisy_rate = [est.block_stats(b)["qps"] for b in noisy]
    assert abs(est.quiet_decile(noisy_rate, True)
               / est.quiet_decile(rate, True) - 1) < 0.02

    def flat(blocks):
        return [x for b in blocks for x in b]
    # a whole-run mean (hence a whole-run rate) moves with the burst
    assert (sum(flat(noisy)) / len(flat(noisy))) / (
        sum(flat(quiet)) / len(flat(quiet))) > 1.10


def test_whole_run_p50_moves_when_half_the_run_is_slow():
    rng = random.Random(2)
    quiet = _blocks(rng)
    noisy = _slow(quiet, rng, share=0.55)
    flat_quiet = [x for b in quiet for x in b]
    flat_noisy = [x for b in noisy for x in b]
    assert est.percentile(flat_noisy, 50) / est.percentile(flat_quiet, 50) > 1.10
    assert abs(est.quiet_decile([est.block_stats(b)["p50"] for b in noisy])
               / est.quiet_decile([est.block_stats(b)["p50"] for b in quiet])
               - 1) < 0.02


def test_replay_min_keeps_each_operations_fastest_replay():
    rng = random.Random(3)
    plan = [rng.uniform(1, 50) for _ in range(40)]  # unlike operations
    replays = [[x * (2.0 if rng.random() < 0.3 else 1.0) * (1 + 0.01 * rng.random())
                for x in plan] for _ in range(5)]
    kept = est.replay_min(replays)
    assert abs(sum(kept) / sum(plan) - 1) < 0.02
    assert sum(replays[0]) / sum(plan) > 1.10
    with pytest.raises(ValueError):
        est.replay_min([[1.0, 2.0], [1.0]])


def test_best_of_epochs():
    assert est.best_of([1.31, 1.02 * 2, 1.02]) == 1.02
    with pytest.raises(ValueError):
        est.best_of([])


def test_ragged_tail_blocks_are_dropped():
    blocks = est.cut_blocks(list(range(10)), 4)
    assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert est.cut_blocks([1.0, 2.0], 4) == []


def test_block_rate_is_count_over_summed_latency():
    assert est.block_stats([0.001] * 100)["qps"] == pytest.approx(1000.0)


def test_stall_share_sees_what_the_quiet_decile_hides():
    means = [1.0] * 8 + [3.0] * 2
    assert est.stall_share(means, quiet_value=1.0) == pytest.approx(0.2)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 7.0},   # overlaps span 1
        {"id": 3, "parent": 0, "start": 9.0, "end": 12.0},  # clipped to the parent
        {"id": 4, "parent": 1, "start": 1.0, "end": 2.0},
    ]
    own = est.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (6.0 + 1.0))  # not 10 - (4 + 4 + 3)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_a_metric_declared_but_not_measured_is_an_error_never_a_zero():
    declared = ["setup_s", "query_qps"]
    est.check_metrics(declared, {"setup_s": 1.0, "query_qps": 2.0})
    with pytest.raises(est.MetricContractError):
        est.check_metrics(declared, {"setup_s": 1.0})
    with pytest.raises(est.MetricContractError):
        est.check_metrics(declared, {"setup_s": 1.0, "query_qps": 2.0, "extra": 3.0})
    with pytest.raises(est.MetricContractError):
        est.check_metrics(declared, {"setup_s": 1.0, "query_qps": float("nan")})
    with pytest.raises(est.MetricContractError):
        est.check_metrics(declared, {"setup_s": 1.0, "query_qps": None})
    est.check_metrics(declared, {"setup_s": 1.0, "query_qps": None},
                      allow_null=True)


def test_update_batches_never_fail_and_growth_appends_a_vertex():
    n = 300  # a ring with chords: every vertex has four neighbours
    ring = [(v, (v + step) % n) for v in range(n) for step in (1, 7)]
    model = EdgeModel(n, [(min(e), max(e)) for e in ring])
    present = set(model.edges)
    rng = random.Random(9)
    for step in range(20):
        for op, u, v in model.batch(rng, 4, 4, grow=step % 2 == 0):
            edge = (min(u, v), max(u, v))
            if op == "delete":
                assert edge in present
                present.remove(edge)
            else:
                assert edge not in present and u != v
                present.add(edge)
    assert present == set(model.edges)
    assert model.n == n + 10
