#!/usr/bin/env python3
"""A/A gate: does the benchmark agree with itself within its own bounds?

    python3 benchmarks/e2e/aa_check.py [--runs 5] [--out FILE]

Two sets of full runs of the *same* code, alternating A, B, A, B ...;
run *i* of each set uses seed *i* (the acceptance driver varies the
seed too, so the spread below includes what the seed adds).  Per
(workload, metric) the table gives both medians, both spreads (quartile
distance over median, ``statistics.quantiles(n=4)``) and a verdict:
FAIL when the medians differ by more than the metric's bound, or when
either spread exceeds half the bound.  The exit code is that of the
verdicts; ``--out`` also writes the table to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from e2elib.estimators import iqr_over_median  # noqa: E402

#: The contract allows a run 180 s.
RUN_LIMIT_S = 180


def one_run(workload: str, seed: int) -> Dict[str, float]:
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_LIMIT_S)
    if result.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {result.returncode}:\n"
                         f"{result.stderr[-2000:]}")
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    if not summary["correct"]:
        raise SystemExit(f"{workload} seed {seed} was incorrect: {summary}")
    return {name: cell["value"] for name, cell in summary["metrics"].items()}


def verdicts(contract: dict, samples: Dict[str, Dict[str, Dict[str, List[float]]]]):
    """Rows of the table; the last field is True when the cell passes."""
    rows = []
    for workload, sets in samples.items():
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = sets["A"][name], sets["B"][name]
            med_a, med_b = statistics.median(a), statistics.median(b)
            apart = abs(med_b - med_a) / med_a
            spread_a, spread_b = iqr_over_median(a), iqr_over_median(b)
            ok = apart <= bound and max(spread_a, spread_b) <= bound / 2
            rows.append((workload, name, metric["unit"], bound, med_a, med_b,
                         apart, spread_a, spread_b, ok))
    return rows


def render(rows, runs: int, seconds: float) -> str:
    lines = [
        f"# A/A check: {runs} runs per set, seeds 1..{runs}, "
        f"{seconds:.0f} s of runs in total",
        "",
        "Two alternating sets of runs of the same code.  `apart` is the "
        "distance between the two medians as a share of set A's; `spread` "
        "is IQR/median.  PASS: apart ≤ bound and both spreads ≤ bound / 2.",
        "",
        "| workload | metric | unit | bound | median A | median B | apart "
        "| spread A | spread B | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for (workload, name, unit, bound, med_a, med_b, apart, spread_a, spread_b,
         ok) in rows:
        lines.append(
            f"| {workload} | {name} | {unit} | {bound:.0%} | {med_a:.6g} | "
            f"{med_b:.6g} | {apart:.1%} | {spread_a:.1%} | {spread_b:.1%} | "
            f"{'PASS' if ok else 'FAIL'} |")
    failed = sum(1 for row in rows if not row[-1])
    lines += ["", f"{len(rows) - failed} of {len(rows)} cells pass."]
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    contract = json.loads(
        (BENCH_DIR.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in contract["workloads"]]
    samples = {w: {s: {m["name"]: [] for m in contract["end_to_end"]}
                   for s in "AB"} for w in workloads}
    started = time.perf_counter()
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            for label in "AB":
                values = one_run(workload, seed)
                for name, value in values.items():
                    samples[workload][label][name].append(value)
                print(f"seed {seed} {workload} {label}: " + " ".join(
                    f"{name}={value:.5g}" for name, value in values.items()),
                    flush=True)
    rows = verdicts(contract, samples)
    table = render(rows, args.runs, time.perf_counter() - started)
    print(table)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(table, encoding="utf-8")
    return 0 if all(row[-1] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
