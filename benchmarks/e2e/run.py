#!/usr/bin/env python3
"""One seeded end-to-end benchmark run.

    python3 benchmarks/e2e/run.py --workload W --seed S [--trace 0|1] [--out FILE]
    python3 benchmarks/e2e/run.py --quick

Generates the workload's inputs from the seed, drives the unmodified
program from outside, checks every answer against an in-process oracle,
prints every metric by name and unit and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics declared in ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones; ``--out FILE`` also writes the traced run's spans.
``BENCHMARK.json`` is the only table of metrics: names, units, bounds
and run length (``run_seconds``; the acceptance driver passes it back
as ``--seconds``).  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from e2elib import estimators  # noqa: E402  (pure: safe before the program exists)
from e2elib.procs import REPO_ROOT, SRC_DIR, pin_to_one_cpu  # noqa: E402

#: ``--quick`` runs every workload once, briefly and on quarter-size
#: graphs; its numbers only show that the machinery works.
QUICK_SECONDS = 2.0


def print_metrics(title: str, metrics: Dict[str, Optional[float]],
                  units: Dict[str, str], notes: Dict[str, str]) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {shown:>12} {units.get(name, '')}{note}")


def result_line(counts, metrics: Dict[str, Optional[float]],
                units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": counts.bad == 0,
        "attempted": counts.attempted,
        "failed": counts.bad,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="the acceptance driver's flag; defaults to "
                             "run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="with --trace 1: write the spans to this file")
    parser.add_argument("--quick", action="store_true",
                        help="all workloads, one short epoch each: checks "
                             "correctness, durability and the metric contract")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir():
        print(f"error: the program is not here: {SRC_DIR / 'repro'} is missing",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC_DIR))
    from e2elib import driver  # imports the program: only now can it
    contract = json.loads(
        (REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m["unit"] for m in contract[kind]}
                for kind in ("end_to_end", "per_layer")}
    names = [w["name"] for w in contract["workloads"]]
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]

    if args.quick:
        started = time.perf_counter()
        bad = 0
        for name in names:
            metrics, counts, notes = driver.run(
                name, args.seed, QUICK_SECONDS, trace=False, epochs=1, quick=True)
            estimators.check_metrics(declared["end_to_end"], metrics)
            print_metrics(f"{name} (quick: NOT FOR COMPARISON)", metrics,
                          declared["end_to_end"], notes)
            print(f"  attempted={counts.attempted} failed={counts.failed} "
                  f"refused={counts.refused} mismatched={counts.mismatched}")
            bad += counts.bad
        print(f"quick check: {'ok' if bad == 0 else 'FAILED'} in "
              f"{time.perf_counter() - started:.1f}s")
        return 0 if bad == 0 else 1

    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics, counts, notes = driver.run(args.workload, args.seed, seconds,
                                        trace=bool(args.trace),
                                        trace_out=args.out)
    estimators.check_metrics(declared[kind], metrics, allow_null=bool(args.trace))
    metrics = {name: metrics[name] for name in declared[kind]}
    print_metrics(f"{args.workload} seed={args.seed} seconds={seconds:g} "
                  f"trace={args.trace}", metrics, declared[kind], notes)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": counts.attempted, "failed": counts.failed,
        "refused": counts.refused, "mismatched": counts.mismatched,
        "claim": None}))
    print(result_line(counts, metrics, declared[kind]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
