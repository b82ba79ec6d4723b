#!/usr/bin/env python3
"""One short traced ``index-scan`` run of the end-to-end benchmark, checked.

    python3 benchmarks/traced_smoke.py

Runs ``benchmarks/e2e/run.py --workload index-scan --seed 3 --trace 1
--seconds 4`` and fails (exit 1) unless the run exits 0, writes nothing
to stderr, and its last stdout line is the result JSON with
``"correct": true`` and every per-layer metric a finite number.  A
probe that lost the function it times reads ``null`` and fails here.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "e2e" / "run.py"
COMMAND = [sys.executable, str(RUN), "--workload", "index-scan",
           "--seed", "3", "--trace", "1", "--seconds", "4"]


def problems(returncode: int, stdout: str, stderr: str) -> list:
    """Everything wrong with one traced run's exit and output."""
    found = []
    if returncode != 0:
        found.append(f"exit status {returncode}")
    if stderr:
        found.append(f"stderr is not empty:\n{stderr}")
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return found + ["stdout does not end on a JSON result line"]
    if not isinstance(result, dict) or "metrics" not in result:
        return found + ["the last stdout line is not the result line"]
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name} = {value!r}")
    return found


def main() -> int:
    run = subprocess.run(COMMAND, capture_output=True, text=True, timeout=600)
    found = problems(run.returncode, run.stdout, run.stderr)
    if found:
        sys.stdout.write(run.stdout)
        print("traced smoke: FAILED", *found, sep="\n  ")
        return 1
    print(f"traced smoke: ok ({len(run.stdout.splitlines())} lines, "
          "every per-layer metric finite)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
