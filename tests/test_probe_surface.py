"""The traced benchmark's per-layer probes still find what they call.

``benchmarks/e2e/e2elib/layers.py`` times public functions of every
layer, looked up at run time: when a change removes or reshapes one of
them, that metric silently reads ``null`` and the traced run no longer
reports it.  This runs the in-process probes once on a small graph and
asks that every one of them measured a finite number.  The harness is
imported read-only; nothing under ``benchmarks/e2e`` is changed.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from e2elib import layers  # noqa: E402
from e2elib.tracing import Tracer  # noqa: E402


def test_every_library_probe_measures_a_finite_number(tmp_path):
    rec = layers.Recorder(Tracer())
    lib = layers.Library(SimpleNamespace(seed=1, n=400), tmp_path)
    layers.library_probes(rec, lib)
    assert rec.reasons == {}
    assert rec.values
    for name, value in rec.values.items():
        assert isinstance(value, (int, float)), (name, value)
        assert math.isfinite(value), (name, value)
