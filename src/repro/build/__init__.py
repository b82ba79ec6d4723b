"""Index construction pipeline: one triangle pass, N workers, byte-identical.

Public surface of the build subsystem:

* :class:`BuildPlan` / :func:`~repro.build.plan.available_cpus` — the
  serial-vs-parallel heuristic (clamped to the CPU affinity mask, small
  graphs stay serial).
* :class:`ParallelIndexBuilder` — the staged pipeline (shared triangle
  pass → sharded decomposition → deterministic merge).
* :func:`build_tsd_index` / :func:`build_gct_index` /
  :func:`build_indexes` — the one-call, auto-planned entry points every
  production build goes through (the CLI, the query engine and
  ``Snapshot.build``).
* :func:`repair_forests` — the affected-vertex batch repair the update
  path fans out.

Every plan produces indexes whose payloads are byte-identical (modulo
the timing-only build profile) to the reference Algorithm 5 / 7 loops
of ``TSDIndex.build`` / ``GCTIndex.build`` — the canonical ranking
contract and the ``compress``-equals-``build`` invariant do not bend
for parallelism.
"""

from repro.build.plan import (
    DEFAULT_SERIAL_THRESHOLD_EDGES,
    MODE_PARALLEL,
    MODE_SERIAL,
    BuildPlan,
    available_cpus,
)
from repro.build.parallel import (
    ParallelIndexBuilder,
    build_gct_index,
    build_indexes,
    build_tsd_index,
    repair_forests,
)

__all__ = [
    "BuildPlan",
    "ParallelIndexBuilder",
    "available_cpus",
    "build_gct_index",
    "build_indexes",
    "build_tsd_index",
    "repair_forests",
    "DEFAULT_SERIAL_THRESHOLD_EDGES",
    "MODE_PARALLEL",
    "MODE_SERIAL",
]
