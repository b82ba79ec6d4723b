"""The :class:`BuildPlan` heuristic: how should this index be built?

Every production index build runs the paper's fast GCT construction:
ONE degree-ordered triangle pass feeds every ego-network (each triangle
touched once — the "global triangle information" of Algorithm 7), then
ego decomposition and forest / GCT assembly.  What is left to decide is
where that decomposition runs:

* ``shared-serial`` — in-process.  Small constant setup (an id
  mapping).
* ``parallel`` — vertices are sharded across a ``multiprocessing``
  pool; each worker decomposes its shard on compact integer ids.  Pays
  process spawn + payload pickling, so it only wins when the
  decomposition work dwarfs that fixed cost *and* spare cores exist.

:meth:`BuildPlan.decide` makes the choice from two measurements: the
graph's size (graphs below a threshold stay serial — process spawn
costs must not regress small builds) and the process's CPU affinity
mask (oversubscribing a core never helps wall-clock, so ``taskset``
bounds the pool).  Every plan carries a human-readable reason, in the
spirit of the engine's :class:`~repro.engine.planner.PlanDecision`.
The per-vertex Algorithm 5 loop (:meth:`~repro.core.tsd.TSDIndex.build`)
is not a plan: it is the reference the pipeline is tested against and
Table 4's baseline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import InvalidParameterError

#: Execution strategies (see module docstring).
MODE_SERIAL = "shared-serial"
MODE_PARALLEL = "parallel"

#: Below this many graph edges a pool is never worth spawning: the whole
#: build finishes in tens of milliseconds, comparable to fork+pickle.
DEFAULT_SERIAL_THRESHOLD_EDGES = 20_000


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@dataclass(frozen=True)
class BuildPlan:
    """One build verdict: the strategy, the worker count, and why.

    ``jobs`` is the number of worker processes (1 for a serial plan).
    Construct directly to force a strategy — the equivalence tests do
    exactly that to exercise the pool on small graphs — or let
    :meth:`decide` pick.

    Examples
    --------
    >>> BuildPlan.decide(100).mode
    'shared-serial'
    >>> BuildPlan.decide(100, jobs=1).mode
    'shared-serial'
    >>> BuildPlan.decide(100_000, jobs=4, cpu_budget=8).jobs
    4
    >>> BuildPlan.decide(100, jobs=4, cpu_budget=8).mode  # tiny graph
    'shared-serial'
    """

    mode: str
    jobs: int
    reason: str

    def __post_init__(self) -> None:
        if self.mode not in (MODE_SERIAL, MODE_PARALLEL):
            raise InvalidParameterError(
                f"unknown build mode {self.mode!r}; expected one of "
                f"{(MODE_SERIAL, MODE_PARALLEL)}")
        if self.jobs < 1:
            raise InvalidParameterError(
                f"a build plan needs jobs >= 1, got {self.jobs}")
        if self.mode == MODE_SERIAL and self.jobs != 1:
            raise InvalidParameterError(
                f"{self.mode} builds are single-process; got jobs={self.jobs}")

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.mode} x{self.jobs}: {self.reason}"

    @classmethod
    def decide(cls, num_edges: int, jobs: int = 0, *,
               cpu_budget: "int | None" = None,
               serial_threshold_edges: int = DEFAULT_SERIAL_THRESHOLD_EDGES,
               ) -> "BuildPlan":
        """Pick a strategy for a graph with ``num_edges`` edges.

        Parameters
        ----------
        jobs:
            ``0`` (what every production build uses) — auto: one worker
            per available CPU, downgraded to serial when the graph is
            small or only one CPU is available.  ``1`` — force the
            serial build.  ``>= 2`` — request that many workers,
            clamped to the CPU budget and still subject to the
            small-graph downgrade (the traced benchmark probes and the
            pool-equality tests use these).
        cpu_budget:
            Override the detected CPU count (tests; capacity planning).
        serial_threshold_edges:
            Graphs with fewer edges never spawn a pool.
        """
        if jobs < 0:
            raise InvalidParameterError(f"jobs must be >= 0, got {jobs}")
        if jobs == 1:
            return cls(MODE_SERIAL, 1,
                       "jobs=1 — one shared triangle pass, in-process "
                       "decomposition")
        if num_edges < serial_threshold_edges:
            return cls(MODE_SERIAL, 1,
                       f"small graph ({num_edges} < "
                       f"{serial_threshold_edges} edges) — process spawn "
                       "would cost more than it saves")
        budget = cpu_budget if cpu_budget is not None else available_cpus()
        requested = budget if jobs == 0 else min(jobs, budget)
        if requested <= 1:
            return cls(MODE_SERIAL, 1,
                       f"only {budget} CPU(s) available — extra worker "
                       "processes cannot improve wall-clock")
        return cls(MODE_PARALLEL, requested,
                   f"{num_edges} edges across {requested} worker "
                   f"process(es) (requested {jobs or 'auto'}, "
                   f"budget {budget})")
