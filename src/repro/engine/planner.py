"""Cost-based method selection for the query engine.

The paper's five methods answer the same query at very different cost
profiles: the online baseline pays ``O(Σ m_v)`` per query but nothing up
front; the bound framework prunes that per-query cost; the GCT index
pays a build once and then answers any ``(k, r)`` almost for free.  The
right choice therefore depends on the *workload*, not the query:

* a one-shot query on a small graph → just scan (``baseline``);
* a one-shot query on a large graph → scan with pruning (``bound``);
* repeated or batched traffic → build the index once and amortise
  (``gct``) — and once an index exists, always use it.

:class:`QueryPlanner` encodes exactly that decision, parameterised by
:class:`EngineConfig`.  Every decision carries a human-readable reason,
surfaced by ``repro engine-stats`` and the engine's statistics.

Calibration from measured times
-------------------------------
The static edge-count thresholds are priors, not measurements.  The
engine feeds the planner every cost it actually observes —
:meth:`QueryPlanner.observe_query` per served query,
:meth:`QueryPlanner.observe_build` per index build — and once the
planner has seen both a full index build and an online query it
switches to a *measured break-even*: build the index as soon as the
projected traffic amortises the measured build cost over the measured
per-query saving (:meth:`QueryPlanner.break_even_queries`).  Fresh
planners with no observations behave exactly as before, so calibration
only ever replaces a guess with a measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the engine's planner and caches.

    Attributes
    ----------
    small_graph_edges:
        A one-shot query on a graph with at most this many edges runs
        the plain online baseline — the scan is cheaper than computing
        pruning bounds, let alone building an index.
    index_reuse_threshold:
        Once the engine has seen (or is about to serve, for a batch)
        this many queries, it builds the GCT index and serves from it;
        the build cost amortises across the repeated traffic.
    score_cache_size:
        Number of distinct thresholds ``k`` whose ranked positive
        rows stay memoised (LRU).
    build_jobs:
        Worker request forwarded to every index build the engine
        triggers (see :meth:`repro.build.BuildPlan.decide`): ``0`` (the
        default) auto-plans — the shared-pass pipeline, with a worker
        pool only when the graph is large and CPUs are spare; ``1``
        forces the serial shared pass; ``>= 2`` requests that many
        workers; ``None`` keeps the legacy per-vertex build.  Whatever
        the strategy, the built indexes are byte-identical, and the
        *measured* build seconds flow into
        :meth:`QueryPlanner.observe_build` — so the break-even between
        online scans and index builds is calibrated against the build
        cost this configuration actually achieves.
    """

    small_graph_edges: int = 2_000
    index_reuse_threshold: int = 2
    score_cache_size: int = 8
    build_jobs: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.small_graph_edges < 0:
            raise InvalidParameterError(
                f"small_graph_edges must be >= 0, got {self.small_graph_edges}")
        if self.index_reuse_threshold < 1:
            raise InvalidParameterError(
                "index_reuse_threshold must be >= 1, "
                f"got {self.index_reuse_threshold}")
        if self.score_cache_size < 1:
            raise InvalidParameterError(
                f"score_cache_size must be >= 1, got {self.score_cache_size}")
        if self.build_jobs is not None and self.build_jobs < 0:
            raise InvalidParameterError(
                f"build_jobs must be None or >= 0, got {self.build_jobs}")


@dataclass(frozen=True)
class PlanDecision:
    """One planner verdict: the chosen method and why."""

    method: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.method}: {self.reason}"


class QueryPlanner:
    """Chooses the cheapest method for the workload seen so far.

    Examples
    --------
    >>> planner = QueryPlanner(EngineConfig(small_graph_edges=100))
    >>> planner.choose(num_edges=40, queries_seen=0, batch_size=1,
    ...                index_ready=False).method
    'baseline'
    >>> planner.choose(num_edges=40, queries_seen=0, batch_size=5,
    ...                index_ready=False).method
    'gct'
    """

    #: Methods whose measured query cost counts as "online" (no index).
    _ONLINE_METHODS = ("baseline", "bound")

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        # method -> (total seconds, observation count)
        self._query_seconds: Dict[str, Tuple[float, int]] = {}
        # index name -> latest measured build seconds
        self._build_seconds: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Calibration: the engine reports what things actually cost
    # ------------------------------------------------------------------
    def observe_query(self, method: str, seconds: float) -> None:
        """Record one served query's measured wall-clock cost."""
        total, count = self._query_seconds.get(method, (0.0, 0))
        self._query_seconds[method] = (total + seconds, count + 1)

    def observe_build(self, name: str, seconds: float) -> None:
        """Record one index build's measured wall-clock cost."""
        self._build_seconds[name] = seconds

    def measured_query_seconds(self, method: str) -> Optional[float]:
        """Mean observed query seconds for ``method`` (``None`` unseen)."""
        entry = self._query_seconds.get(method)
        if entry is None or entry[1] == 0:
            return None
        return entry[0] / entry[1]

    def measured_build_seconds(self) -> Optional[float]:
        """Measured cost of reaching a servable GCT index from cold.

        Requires a recorded ``gct`` build; a recorded ``tsd`` build is
        added when present (the engine's cheap path builds TSD first
        and compresses, so the cold-start cost is their sum).
        """
        if "gct" not in self._build_seconds:
            return None
        return (self._build_seconds["gct"]
                + self._build_seconds.get("tsd", 0.0))

    def _measured_online(self) -> Optional[Tuple[str, float]]:
        """The cheapest *measured* online method and its mean seconds."""
        candidates = [(self.measured_query_seconds(m), m)
                      for m in self._ONLINE_METHODS]
        measured = [(cost, m) for cost, m in candidates if cost is not None]
        if not measured:
            return None
        cost, method = min(measured)
        return method, cost

    def break_even_queries(self) -> Optional[int]:
        """Measured query count past which the index build amortises.

        ``None`` while uncalibrated (no measured build or online cost),
        and also when the measured marginal index query is *not* cheaper
        than the online scan — then no traffic volume justifies a build.
        """
        build = self.measured_build_seconds()
        online = self._measured_online()
        if build is None or online is None:
            return None
        index_query = self.measured_query_seconds("gct") or 0.0
        saving = online[1] - index_query
        if saving <= 0:
            return None
        return max(1, math.ceil(build / saving))

    @property
    def is_calibrated(self) -> bool:
        """Whether measured costs (not edge-count priors) drive choices."""
        return (self.measured_build_seconds() is not None
                and self._measured_online() is not None)

    # ------------------------------------------------------------------
    # The decision
    # ------------------------------------------------------------------
    def choose(self, *, num_edges: int, queries_seen: int,
               batch_size: int = 1, index_ready: bool = False) -> PlanDecision:
        """Pick a method for the next ``batch_size`` queries.

        Parameters
        ----------
        num_edges:
            ``|E|`` of the engine's graph (the online cost driver).
        queries_seen:
            Top-r queries the engine has already served.
        batch_size:
            Queries about to be served together (1 for a single query).
        index_ready:
            Whether a GCT index is already built — sunk cost, so the
            marginal index query always wins.
        """
        if index_ready:
            return PlanDecision(
                "gct", "index already built — marginal query cost is "
                       "two binary searches per vertex")
        projected = queries_seen + batch_size
        if self.is_calibrated:
            return self._choose_calibrated(projected)
        if batch_size > 1 or projected >= self.config.index_reuse_threshold:
            return PlanDecision(
                "gct", f"repeated traffic ({projected} queries so far) — "
                       "one index build amortises across the workload")
        if num_edges <= self.config.small_graph_edges:
            return PlanDecision(
                "baseline", f"one-shot query on a small graph "
                            f"({num_edges} edges) — a plain online scan "
                            "beats any index build")
        return PlanDecision(
            "bound", f"one-shot query on a large graph ({num_edges} edges) "
                     "— pruned online search avoids an index build")

    def _choose_calibrated(self, projected: int) -> PlanDecision:
        """The measured break-even decision (both costs observed)."""
        method, online_cost = self._measured_online()
        break_even = self.break_even_queries()
        build = self.measured_build_seconds()
        if break_even is None:
            return PlanDecision(
                method, f"calibrated: measured {method} query "
                        f"({online_cost:.4f}s) is not beaten by the "
                        "marginal index query — no build pays off")
        if projected >= break_even:
            return PlanDecision(
                "gct", f"calibrated: {projected} queries ≥ measured "
                       f"break-even {break_even} — the {build:.4f}s build "
                       "amortises")
        return PlanDecision(
            method, f"calibrated: {projected} queries < measured "
                    f"break-even {break_even} — {method} at "
                    f"{online_cost:.4f}s/query stays cheaper")
