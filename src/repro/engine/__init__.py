"""Unified query engine: planner, caches, and batched execution.

One facade (:class:`QueryEngine`) over the five equivalent search
methods, for services answering repeated ``top_r``/``score`` traffic:

* :mod:`repro.engine.facade` — the :class:`QueryEngine` facade owning
  the graph and its lazily built indexes;
* :mod:`repro.engine.planner` — the cost-based method chooser
  (:class:`QueryPlanner`, :class:`EngineConfig`);
* :mod:`repro.engine.cache` — the per-``k`` LRU of ranked positive
  rows (:class:`ScoreMapCache`);
* :mod:`repro.engine.batch` — order-preserving batch execution.

All methods agree on answers by the canonical ranking contract
(:mod:`repro.core.results`), which is what makes the planner's choice a
pure cost decision.
"""

from repro.engine.cache import ScoreMapCache
from repro.engine.planner import EngineConfig, PlanDecision, QueryPlanner
from repro.engine.facade import ENGINE_METHODS, EngineStats, QueryEngine
from repro.engine.batch import execute_batch

__all__ = [
    "ENGINE_METHODS",
    "EngineConfig",
    "EngineStats",
    "PlanDecision",
    "QueryEngine",
    "QueryPlanner",
    "ScoreMapCache",
    "execute_batch",
]
