"""Batched top-r execution: plan once, share work across items.

A batch ``[(k1, r1), (k2, r2), ...]`` is the engine's highest-leverage
workload: the planner decides *once* for the whole batch (a batch is by
definition repeated traffic, so it almost always lands on the index),
and items that share a threshold ``k`` reuse one memoised ranking (the
threshold's positive rows in canonical order) from the engine's LRU
cache — the second ``(k, r')`` at the same ``k`` is a list slice.

Items are executed grouped by ``k`` so a batch with more distinct
thresholds than the cache holds cannot thrash the LRU, but results are
returned in input order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.results import SearchResult


def execute_batch(engine, queries: Sequence[Tuple[int, int]],
                  method: str = "auto",
                  collect_contexts: bool = True) -> List[SearchResult]:
    """Answer every ``(k, r)`` in ``queries``; results in input order.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.engine.facade.QueryEngine`.
    queries:
        ``(k, r)`` pairs; validated up front so a bad item fails the
        batch before any work is done.
    method:
        ``"auto"`` plans once for the whole batch; explicit names
        force every item through that method.
    """
    queries = list(queries)
    for k, r in queries:
        engine._check_query(k, r)
    if not queries:
        return []
    resolved = engine._resolve(method, batch_size=len(queries))
    # Group same-k items (stable within a threshold) so each ranking
    # is computed at most once even when distinct thresholds exceed the
    # cache capacity; original positions restore the input order.
    order = sorted(range(len(queries)), key=lambda i: queries[i][0])
    results: List[SearchResult] = [None] * len(queries)  # type: ignore[list-item]
    for i in order:
        k, r = queries[i]
        results[i] = engine._serve(k, r, resolved, collect_contexts)
    engine._queries += len(queries)
    engine._batches += 1
    return results
