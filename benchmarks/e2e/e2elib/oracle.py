"""In-process oracle: the answers the program must give.

A fresh in-memory index is built from the benchmark's own edge lists
(never from the store, never incrementally), so the answers checked
against it went through none of the code under measurement: not the
store, not the binary format, not the incremental repair, not the wire.
The canonical ranking contract makes the comparison exact: identical
vertex list, identical scores.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

Answer = Tuple[List[int], List[int]]


def build_graph(n: int, edges: Sequence[Tuple[int, int]]):
    from repro import Graph
    return Graph(vertices=range(n), edges=edges)


def answers(n: int, edges: Sequence[Tuple[int, int]],
            queries: Iterable[Tuple[int, int]]) -> Dict[Tuple[int, int], Answer]:
    """Expected ``(vertices, scores)`` per ``(k, r)`` for one graph."""
    from repro import QueryEngine
    engine = QueryEngine(build_graph(n, edges))
    expected = {}
    for k, r in sorted(set(queries)):
        result = engine.top_r(k, r, method="gct", collect_contexts=False)
        expected[(k, r)] = (list(result.vertices), list(result.scores))
    return expected


def matches(expected: Answer, vertices: object, scores: object) -> bool:
    return list(expected[0]) == vertices and list(expected[1]) == scores
