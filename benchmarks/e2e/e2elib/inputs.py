"""Seeded inputs: graphs, query plans and update plans.

Graph ``i`` of a run on seed ``S`` is the repository's own Holme–Kim
generator, ``powerlaw_cluster(n, 5, 0.5, seed=1000 * S + i)``: index
work is proportional to edges and triangles, so every workload fixes
``n`` (hence ``m = 15 + 5 (n - 6)`` exactly) and the triad probability
and lets the seed choose the topology, the order of the query plan and
the edges the update plan touches.  The program receives only the files
this module writes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

Edge = Tuple[int, int]
Update = Tuple[str, int, int]

ATTACH = 5
TRIAD_P = 0.5


def powerlaw_cluster_edges(n: int, seed: int) -> List[Edge]:
    """Edges of ``powerlaw_cluster(n, 5, 0.5, seed)`` on vertices ``0..n-1``."""
    from repro.datasets.synthetic import powerlaw_cluster
    graph = powerlaw_cluster(n, ATTACH, TRIAD_P, seed=seed)
    return [(min(u, v), max(u, v)) for u, v in graph.edges()]


def write_graph_file(path: Path, n: int, edges: Sequence[Edge]) -> Path:
    """One ``repro-graph`` JSON file: vertices in order, edges as pairs.

    The JSON form (not an edge list) because the store keys artifacts
    by vertex order *and* edges: only a file that fixes the vertex
    order lets the restarted program find the lineage its updates left.
    """
    payload = {"format": "repro-graph", "version": 1,
               "vertices": list(range(n)),
               "edges": [[u, v] for u, v in edges]}
    path.write_text(json.dumps(payload, separators=(",", ":")),
                    encoding="utf-8")
    return path


class EdgeModel:
    """The benchmark's own picture of one graph under the update plan."""

    def __init__(self, n: int, edges: Sequence[Edge]) -> None:
        self.n = n
        self.edges: List[Edge] = list(edges)
        self._adjacent: List[Set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            self._adjacent[u].add(v)
            self._adjacent[v].add(u)

    def _add(self, u: int, v: int) -> None:
        self.edges.append((u, v))
        self._adjacent[u].add(v)
        self._adjacent[v].add(u)

    def batch(self, rng: random.Random, deletes: int, inserts: int,
              grow: bool = False) -> List[Update]:
        """One applicable batch; the model advances as if it were applied.

        Deletes are drawn uniformly from the present edges — an edge
        drawn that way ends at a hub about as often as hubs own edges,
        so hub ego-networks are repaired at their natural rate — and
        inserts uniformly from the absent pairs.  No edge is touched
        twice in a batch and no endpoint is left with fewer than two
        neighbours (a vertex never disappears), so no operation can
        fail.  With ``grow`` the last insert attaches a brand-new
        vertex ``n``, which changes the vertex set.
        """
        updates: List[Update] = []
        touched: Set[Edge] = set()
        adjacent = self._adjacent
        while len(updates) < deletes:
            index = rng.randrange(len(self.edges))
            u, v = edge = self.edges[index]
            if edge in touched or len(adjacent[u]) < 3 or len(adjacent[v]) < 3:
                continue
            self.edges[index] = self.edges[-1]
            self.edges.pop()
            adjacent[u].discard(v)
            adjacent[v].discard(u)
            touched.add(edge)
            updates.append(("delete", u, v))
        if grow:
            inserts -= 1
        while len(updates) < deletes + inserts:
            u, v = sorted((rng.randrange(self.n), rng.randrange(self.n)))
            if u == v or v in adjacent[u] or (u, v) in touched:
                continue
            self._add(u, v)
            touched.add((u, v))
            updates.append(("insert", u, v))
        if grow:
            anchor = rng.randrange(self.n)
            adjacent.append(set())
            self._add(anchor, self.n)
            updates.append(("insert", anchor, self.n))
            self.n += 1
        return updates


class Fleet:
    """The graphs of one run, their files, and the plans over them."""

    def __init__(self, seed: int, count: int, n: int) -> None:
        self.n = n
        self.names = [f"g{i}" for i in range(count)]
        self.initial: Dict[str, List[Edge]] = {
            name: powerlaw_cluster_edges(n, 1000 * seed + i)
            for i, name in enumerate(self.names)}
        self.models = {name: EdgeModel(n, self.initial[name])
                       for name in self.names}
        self._plan_rng = random.Random(f"plan/{seed}")

    def update_batches(self, order: Sequence[str], grow_every: int = 0,
                       deletes: int = 4, inserts: int = 4,
                       ) -> List[Tuple[str, List[Update]]]:
        """One batch per entry of ``order``; the models advance.

        With ``grow_every = g`` batches ``0, g, 2g, ...`` of each graph
        attach a new vertex.
        """
        seen: Dict[str, int] = {}
        batches = []
        for name in order:
            turn = seen.get(name, 0)
            seen[name] = turn + 1
            grow = bool(grow_every) and turn % grow_every == 0
            batches.append((name, self.models[name].batch(
                self._plan_rng, deletes, inserts, grow)))
        return batches

    def query_cycle(self, pairs: Sequence[Tuple[int, int]],
                    shuffle: bool) -> List[Tuple[str, int, int]]:
        """Every (graph, k, r) once, in a seeded order if ``shuffle``."""
        cycle = [(name, k, r) for name in self.names for k, r in pairs]
        if shuffle:
            self._plan_rng.shuffle(cycle)
        return cycle

    def write_initial(self, directory: Path) -> Dict[str, Path]:
        return {name: write_graph_file(directory / f"{name}-initial.json",
                                       self.n, self.initial[name])
                for name in self.names}

    def write_current(self, directory: Path) -> Dict[str, Path]:
        """The graphs as the update plan left them (the restart inputs)."""
        return {name: write_graph_file(directory / f"{name}-updated.json",
                                       model.n, model.edges)
                for name, model in self.models.items()}
