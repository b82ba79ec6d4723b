"""The live-update path: edge batches → the next snapshot, incrementally.

This is the library's one way to maintain an index under edge updates —
the paper's Section 5.3 "Remarks" note that the index "can support
efficient updates in dynamic graphs" and leave it as future work.
Whole-engine ``invalidate()`` throws away every index and every cached
ranking on any mutation; :func:`apply_batch` re-decomposes only the ego
networks that actually changed.

Locality argument (why the affected set is exactly right): inserting or
deleting edge ``(u, v)`` changes

* ``G_N(w)`` for every common neighbour ``w ∈ N(u) ∩ N(v)`` — the edge
  ``(u, v)`` appears/disappears inside those ego-networks;
* ``G_N(u)`` — vertex ``v`` (dis)appears together with its edges to
  ``N(u) ∩ N(v)``; symmetrically ``G_N(v)``.

No other ego-network gains or loses a vertex or an edge, so rebuilding
the forests of ``{u, v} ∪ (N(u) ∩ N(v))`` (common neighbours taken
while the edge is present) and their GCT entries restores exact index
state — every other GCT record is carried into the next snapshot
untouched.

Fine-grained cache invalidation falls out of the same locality: a
memoised ranking (the positive rows at threshold ``k``, in canonical
order) is still exact after the batch iff no affected vertex's score
*at that* ``k`` changed.  That holds when the batch adds vertices too:
a newcomer takes the highest position, is itself affected, and only
enters a memo entry with a positive score — a change at its ``k``; the
zero tail of an answer comes from the successor index, never the memo.
The update path compares each affected vertex's old and new score
profiles and drops exactly the thresholds where they differ, so a
service whose traffic hammers ``k=4`` keeps its hot cache through an
update that only shifted scores at ``k=2``.

Examples
--------
>>> from repro.graph.graph import Graph
>>> from repro.service.snapshot import Snapshot
>>> snap = Snapshot.build(Graph(edges=[(0, 1), (1, 2), (0, 2)]))
>>> nxt, report = apply_batch(snap, [insert(2, 3)])
>>> sorted(report.affected_vertices)
[2, 3]
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple, Union

from repro.errors import GraphError, InvalidParameterError
from repro.graph.graph import Graph, Vertex
from repro.core.diversity import profile_from_weights
from repro.core.tsd import ForestEdge
from repro.core.gct import GCTIndex, assemble_from_forest
from repro.service.snapshot import ScoreEntry, Snapshot


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge mutation: ``op`` is ``"insert"`` or ``"delete"``."""

    op: str
    u: Vertex
    v: Vertex

    def __post_init__(self) -> None:
        if self.op not in ("insert", "delete"):
            raise InvalidParameterError(
                f"unknown update op {self.op!r}; expected 'insert' or "
                "'delete'")
        # ``is`` too: one NaN object is not equal to itself.
        if self.u is self.v or self.u == self.v:
            raise GraphError(
                f"self-loop update on {self.u!r} is not allowed")


def insert(u: Vertex, v: Vertex) -> EdgeUpdate:
    """An edge-insertion update."""
    return EdgeUpdate("insert", u, v)


def delete(u: Vertex, v: Vertex) -> EdgeUpdate:
    """An edge-deletion update."""
    return EdgeUpdate("delete", u, v)


#: Updates may also be given as plain ``(op, u, v)`` tuples.
UpdateLike = Union[EdgeUpdate, Tuple[str, Vertex, Vertex]]


@dataclass(frozen=True)
class UpdateReport:
    """What one batch actually touched — the fine-grained ledger.

    Attributes
    ----------
    num_updates:
        Edge mutations applied.
    affected_vertices:
        Vertices whose ego-network changed (forest + GCT entry rebuilt).
    rebuilt_forests:
        Ego forests re-decomposed (``len(affected_vertices)``: an edge
        update never removes a vertex).
    invalidated_thresholds:
        Cached ``k`` entries dropped because an affected vertex's score
        at that ``k`` changed.
    retained_thresholds:
        Cached ``k`` entries that survived into the next snapshot.
    vertex_set_changed:
        Whether the batch added a vertex.
    seconds:
        Wall-clock time of the whole batch application.
    """

    num_updates: int
    affected_vertices: Tuple[Vertex, ...]
    rebuilt_forests: int
    invalidated_thresholds: Tuple[int, ...]
    retained_thresholds: Tuple[int, ...]
    vertex_set_changed: bool
    seconds: float

    def summary(self) -> str:
        """One-line human summary for service logs."""
        return (f"applied {self.num_updates} update(s): "
                f"{len(self.affected_vertices)} affected vertices, "
                f"{self.rebuilt_forests} forests rebuilt, "
                f"cache dropped k={list(self.invalidated_thresholds) or '-'} "
                f"kept k={list(self.retained_thresholds) or '-'} "
                f"in {self.seconds:.4f}s")


def _coerce(update: UpdateLike) -> EdgeUpdate:
    if isinstance(update, EdgeUpdate):
        return update
    op, u, v = update
    return EdgeUpdate(op, u, v)


def _affected_by(graph: Graph, u: Vertex, v: Vertex) -> Set[Vertex]:
    """``{u, v} ∪ (N(u) ∩ N(v))`` — the exact ego-change set."""
    common = (graph.common_neighbors(u, v)
              if u in graph and v in graph else set())
    return {u, v} | common


def _old_profile(snapshot: Snapshot, v: Vertex) -> Dict[int, int]:
    """Pre-update score profile of ``v`` ({} for vertices not indexed)."""
    gct = snapshot.gct
    return gct.score_profile(v) if v in gct else {}


def apply_batch(snapshot: Snapshot, updates: Sequence[UpdateLike]
                ) -> Tuple[Snapshot, UpdateReport]:
    """Apply an edge batch to a snapshot, producing the next snapshot.

    The input snapshot is never mutated — concurrent readers keep
    serving from it.  The returned snapshot carries:

    * a graph with every update applied (in order): a
      :meth:`~repro.graph.graph.Graph.branch` of the input's, sharing
      every adjacency set the batch did not touch;
    * its store key (:attr:`Snapshot.content_key`), derived from the
      input's per-vertex segments when the input's key was computed;
    * a GCT index with only the affected vertices' entries rebuilt,
      assembled from their repaired ego forests;
    * exactly the cache entries whose thresholds survived invalidation.

    The affected-vertex ego repair runs through
    :func:`repro.build.repair_forests`, which plans on the repair
    volume: a batch touching many hubs is a miniature index build and
    fans out to a worker pool the same way, a small one stays
    in-process.  The repaired forests are byte-identical in every mode.
    """
    start = time.perf_counter()
    batch = [_coerce(update) for update in updates]
    # A branch, not a copy: only the batch endpoints' adjacency sets are
    # duplicated (they are the only ones the batch mutates); every other
    # set is shared with the input snapshot's graph, which stays intact.
    graph = snapshot.graph_view.branch(
        end for update in batch for end in (update.u, update.v))

    # --- 1. mutate the private branch, collecting the affected set ----
    affected: Set[Vertex] = set()
    for update in batch:
        if update.op == "insert":
            if graph.has_edge(update.u, update.v):
                raise GraphError(
                    f"edge ({update.u!r}, {update.v!r}) already present")
            graph.add_edge(update.u, update.v)
            affected |= _affected_by(graph, update.u, update.v)
        else:
            # Common neighbours are taken while the edge's triangles
            # still exist.
            affected |= _affected_by(graph, update.u, update.v)
            graph.remove_edge(update.u, update.v)
    # Edge updates only ever append vertices, so no position shifts.
    order = list(graph.vertices())
    position = {v: i for i, v in enumerate(order)}
    vertex_set_changed = len(order) != snapshot.num_vertices

    # The next store key re-encodes only the segments the batch changed
    # (each edge's lower-positioned endpoint's) when this snapshot's key
    # was computed; otherwise the next snapshot computes its own on use.
    content = snapshot.content
    if content is not None:
        content = content.successor(
            graph, order, position,
            [min(update.u, update.v, key=position.__getitem__)
             for update in batch])

    # --- 2. capture pre-update profiles of the affected vertices ------
    old_profiles = {v: _old_profile(snapshot, v) for v in affected}

    # --- 3. affected-vertex repair: re-decompose only changed egos ----
    # Everything from here to the next indexes costs the affected
    # records, not the index: the repaired entries go in graph-position
    # order (what keeps successor dicts in insertion order) and every
    # other record is shared with the input snapshot's indexes.
    from repro.build import repair_forests
    targets = sorted(affected, key=position.__getitem__)
    repaired: Dict[Vertex, List[ForestEdge]] = repair_forests(
        graph, targets, labels=order, ids=position)
    new_forests = {w: repaired[w] for w in targets}
    new_profiles: Dict[Vertex, Dict[int, int]] = {
        w: profile_from_weights(((a, b), weight)
                                for a, b, weight in forest)
        for w, forest in new_forests.items()
    }

    new_gct: GCTIndex = snapshot.gct.successor(
        order,
        {w: assemble_from_forest(forest, position)
         for w, forest in new_forests.items()})

    # --- 4. fine-grained cache invalidation ---------------------------
    changed_ks: Set[int] = set()
    for w in affected:
        old_profile = old_profiles[w]
        new_profile = new_profiles[w]
        for k in sorted(set(old_profile) | set(new_profile)):
            if old_profile.get(k, 0) != new_profile.get(k, 0):
                changed_ks.add(k)

    old_entries = snapshot.score_entries()
    invalidated = {k for k in old_entries if k in changed_ks}
    retained: Dict[int, ScoreEntry] = {
        k: entry for k, entry in old_entries.items()
        if k not in invalidated}

    # The graph is this call's private branch and is not touched again,
    # so the next snapshot takes it over instead of copying it.
    next_snapshot = Snapshot.adopting(
        graph, gct=new_gct, scores=retained, version=snapshot.version + 1,
        key=None, content=content)
    report = UpdateReport(
        num_updates=len(batch),
        affected_vertices=tuple(sorted(affected, key=repr)),
        rebuilt_forests=len(new_forests),
        invalidated_thresholds=tuple(sorted(invalidated)),
        retained_thresholds=tuple(sorted(retained)),
        vertex_set_changed=vertex_set_changed,
        seconds=time.perf_counter() - start,
    )
    return next_snapshot, report
