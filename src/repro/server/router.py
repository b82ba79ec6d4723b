""":class:`DiversityRouter`: many named graphs in one serving process.

One production process rarely serves a single graph — a deployment
hosts a fleet of social networks, each with its own update stream and
query traffic.  The router holds a registry of named
:class:`~repro.service.DiversityService` instances over one shared
:class:`~repro.service.IndexStore`, so every graph warm-starts from
(and persists to) the same artifact catalogue.

Concurrency model
-----------------
* **Reads are lock-free.**  Routing a query is one dict lookup (atomic
  in CPython) followed by the service's own lock-free snapshot read; no
  router-level lock sits on the query path.
* **Registration is serialised.**  ``add_graph`` / ``remove_graph``
  hold the registry lock; services are published into the registry
  with a single dict assignment.
* **Writes stay per-graph single-writer.**  Each service serialises
  its own updates; updates to different graphs proceed in parallel.

Examples
--------
>>> from repro.graph.graph import Graph
>>> router = DiversityRouter()
>>> _ = router.add_graph("triangle", Graph(edges=[(0, 1), (1, 2), (0, 2)]))
>>> router.top_r("triangle", 3, 1).vertices
[0]
>>> router.graphs()
['triangle']
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import InvalidParameterError, StoreError, UnknownGraphError
from repro.graph.graph import Graph, Vertex
from repro.core.results import SearchResult
from repro.replication.feed import UpdateFeed, WireUpdate
from repro.service.service import DiversityService
from repro.service.store import CompactionReport, IndexStore
from repro.service.updates import UpdateLike, UpdateReport

#: Graph names must be URL-path-safe: they appear in ``/graphs/<name>/…``.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _wire_updates(updates: Sequence[UpdateLike]) -> List[WireUpdate]:
    """Normalise applied updates to wire shape ``(op, u, v)`` so feed
    consumers can POST them back verbatim."""
    shaped: List[WireUpdate] = []
    for update in updates:
        if hasattr(update, "op"):
            shaped.append((update.op, update.u, update.v))
        else:
            op, u, v = update
            shaped.append((op, u, v))
    return shaped


def _report_payload(report: UpdateReport) -> Dict[str, object]:
    """The JSON-able facts of one batch, as the updates endpoint words
    them (feed entries carry the same keys the POST response did)."""
    return {
        "num_updates": report.num_updates,
        "affected_vertices": sorted(report.affected_vertices, key=repr),
        "rebuilt_forests": report.rebuilt_forests,
        "invalidated_thresholds": list(report.invalidated_thresholds),
        "retained_thresholds": list(report.retained_thresholds),
        "vertex_set_changed": report.vertex_set_changed,
        "seconds": report.seconds,
    }


class DiversityRouter:
    """Route queries and updates to per-graph diversity services.

    Parameters
    ----------
    store:
        Optional shared :class:`~repro.service.IndexStore` (or a path
        to one).  Every registered graph warm-starts from it when its
        content is already catalogued and persists its artifacts into
        it otherwise.
    build_jobs:
        Worker request for every cold build and update repair of every
        registered service (see :meth:`repro.build.BuildPlan.decide`;
        ``0`` auto-plans, ``None`` keeps the legacy per-vertex build).
        One router-level knob because a fleet shares one machine — the
        plan clamps to the hardware budget either way.
    """

    def __init__(self, store: Optional[IndexStore] = None,
                 build_jobs: Optional[int] = 0) -> None:
        if store is not None and not isinstance(store, IndexStore):
            store = IndexStore(store)
        self._store = store
        self.build_jobs = build_jobs
        self._services: Dict[str, DiversityService] = {}
        self._pending: Set[str] = set()  # names mid-registration
        self._registry_lock = threading.Lock()
        #: Journal of applied update batches per graph, populated by
        #: each service's ``update_listener`` *inside its writer lock*
        #: (feed order == apply order) and served over
        #: ``GET /graphs/<name>/updates/feed`` for followers, respawned
        #: workers, and shard-move targets to replay.
        self.feed = UpdateFeed()

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional[IndexStore]:
        """The shared artifact store, when the router persists."""
        return self._store

    def add_graph(self, name: str, graph: Graph) -> DiversityService:
        """Register ``graph`` under ``name`` and start serving it.

        The service warm-starts when the shared store already knows
        this graph's content; otherwise it cold-builds once and
        persists.  Raises
        :class:`~repro.errors.InvalidParameterError` on a malformed or
        already-taken name.

        The (possibly expensive) index build runs *outside* the
        registry lock — the name is reserved first, so concurrent
        registrations of different graphs build in parallel and never
        block reads, removals, or each other.
        """
        if not _NAME_PATTERN.match(name or ""):
            raise InvalidParameterError(
                f"bad graph name {name!r}: use letters, digits, '.', '_' "
                "or '-' (it becomes a URL path segment)")
        with self._registry_lock:
            if name in self._services or name in self._pending:
                raise InvalidParameterError(
                    f"a graph named {name!r} is already registered")
            self._pending.add(name)  # reserve while building
        try:
            service = DiversityService.start(graph, store=self._store,
                                             build_jobs=self.build_jobs)
        except BaseException:
            with self._registry_lock:
                self._pending.discard(name)
            raise
        # Hook the feed before publishing: no update can apply through
        # the router until the service is in the registry, so every
        # routed batch is journaled.
        service.update_listener = self._feed_listener(name)
        with self._registry_lock:
            self._pending.discard(name)
            self._services[name] = service  # atomic publish
        return service

    def _feed_listener(self, name: str):
        """A per-graph hook appending applied batches to :attr:`feed`.

        The service invokes it under its writer lock, right after the
        snapshot publish — concurrent writers on one graph therefore
        journal in exactly the order their batches applied.
        """
        def on_applied(updates: Sequence[UpdateLike],
                       report: UpdateReport,
                       version: Optional[int]) -> None:
            self.feed.append(name, _wire_updates(updates),
                             version=version,
                             report=_report_payload(report))
        return on_applied

    def remove_graph(self, name: str) -> DiversityService:
        """Unregister a graph; in-flight queries on its service finish
        against the snapshot they already captured."""
        with self._registry_lock:
            try:
                service = self._services.pop(name)
            except KeyError:
                raise UnknownGraphError(name) from None
        # Unhook + forget the journal: a standalone re-use of the
        # service must not keep appending to a dropped graph's feed.
        service.update_listener = None
        self.feed.drop(name)
        return service

    def graphs(self) -> List[str]:
        """Registered graph names, sorted.

        Takes the registry lock: iterating the live dict could race a
        concurrent registration (``RuntimeError: dictionary changed
        size``).  Single-name lookups (:meth:`service`) stay lock-free.
        """
        with self._registry_lock:
            return sorted(self._services)

    def _registry_snapshot(self) -> Dict[str, DiversityService]:
        with self._registry_lock:
            return dict(self._services)

    def service(self, name: str) -> DiversityService:
        """The service for one graph name.  Raises
        :class:`~repro.errors.UnknownGraphError` when absent."""
        service = self._services.get(name)
        if service is None:
            raise UnknownGraphError(name)
        return service

    def __len__(self) -> int:
        return len(self._services)

    def __contains__(self, name: str) -> bool:
        return name in self._services

    # ------------------------------------------------------------------
    # Routed reads (lock-free: dict lookup + snapshot read)
    # ------------------------------------------------------------------
    def top_r(self, name: str, k: int, r: int,
              collect_contexts: bool = True) -> SearchResult:
        """Canonical top-r answer from one named graph."""
        return self.service(name).top_r(k, r,
                                        collect_contexts=collect_contexts)

    def top_r_many(self, name: str, queries: Sequence[Tuple[int, int]],
                   collect_contexts: bool = True) -> List[SearchResult]:
        """A batch answered from one named graph's consistent snapshot."""
        return self.service(name).top_r_many(
            queries, collect_contexts=collect_contexts)

    def score(self, name: str, v: Vertex, k: int) -> int:
        """Point lookup on one named graph."""
        return self.service(name).score(v, k)

    def contexts(self, name: str, v: Vertex, k: int) -> List[Set[Vertex]]:
        """Social contexts on one named graph."""
        return self.service(name).contexts(v, k)

    # ------------------------------------------------------------------
    # Routed writes
    # ------------------------------------------------------------------
    def apply_updates(self, name: str,
                      updates: Sequence[UpdateLike]) -> UpdateReport:
        """Apply an edge batch to one named graph (its single writer)."""
        return self.service(name).apply_updates(updates)

    def compact(self) -> CompactionReport:
        """Compact the shared store (see :meth:`IndexStore.compact`).

        Safe while serving: every registered service's current lineage
        key is passed as a protected head — even one another graph's
        update stream has superseded (two names can share content, and
        only one of them may have moved on).
        """
        if self._store is None:
            raise StoreError("this router has no store to compact")
        live = {service.snapshot.key
                for service in self._registry_snapshot().values()
                if service.snapshot.key is not None}
        return self._store.compact(keep=live)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def graphs_payload(self) -> List[Dict[str, object]]:
        """Per-graph stats keyed by name (the ``GET /graphs`` body)."""
        return [dict(service.stats_payload(), name=name)
                for name, service
                in sorted(self._registry_snapshot().items())]

    def stats_payload(self) -> Dict[str, object]:
        """JSON-able fleet report (the HTTP ``/stats`` response body)."""
        graphs = {name: service.stats_payload()
                  for name, service
                  in sorted(self._registry_snapshot().items())}
        payload: Dict[str, object] = {
            "graphs": graphs,
            "queries_total": sum(entry["queries"]
                                 for entry in graphs.values()),
            "updates_total": sum(entry["updates_applied"]
                                 for entry in graphs.values()),
        }
        if self._store is not None:
            payload["store"] = {"root": str(self._store.root),
                                "keys": len(self._store.keys())}
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DiversityRouter(graphs={self.graphs()}, "
                f"store={'yes' if self._store is not None else 'no'})")
