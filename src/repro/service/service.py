""":class:`DiversityService`: snapshot-isolated serving with live updates.

The service is the deployable front over the paper's machinery: it
answers ``top_r`` / ``score`` / ``top_r_many`` from an immutable
:class:`~repro.service.snapshot.Snapshot` (readers never lock), applies
edge batches through the affected-vertex repair of
:mod:`repro.service.updates` (writers build the *next* snapshot, then
atomically swap it in), and keeps its GCT index warm across restarts
through the :class:`~repro.service.store.IndexStore` — the one artifact
it serves from, and so the one it persists.

Concurrency model
-----------------
* **Reads are lock-free.**  Each query captures the current snapshot
  reference once (an atomic load) and serves entirely from it; a swap
  mid-query is invisible to the reader.
* **Writes are serialised.**  ``apply_updates`` holds the single writer
  lock while it builds the next snapshot — readers keep answering from
  the current one the whole time — and publishes it with one reference
  assignment.

Examples
--------
>>> from repro.graph.graph import Graph
>>> service = DiversityService.start(Graph(edges=[(0, 1), (1, 2), (0, 2)]))
>>> service.top_r(3, 1).vertices
[0]
>>> report = service.apply_updates([("insert", 2, 3)])
>>> report.num_updates
1
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import StoreError
from repro.graph.graph import Graph, Vertex
from repro.core.results import SearchResult
from repro.service.snapshot import Snapshot
from repro.service.store import ContentKey, IndexStore, StoreVersion
from repro.service.updates import UpdateLike, UpdateReport, apply_batch

#: How many of the latest :class:`UpdateReport` ledgers a service keeps
#: (each holds its batch's affected-vertex tuple); the batch and update
#: *counts* are running totals and stay exact past the window.
RECENT_REPORTS = 64


class DiversityService:
    """Concurrent structural-diversity serving over one graph.

    Build with :meth:`start` (warm from a store when possible, cold
    otherwise), :meth:`warm` (store required), or :meth:`cold`.
    """

    def __init__(self, snapshot: Snapshot,
                 store: Optional[IndexStore] = None) -> None:
        self._snapshot = snapshot
        self._store = store
        self._write_lock = threading.Lock()
        # Counters get their own lock: the *serving* path stays
        # lock-free (one atomic snapshot-reference read), but a bare
        # `+=` would lose increments under the very concurrency this
        # class advertises, making the stats ledger undercount.
        self._stats_lock = threading.Lock()
        self._queries = 0
        self._updates_applied = 0
        self._update_batches = 0
        self._reports: Deque[UpdateReport] = deque(maxlen=RECENT_REPORTS)
        self.warm_started = False
        #: Called as ``listener(updates, report, version)`` inside the
        #: writer lock, right after each batch publishes.  The server
        #: router points this at the replication
        #: :class:`~repro.replication.feed.UpdateFeed` — invoking it
        #: under the lock is what guarantees feed order equals apply
        #: order when concurrent writers hit the same graph.
        self.update_listener: Optional[
            Callable[[Sequence[UpdateLike], UpdateReport, Optional[int]],
                     None]] = None

    def _count_queries(self, n: int) -> None:
        with self._stats_lock:
            self._queries += n

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def start(cls, graph: Graph,
              store: Optional[IndexStore] = None) -> "DiversityService":
        """Serve ``graph``, warm when the store already knows it.

        With a store: a stored GCT for this graph's content is loaded
        (zero index builds); otherwise the service cold-builds once —
        through the :mod:`repro.build` pipeline — and persists the GCT
        so the *next* start is warm.  The graph is hashed once, and the
        snapshot keeps the key for its update batches to derive theirs
        from.
        """
        if store is None:
            return cls.cold(graph)
        content = ContentKey.of(graph)
        if store.has(graph, key=content.digest) and "gct" in store.current(
                graph, key=content.digest).artifacts:
            return cls.warm(graph, store, content=content)
        return cls.cold(graph, store=store, content=content)

    @classmethod
    def warm(cls, graph: Graph, store: IndexStore, *,
             content: Optional[ContentKey] = None) -> "DiversityService":
        """Serve from the stored GCT only — no index builds at all.

        Only the current version's ``gct`` artifact is opened; any other
        artifact a record names (``tsd``/``hybrid`` persisted through
        :meth:`~repro.engine.QueryEngine.persist`, or an older release's
        ``scores``) is left unread.  ``content`` is the graph's
        :class:`~repro.service.store.ContentKey` when the caller already
        computed it (otherwise this hashes the graph).  Raises
        :class:`~repro.errors.StoreError` when the store has no lineage
        for this graph's content, or its current version has no GCT.
        """
        content = content or ContentKey.of(graph)
        loaded = store.load(graph, names=["gct"], key=content.digest)
        if loaded.gct is None:
            raise StoreError(
                f"stored version v{loaded.version.version} of graph "
                f"{loaded.version.key[:12]}… has no gct artifact")
        snapshot = Snapshot(graph, gct=loaded.gct,
                            version=loaded.version.version,
                            key=loaded.version.key, content=content)
        service = cls(snapshot, store=store)
        service.warm_started = True
        return service

    @classmethod
    def cold(cls, graph: Graph,
             store: Optional[IndexStore] = None, *,
             content: Optional[ContentKey] = None) -> "DiversityService":
        """Build the snapshot from scratch; persist it when given a store
        (``content`` as in :meth:`warm`)."""
        snapshot = Snapshot.build(graph, content=content)
        service = cls(snapshot, store=store)
        if store is not None:
            version = store.put(graph, gct=snapshot.gct,
                                key=snapshot.content_key)
            snapshot.version = version.version
            snapshot.key = version.key
        return service

    # ------------------------------------------------------------------
    # Reads: lock-free, always from one consistent snapshot
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> Snapshot:
        """The currently published snapshot (atomic reference read)."""
        return self._snapshot

    @property
    def store(self) -> Optional[IndexStore]:
        """The backing store, when the service persists its artifacts."""
        return self._store

    def top_r(self, k: int, r: int,
              collect_contexts: bool = True) -> SearchResult:
        """Canonical top-r answer from the current snapshot."""
        snapshot = self._snapshot  # capture once: swap-safe
        self._count_queries(1)
        return snapshot.top_r(k, r, collect_contexts=collect_contexts)

    def top_r_many(self, queries: Sequence[Tuple[int, int]],
                   collect_contexts: bool = True) -> List[SearchResult]:
        """A whole batch answered from one consistent snapshot."""
        snapshot = self._snapshot
        self._count_queries(len(queries))
        return snapshot.top_r_many(queries, collect_contexts=collect_contexts)

    def score(self, v: Vertex, k: int) -> int:
        """Point lookup from the current snapshot."""
        snapshot = self._snapshot
        self._count_queries(1)
        return snapshot.score(v, k)

    def contexts(self, v: Vertex, k: int) -> List[Set[Vertex]]:
        """Social contexts from the current snapshot."""
        snapshot = self._snapshot
        self._count_queries(1)
        return snapshot.contexts(v, k)

    # ------------------------------------------------------------------
    # Writes: build next snapshot, persist, swap
    # ------------------------------------------------------------------
    def apply_updates(self, updates: Sequence[UpdateLike]) -> UpdateReport:
        """Apply an edge batch and publish the next snapshot.

        Readers keep serving the previous snapshot until the swap; the
        store (when present) receives the patched GCT as a new version
        linked to the previous one.
        """
        with self._write_lock:
            current = self._snapshot
            next_snapshot, report = apply_batch(current, updates)
            if self._store is not None:
                previous = self._version_of(current)
                # graph_view: store writes only read the graph, and
                # Snapshot.graph would charge a full defensive copy per
                # update batch.  The key apply_batch derived from the
                # batch's segments spares the store a full re-hash, and
                # changed_vertices lets it patch only the affected
                # records instead of rewriting the artifact.
                version = self._store.put(
                    next_snapshot.graph_view, gct=next_snapshot.gct,
                    previous=previous,
                    changed_vertices=report.affected_vertices,
                    key=next_snapshot.content_key)
                next_snapshot.version = version.version
                next_snapshot.key = version.key
            self._snapshot = next_snapshot  # atomic publish
            with self._stats_lock:
                self._updates_applied += report.num_updates
                self._update_batches += 1
                self._reports.append(report)
            if self.update_listener is not None:
                self.update_listener(updates, report, next_snapshot.version)
        return report

    def _version_of(self, snapshot: Snapshot) -> Optional[StoreVersion]:
        if snapshot.key is None:
            return None
        try:
            # key= skips re-fingerprinting (and graph_view skips the
            # defensive copy Snapshot.graph would make).
            return self._store.current(snapshot.graph_view, key=snapshot.key)
        except StoreError:
            # Expected: the lineage was compacted away (or never
            # persisted) — link-less re-version.  Anything else (I/O
            # failure, corrupt manifest) must propagate, not silently
            # drop the cross-lineage parent link.
            return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def update_reports(self) -> List[UpdateReport]:
        """The latest batches' ledgers (at most :data:`RECENT_REPORTS`),
        oldest first; ``stats_payload()["update_batches"]`` counts all."""
        with self._stats_lock:
            return list(self._reports)

    def stats_payload(self) -> Dict[str, object]:
        """JSON-able service counters (the HTTP ``/stats`` building block)."""
        snapshot = self._snapshot
        with self._stats_lock:
            queries = self._queries
            updates_applied = self._updates_applied
            update_batches = self._update_batches
        return {
            "version": snapshot.version,
            "vertices": snapshot.num_vertices,
            "edges": snapshot.num_edges,
            "warm_started": self.warm_started,
            "queries": queries,
            "updates_applied": updates_applied,
            "update_batches": update_batches,
            "cached_thresholds": snapshot.cached_thresholds(),
        }

    def stats_summary(self) -> str:
        """Multi-line human-readable service report."""
        stats = self.stats_payload()
        lines = [
            f"snapshot:          v{stats['version']} "
            f"(|V|={stats['vertices']}, "
            f"|E|={stats['edges']})",
            f"started:           {'warm (from store)' if self.warm_started else 'cold (built)'}",
            f"queries served:    {stats['queries']}",
            f"updates applied:   {stats['updates_applied']} "
            f"({stats['update_batches']} batches)",
            f"cached thresholds: {stats['cached_thresholds'] or '-'}",
        ]
        reports = self.update_reports()
        if reports:
            lines.append("update batches:")
            first = stats["update_batches"] - len(reports)
            lines.extend(f"  [{i}] {report.summary()}"
                         for i, report in enumerate(reports, first))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DiversityService(snapshot=v{self._snapshot.version}, "
                f"queries={self._queries}, "
                f"updates={self._updates_applied}, "
                f"store={'yes' if self._store is not None else 'no'})")
