"""Snapshot-isolated serving: persistent store, snapshots, live updates.

The service layer turns the :class:`~repro.engine.QueryEngine`'s
machinery into something a long-running process can actually operate:

* :mod:`repro.service.store` — :class:`IndexStore`, a versioned
  on-disk store of index artifacts keyed by graph content hash, so
  restarts skip every index build (warm start);
* :mod:`repro.service.snapshot` — :class:`Snapshot`, an immutable
  (graph, GCT index, score cache) unit that serves concurrent reads
  lock-free;
* :mod:`repro.service.updates` — edge-batch application with
  affected-vertex repair and *fine-grained* cache invalidation (only
  thresholds whose scores changed are dropped);
* :mod:`repro.service.service` — :class:`DiversityService`, the front
  that swaps snapshots atomically under a single writer lock.

All answers uphold the canonical ranking contract of
:mod:`repro.core.results` — a warm-started or live-updated service is
rank-identical to a cold engine on the same graph.
"""

from repro.service.store import (
    ARTIFACT_NAMES,
    CompactionReport,
    ContentKey,
    IndexStore,
    StoredIndexes,
    StoreVersion,
    graph_fingerprint,
)
from repro.service.snapshot import Snapshot
from repro.service.updates import (
    EdgeUpdate,
    UpdateReport,
    apply_batch,
    delete,
    insert,
)
from repro.service.service import DiversityService

__all__ = [
    "ARTIFACT_NAMES",
    "CompactionReport",
    "ContentKey",
    "DiversityService",
    "EdgeUpdate",
    "IndexStore",
    "Snapshot",
    "StoreVersion",
    "StoredIndexes",
    "UpdateReport",
    "apply_batch",
    "delete",
    "graph_fingerprint",
    "insert",
]
