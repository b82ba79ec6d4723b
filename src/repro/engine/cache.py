"""Per-``k`` LRU cache of ranked positive rows.

The parameter-free indexes answer *any* ``k``, but reading a threshold
off the GCT score postings still sorts its positive rows.  Production
traffic repeats thresholds heavily (a service typically exposes a
handful of ``k`` presets), so the engine memoises, per ``k``, the
vertices that score > 0 with their scores in canonical order
(descending score, ties by graph insertion order) — so a repeated
``top_r`` is a slice, not a sort.  The entry holds ``postings_k`` rows,
not one per vertex: a longer answer is completed with zero-score
vertices by :meth:`~repro.core.gct.GCTIndex.zero_filled`, and point
lookups go to the index (Lemma 3), not to the memo.

Entries are evicted least-recently-used once ``maxsize`` distinct
thresholds are live.  The cache is shared across single queries and
batch items alike; :meth:`hits`/:meth:`misses` feed the engine's
statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.graph.graph import Vertex

#: One cached threshold: its positive ``(vertex, score)`` rows, ranked.
CacheEntry = List[Tuple[Vertex, int]]


class ScoreMapCache:
    """LRU mapping ``k`` → ranked positive rows."""

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise InvalidParameterError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def maxsize(self) -> int:
        """Maximum number of distinct thresholds kept."""
        return self._maxsize

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, k: int) -> bool:
        return k in self._entries

    def cached_thresholds(self) -> List[int]:
        """Live thresholds, least-recently-used first."""
        return list(self._entries)

    def get(self, k: int) -> Optional[CacheEntry]:
        """The cached entry for ``k``, refreshing its recency; ``None``
        on a miss.  Every call counts towards the hit/miss statistics."""
        entry = self._entries.get(k)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(k)
        self.hits += 1
        return entry

    def put(self, k: int, ranked: CacheEntry) -> None:
        """Install the entry for ``k``, evicting the LRU beyond capacity."""
        self._entries[k] = ranked
        self._entries.move_to_end(k)
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)

    def entries(self) -> Dict[int, CacheEntry]:
        """Every live entry as ``k`` → ranked rows, a shallow copy — the
        snapshot hand-off reads the cache without touching recency or
        the hit/miss statistics."""
        return dict(self._entries)

    def clear(self) -> None:
        """Drop every entry (graph mutation invalidates all of them)."""
        self._entries.clear()
