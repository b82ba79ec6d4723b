"""Spans recorded by the benchmark around its calls into each layer.

Spans live in memory until the run ends and are written out then, to
the file ``run.py --out`` names.  Tracing inside the program is a later
change; until then every span is taken from this side of the boundary.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from .estimators import self_times


#: "The span that is open right now" as a parent.
ENCLOSING = -1


class Tracer:
    """An in-memory span list: ``{id, parent, name, start, end, request}``.

    Blocks are opened with :meth:`span` by the run's main thread only,
    so they nest as a stack; :meth:`add` records a finished span from
    any thread and by default hangs it under the block open at that
    moment (the query phase, while the connection threads run).
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._origin = time.perf_counter()
        self._open: List[int] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = ENCLOSING,
            request: Optional[str] = None) -> int:
        """Record a finished span (times are ``perf_counter`` readings)."""
        with self._lock:
            if parent == ENCLOSING:
                parent = self._open[-1] if self._open else None
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "parent": parent, "name": name,
                "start": start - self._origin, "end": end - self._origin,
                "request": request})
        return span_id

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time a block of the main thread, nested in the one open now."""
        with self._lock:
            span_id = len(self.spans)
            record: Dict[str, object] = {
                "id": span_id, "parent": self._open[-1] if self._open else None,
                "name": name, "start": time.perf_counter() - self._origin,
                "end": None, "request": None}
            self.spans.append(record)
            self._open.append(span_id)
        try:
            yield span_id
        finally:
            record["end"] = time.perf_counter() - self._origin
            with self._lock:
                self._open.pop()

    def self_time_by_name(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        finished = [span for span in self.spans if span["end"] is not None]
        own = self_times(finished)
        totals: Dict[str, float] = {}
        for span in finished:
            totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
        return totals

    def write(self, path: Path, header: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [dict(span, start=round(span["start"], 6),
                      end=None if span["end"] is None else round(span["end"], 6))
                 for span in self.spans]
        payload = dict(header, self_seconds_by_name={
            name: round(seconds, 6)
            for name, seconds in self.self_time_by_name().items()}, spans=spans)
        path.write_text(json.dumps(payload, separators=(",", ":")),
                        encoding="utf-8")
