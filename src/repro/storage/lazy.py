"""Lazy forest providers: mmap artifacts behind the index Mapping APIs.

:class:`~repro.core.tsd.TSDIndex` and :class:`~repro.core.gct.GCTIndex`
normally own plain dicts (vertex → forest / supernodes / superedges).
The classes here are drop-in :class:`~collections.abc.Mapping`
replacements backed by an :class:`~repro.storage.reader.ArtifactReader`
— a lookup decodes exactly one record, an iteration walks the offset
dictionary, and nothing is materialised up front.  The index classes
duck-type the extra accessors (``weights`` / ``max_weight`` /
``tau_sorted`` / ``weight_sorted`` / ``summaries`` / ``record``) to skip
their eager precomputation and repeated lookups;
``core`` never imports ``storage``, so the dependency points one way.

The canonical ranking contract holds bit-for-bit over these maps: the
decoded records are exactly the ``to_payload()`` data the artifact was
written from, in the same stored order — the cross-method and
property-random suites assert it end to end.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, List, Optional, Tuple

from repro.core.gct import GCTIndex, Supernode, Superedge
from repro.core.tsd import BuildProfile, ForestEdge, TSDIndex
from repro.errors import ArtifactFormatError
from repro.storage.format import KIND_GCT, KIND_TSD, KIND_NAMES
from repro.storage.reader import DEFAULT_CACHE_RECORDS, ArtifactReader


class _LazyRecordMap(Mapping):
    """Shared plumbing: labels ↔ positions over one reader."""

    def __init__(self, reader: ArtifactReader) -> None:
        self._reader = reader
        self._labels = reader.labels()
        self._position = {v: i for i, v in enumerate(self._labels)}
        self._len: Optional[int] = None

    @property
    def reader(self) -> ArtifactReader:
        return self._reader

    def _pos(self, v) -> int:
        pos = self._position.get(v)
        if pos is None or not self._reader.has(pos):
            raise KeyError(v)
        return pos

    def __contains__(self, v) -> bool:
        pos = self._position.get(v)
        return pos is not None and self._reader.has(pos)

    def __iter__(self) -> Iterator:
        reader = self._reader
        return (v for i, v in enumerate(self._labels) if reader.has(i))

    def __len__(self) -> int:
        if self._len is None:
            reader = self._reader
            self._len = sum(1 for i in range(len(self._labels))
                            if reader.has(i))
        return self._len


class LazyForestMap(_LazyRecordMap):
    """``vertex → forest edge list``, decoded per record on demand."""

    def __init__(self, reader: ArtifactReader) -> None:
        if reader.kind != KIND_TSD:
            raise ArtifactFormatError(
                str(reader.path), f"expected a tsd artifact, found "
                f"{KIND_NAMES[reader.kind]}")
        super().__init__(reader)

    def __getitem__(self, v) -> List[ForestEdge]:
        return self._reader.forest(self._pos(v))

    def weights(self, v) -> List[int]:
        """One forest's weight column (descending) — the bound-pass
        fast path, no label decoding."""
        return self._reader.weights(self._pos(v))

    @property
    def max_weight(self) -> int:
        """Header upper bound over all forest weights (O(1))."""
        return self._reader.max_weight


class LazySupernodeMap(_LazyRecordMap):
    """``vertex → supernode list`` over a GCT artifact."""

    def __init__(self, reader: ArtifactReader) -> None:
        if reader.kind != KIND_GCT:
            raise ArtifactFormatError(
                str(reader.path), f"expected a gct artifact, found "
                f"{KIND_NAMES[reader.kind]}")
        super().__init__(reader)

    def __getitem__(self, v) -> List[Supernode]:
        return self._reader.supernodes(self._pos(v))

    def record(self, v) -> Tuple[List[Supernode], List[Superedge]]:
        """``(supernodes, superedges)`` of ``v`` — one position lookup
        and one record fetch (what :meth:`GCTIndex.contexts` reads)."""
        return self._reader.gct_record(self._pos(v))

    def tau_sorted(self, v) -> List[int]:
        """Descending supernode taus — Lemma-3 prefix decode."""
        return self._reader.summary(self._pos(v))[0]

    def summaries(self) -> Iterator[Tuple[int, List[int], List[int]]]:
        """``(position, taus, superedge weights)`` of every record in
        position order — one bulk pass that bypasses the reader's LRU
        (what :class:`GCTIndex` derives its score postings from)."""
        return self._reader.summaries()


class LazySuperedgeMap(_LazyRecordMap):
    """``vertex → superedge list`` over the same GCT artifact."""

    def __getitem__(self, v) -> List[Superedge]:
        return self._reader.superedges(self._pos(v))

    def weight_sorted(self, v) -> List[int]:
        """Descending superedge weights — Lemma-3 prefix decode."""
        return self._reader.summary(self._pos(v))[1]


def open_tsd_artifact(path,
                      cache_records: int = DEFAULT_CACHE_RECORDS
                      ) -> TSDIndex:
    """Open a binary TSD artifact as a lazily-loading :class:`TSDIndex`.

    O(labels) work up front (the vertex list and position map); every
    forest decodes on first touch.  The returned index answers every
    query bit-for-bit like ``TSDIndex.from_payload`` over the same
    data — it *is* the same data, addressed through the mmap.
    """
    reader = ArtifactReader(path, cache_records=cache_records)
    forests = LazyForestMap(reader)
    profile = BuildProfile.from_payload(reader.build_profile_payload())
    return TSDIndex(forests, reader.labels(), profile)


def open_gct_artifact(path,
                      cache_records: int = DEFAULT_CACHE_RECORDS
                      ) -> GCTIndex:
    """Open a binary GCT artifact as a lazily-loading :class:`GCTIndex`."""
    reader = ArtifactReader(path, cache_records=cache_records)
    supernodes = LazySupernodeMap(reader)
    superedges = LazySuperedgeMap(reader)
    profile = BuildProfile.from_payload(reader.build_profile_payload())
    return GCTIndex(supernodes, superedges, reader.labels(), profile)
