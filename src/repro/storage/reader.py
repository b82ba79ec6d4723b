""":class:`ArtifactReader`: mmap-backed, lazily decoding artifact access.

Opening a reader maps the file read-only and validates only the header
and region bounds — O(1) work however large the artifact is.  Record
blocks are decoded on first touch through the offset dictionary and
kept in a bounded LRU of decoded values, so a query workload pays
decoding cost proportional to the vertices it *touches*, and a process
can keep many more artifacts open than would fit decoded in RAM (the
OS page cache, not the Python heap, holds the cold bytes).

Thread safety: the decoded-value LRU and the memoised label list are
the only mutable state; every mutation happens under ``self._lock``
(an :class:`threading.RLock`), which is registered in the RL002
guarded-state table — ``make lint`` enforces the discipline.  Decoding
itself runs outside the lock: a cache miss may decode the same block
twice concurrently, but the results are identical and the last insert
wins, so readers never serialise behind a decode.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ArtifactFormatError
from repro.storage.format import (
    DICT_ENTRY_SIZE,
    HEADER_SIZE,
    KIND_GCT,
    KIND_NAMES,
    KIND_TSD,
    Header,
    decode_gct_block,
    decode_gct_summary,
    decode_tsd_block,
    decode_tsd_weights,
    unpack_dict_entry,
)
from repro.storage.writer import profile_payload_from_blob

#: Default LRU capacity, in decoded records (not bytes): generous for
#: query working sets, small next to whole-index materialisation.
DEFAULT_CACHE_RECORDS = 1024


class ArtifactReader:
    """Read-only, lazily decoding view of one binary index artifact.

    Parameters
    ----------
    path:
        The ``.bin`` artifact file.
    cache_records:
        LRU capacity in decoded records; least-recently-used decoded
        values are evicted first (the mmap bytes stay available, so an
        evicted record is merely re-decoded on its next touch).
    """

    def __init__(self, path, cache_records: int = DEFAULT_CACHE_RECORDS):
        self._path = Path(path)
        self._source = str(self._path)
        self._file = open(self._path, "rb")
        try:
            size = self._path.stat().st_size
            if size < HEADER_SIZE:
                raise ArtifactFormatError(
                    self._source,
                    f"truncated file: {size} bytes, need at least "
                    f"{HEADER_SIZE}")
            self._mmap = mmap.mmap(self._file.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        except BaseException:
            self._file.close()
            raise
        try:
            self.header = Header.unpack(self._mmap, source=self._source)
            if self.header.file_len != size:
                raise ArtifactFormatError(
                    self._source,
                    f"file is {size} bytes but the header records "
                    f"{self.header.file_len} — truncated or overwritten")
        except BaseException:
            self._mmap.close()
            self._file.close()
            raise
        self._cache_records = max(1, int(cache_records))
        self._lock = threading.RLock()
        self._cache: "OrderedDict[Tuple[str, int], object]" = OrderedDict()
        self._labels: Optional[List[object]] = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def kind(self) -> int:
        """:data:`~repro.storage.format.KIND_TSD` or ``KIND_GCT``."""
        return self.header.kind

    @property
    def kind_name(self) -> str:
        return KIND_NAMES[self.header.kind]

    @property
    def num_vertices(self) -> int:
        return self.header.num_vertices

    @property
    def max_weight(self) -> int:
        """Upper bound on every stored weight/trussness (delta writes
        only grow it; see :func:`repro.storage.writer.write_delta`)."""
        return self.header.max_weight

    @property
    def fingerprint(self) -> Optional[str]:
        """Hex graph fingerprint, or ``None`` when written as unknown."""
        raw = self.header.fingerprint
        return raw.hex() if raw.strip(b"\0") else None

    # ------------------------------------------------------------------
    # LRU plumbing
    # ------------------------------------------------------------------
    def _cached(self, key: Tuple[str, int], produce):
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                return hit
        value = produce()  # decode outside the lock (see module doc)
        with self._lock:
            self._cache[key] = value
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_records:
                self._cache.popitem(last=False)
        return value

    def cache_len(self) -> int:
        """Decoded records currently resident (tests/inspection)."""
        with self._lock:
            return len(self._cache)

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def labels(self) -> List[object]:
        """The vertex list, insertion-ordered, JSON list labels as
        tuples (same normalisation as ``from_payload``)."""
        with self._lock:
            if self._labels is not None:
                return self._labels
        header = self.header
        blob = self._mmap[header.labels_off:
                          header.labels_off + header.labels_len]
        try:
            raw = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ArtifactFormatError(
                self._source, f"corrupt labels blob ({exc})") from exc
        labels = [tuple(v) if isinstance(v, list) else v for v in raw]
        if len(labels) != header.num_vertices:
            raise ArtifactFormatError(
                self._source,
                f"labels blob holds {len(labels)} vertices, header "
                f"says {header.num_vertices}")
        with self._lock:
            self._labels = labels
        return labels

    def build_profile_payload(self) -> Optional[Dict]:
        header = self.header
        blob = self._mmap[header.profile_off:
                          header.profile_off + header.profile_len]
        return profile_payload_from_blob(blob, source=self._source)

    def _entry(self, pos: int) -> Tuple[int, int]:
        header = self.header
        if not 0 <= pos < header.num_vertices:
            raise ArtifactFormatError(
                self._source, f"record position {pos} out of range "
                f"[0, {header.num_vertices})")
        off, length = unpack_dict_entry(
            self._mmap, header.dict_off + pos * DICT_ENTRY_SIZE)
        if length and not (header.heap_off <= off
                           and off + length <= header.file_len):
            raise ArtifactFormatError(
                self._source, f"record {pos} points outside the heap "
                f"(offset {off}, length {length})")
        return off, length

    def has(self, pos: int) -> bool:
        """Whether position ``pos`` has a stored record."""
        return self._entry(pos)[1] > 0

    def _check_kind(self, want_kind: int) -> None:
        if self.header.kind != want_kind:
            raise ArtifactFormatError(
                self._source,
                f"this is a {self.kind_name} artifact, not "
                f"{KIND_NAMES[want_kind]}")

    def _require(self, pos: int, want_kind: int) -> Tuple[int, int]:
        self._check_kind(want_kind)
        off, length = self._entry(pos)
        if length == 0:
            raise ArtifactFormatError(
                self._source, f"position {pos} has no stored record")
        return off, length

    # ------------------------------------------------------------------
    # TSD records
    # ------------------------------------------------------------------
    def forest(self, pos: int) -> List[Tuple[object, object, int]]:
        """Decoded forest of one vertex: ``(u, w, weight)`` with labels
        applied, in stored (weight-descending) order."""
        def produce():
            off, length = self._require(pos, KIND_TSD)
            labels = self.labels()
            edges = decode_tsd_block(self._mmap, off, length, self._source)
            try:
                return [(labels[u], labels[w], weight)
                        for u, w, weight in edges]
            except IndexError:
                raise ArtifactFormatError(
                    self._source, f"record {pos} references a vertex "
                    "position outside the labels list") from None
        return self._cached(("forest", pos), produce)

    def weights(self, pos: int) -> List[int]:
        """One forest's weight column (descending), no label decode."""
        with self._lock:
            hit = self._cache.get(("forest", pos))
        if hit is not None:
            return [weight for _, _, weight in hit]

        def produce():
            off, length = self._require(pos, KIND_TSD)
            return decode_tsd_weights(self._mmap, off, length,
                                      self._source)
        return self._cached(("weights", pos), produce)

    # ------------------------------------------------------------------
    # GCT records
    # ------------------------------------------------------------------
    def gct_record(self, pos: int):
        """One vertex's ``(supernodes, superedges)``: one decode, one
        LRU entry, shared by :meth:`supernodes` and :meth:`superedges`."""
        def produce():
            off, length = self._require(pos, KIND_GCT)
            labels = self.labels()
            nodes, edges = decode_gct_block(self._mmap, off, length,
                                            self._source)
            try:
                decoded_nodes = [
                    (tau, tuple(labels[m] for m in members))
                    for tau, members in nodes]
            except IndexError:
                raise ArtifactFormatError(
                    self._source, f"record {pos} references a member "
                    "position outside the labels list") from None
            return decoded_nodes, [tuple(edge) for edge in edges]
        return self._cached(("gct", pos), produce)

    def supernodes(self, pos: int) -> List[Tuple[int, Tuple[object, ...]]]:
        """One vertex's supernodes as ``(tau, members)`` pairs."""
        return self.gct_record(pos)[0]

    def superedges(self, pos: int) -> List[Tuple[int, int, int]]:
        """One vertex's superedges as ``(i, j, weight)`` triples."""
        return self.gct_record(pos)[1]

    def summary(self, pos: int) -> Tuple[List[int], List[int]]:
        """``(taus desc, superedge weights desc)`` — the Lemma-3 fast
        path, decoded from the record prefix (members untouched)."""
        def produce():
            off, length = self._require(pos, KIND_GCT)
            return decode_gct_summary(self._mmap, off, length,
                                      self._source)
        return self._cached(("summary", pos), produce)

    def summaries(self) -> Iterator[Tuple[int, List[int], List[int]]]:
        """``(pos, taus desc, superedge weights desc)`` of every stored
        record, in position order — the whole-index Lemma-3 pass.

        One walk of the offset dictionary that neither reads nor fills
        the decoded-record LRU (and so never takes its lock): a pass
        over more records than the LRU holds would evict every record
        queries had made resident and keep nothing a later pass reuses.
        """
        self._check_kind(KIND_GCT)
        for pos in range(self.header.num_vertices):
            off, length = self._entry(pos)
            if length:
                taus, weights = decode_gct_summary(
                    self._mmap, off, length, self._source)
                yield pos, taus, weights

    # ------------------------------------------------------------------
    # Integrity and inspection
    # ------------------------------------------------------------------
    def verify_checksum(self) -> None:
        """SHA-256 the mapped body and compare with the header.

        Raises :class:`~repro.errors.ArtifactFormatError` on mismatch.
        Deliberately *not* run on open — it reads the whole file, which
        is exactly what lazy page-in avoids; call it from integrity
        tooling (``repro store-inspect --verify``) instead.
        """
        digest = hashlib.sha256(
            self._mmap[HEADER_SIZE:self.header.file_len]).digest()
        if digest != self.header.checksum:
            raise ArtifactFormatError(
                self._source, "payload checksum mismatch: the artifact "
                "body was corrupted after it was written")

    def stats(self) -> Dict[str, object]:
        """Header and offset-dictionary statistics (``store-inspect``)."""
        header = self.header
        lengths = []
        present = 0
        for pos in range(header.num_vertices):
            _, length = unpack_dict_entry(
                self._mmap, header.dict_off + pos * DICT_ENTRY_SIZE)
            if length:
                present += 1
                lengths.append(length)
        heap_bytes = header.file_len - header.heap_off
        return {
            "kind": self.kind_name,
            "format_version": 1,
            "fingerprint": self.fingerprint,
            "num_vertices": header.num_vertices,
            "records_present": present,
            "max_weight": header.max_weight,
            "labels_bytes": header.labels_len,
            "profile_bytes": header.profile_len,
            "dict_bytes": header.num_vertices * DICT_ENTRY_SIZE,
            "heap_bytes": heap_bytes,
            "dead_bytes": header.dead_bytes,
            "file_bytes": header.file_len,
            "record_bytes_min": min(lengths) if lengths else 0,
            "record_bytes_max": max(lengths) if lengths else 0,
            "record_bytes_mean": (sum(lengths) / len(lengths)
                                  if lengths else 0.0),
        }

    def close(self) -> None:
        """Unmap the file.  Reads after close raise ``ValueError``."""
        self._mmap.close()
        self._file.close()

    def __enter__(self) -> "ArtifactReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ArtifactReader({self._source!r}, kind={self.kind_name}, "
                f"vertices={self.num_vertices})")


def read_payload(path) -> Dict:
    """Materialise a binary artifact back into its full payload dict.

    The inverse of :func:`repro.storage.writer.encode_artifact`: the
    returned dict is structurally equal to the ``to_payload()`` dict
    the artifact was written from (JSON-shaped — edges as lists), so
    ``from_payload`` consumes it directly.
    """
    with ArtifactReader(path) as reader:
        header = reader.header
        labels_raw = json.loads(
            reader._mmap[header.labels_off:
                         header.labels_off + header.labels_len]
            .decode("utf-8"))
        payload: Dict = {
            "format": ("repro-tsd-index" if header.kind == KIND_TSD
                       else "repro-gct-index"),
            "version": 1,
            "vertices": labels_raw,
        }
        if header.kind == KIND_TSD:
            forests = {}
            for pos in range(header.num_vertices):
                off, length = reader._entry(pos)
                if length == 0:
                    continue
                forests[str(pos)] = decode_tsd_block(
                    reader._mmap, off, length, reader._source)
            payload["forests"] = forests
        else:
            supernodes = {}
            superedges = {}
            for pos in range(header.num_vertices):
                off, length = reader._entry(pos)
                if length == 0:
                    continue
                nodes, edges = decode_gct_block(
                    reader._mmap, off, length, reader._source)
                supernodes[str(pos)] = nodes
                superedges[str(pos)] = edges
            payload["supernodes"] = supernodes
            payload["superedges"] = superedges
        profile = reader.build_profile_payload()
        if profile is not None:
            payload["build_profile"] = profile
        return payload
