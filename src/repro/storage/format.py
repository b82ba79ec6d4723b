"""The paged binary artifact format (``.bin``): layout and record encoding.

JSON artifacts force a warm start to deserialise *every* forest of
*every* graph before the first query can run.  This format removes that
cost: per-vertex records are fixed-layout ``struct`` blocks addressed
through a packed offset dictionary, so an ``mmap``-backed reader pages
in only the records a query touches.

File layout (all integers little-endian)::

    +---------------------------+ 0
    | header (156 bytes)        |   magic, version, kind, fingerprint,
    |                           |   checksum, region offsets
    +---------------------------+ labels_off
    | labels blob               |   canonical JSON vertex list (utf-8)
    +---------------------------+ profile_off
    | profile blob              |   build-profile JSON ("" when absent)
    +---------------------------+ dict_off
    | offset dictionary         |   num_vertices x (u64 offset, u64 len)
    +---------------------------+ heap_off
    | record heap               |   per-vertex blocks, position order
    +---------------------------+ file_len

A dictionary entry of ``(0, 0)`` marks an absent record.  Delta writes
over an unchanged vertex list append superseded records' replacements
to the heap and patch their dictionary entries in place —
``dead_bytes`` accounts the garbage until
:func:`repro.storage.writer.compact_artifact` rewrites the heap.  A
delta whose vertex list *extends* the base's (an update batch attached
vertices) cannot patch in place, since the dictionary grows: it lays
the heap out afresh, copying every unchanged block as bytes, so it
carries no dead bytes.

Record blocks:

* **TSD** (``kind=1``): ``u32 n`` then ``n`` x ``(u32 u, u32 w,
  u32 weight)`` — the forest edges in stored (weight-descending) order,
  endpoints as positions into the labels list.
* **GCT** (``kind=2``): ``u32 n_nodes, u32 n_edges``, then ``n_nodes``
  taus (``u32``), then ``n_edges`` x ``(u32 i, u32 j, u32 weight)``,
  then per node ``u32 member_count`` + members (positions).  The taus
  and superedge weights — all a Lemma-3 score needs — decode from the
  block *prefix* without touching the member lists.

The header ``checksum`` is SHA-256 over every byte after the header;
readers verify it on demand (:meth:`ArtifactReader.verify_checksum`),
not per page — a per-access hash would defeat lazy page-in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ArtifactFormatError

MAGIC = b"RBIX"
FORMAT_VERSION = 1

#: Artifact kinds (the ``kind`` header field).
KIND_TSD = 1
KIND_GCT = 2
KIND_NAMES = {KIND_TSD: "tsd", KIND_GCT: "gct"}

_HEADER = struct.Struct(
    "<4s"   # magic
    "H"     # format_version
    "H"     # kind
    "I"     # flags (reserved, 0)
    "32s"   # graph fingerprint (raw SHA-256; zeros when unknown)
    "32s"   # checksum: SHA-256 over bytes [HEADER_SIZE, file_len)
    "Q"     # num_vertices
    "I"     # max_weight (upper bound over stored weights/taus)
    "I"     # reserved pad
    "Q"     # labels_off
    "Q"     # labels_len
    "Q"     # profile_off
    "Q"     # profile_len
    "Q"     # dict_off
    "Q"     # heap_off
    "Q"     # file_len
    "Q"     # dead_bytes (superseded heap bytes awaiting compaction)
)
HEADER_SIZE = _HEADER.size

_DICT_ENTRY = struct.Struct("<QQ")
DICT_ENTRY_SIZE = _DICT_ENTRY.size

_U32 = struct.Struct("<I")
_U32_PAIR = struct.Struct("<II")


@dataclass(frozen=True)
class Header:
    """Decoded header of one binary artifact."""

    kind: int
    fingerprint: bytes  # 32 raw bytes (zeros when unknown)
    checksum: bytes     # 32 raw bytes
    num_vertices: int
    max_weight: int
    labels_off: int
    labels_len: int
    profile_off: int
    profile_len: int
    dict_off: int
    heap_off: int
    file_len: int
    dead_bytes: int

    def pack(self) -> bytes:
        return _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.kind, 0,
            self.fingerprint, self.checksum,
            self.num_vertices, self.max_weight, 0,
            self.labels_off, self.labels_len,
            self.profile_off, self.profile_len,
            self.dict_off, self.heap_off,
            self.file_len, self.dead_bytes)

    @classmethod
    def unpack(cls, buf, source: str = "<buffer>") -> "Header":
        """Decode and *validate* a header.  Raises
        :class:`~repro.errors.ArtifactFormatError` on anything that is
        not a well-formed version-1 artifact header."""
        if len(buf) < HEADER_SIZE:
            raise ArtifactFormatError(
                source, f"truncated header: {len(buf)} bytes, "
                f"need {HEADER_SIZE}")
        (magic, version, kind, _flags, fingerprint, checksum,
         num_vertices, max_weight, _pad,
         labels_off, labels_len, profile_off, profile_len,
         dict_off, heap_off, file_len, dead_bytes
         ) = _HEADER.unpack_from(buf, 0)
        if magic != MAGIC:
            raise ArtifactFormatError(
                source, f"not a binary index artifact (magic {magic!r})")
        if version != FORMAT_VERSION:
            raise ArtifactFormatError(
                source, f"unsupported format version {version} "
                f"(this build reads version {FORMAT_VERSION})")
        if kind not in KIND_NAMES:
            raise ArtifactFormatError(source, f"unknown artifact kind {kind}")
        header = cls(kind=kind, fingerprint=fingerprint, checksum=checksum,
                     num_vertices=num_vertices, max_weight=max_weight,
                     labels_off=labels_off, labels_len=labels_len,
                     profile_off=profile_off, profile_len=profile_len,
                     dict_off=dict_off, heap_off=heap_off,
                     file_len=file_len, dead_bytes=dead_bytes)
        header.validate_regions(source)
        return header

    def validate_regions(self, source: str) -> None:
        """Region offsets must tile ``[HEADER_SIZE, file_len)`` in order."""
        expected_dict = self.profile_off + self.profile_len
        ok = (self.labels_off == HEADER_SIZE
              and self.profile_off == self.labels_off + self.labels_len
              and self.dict_off == expected_dict
              and self.heap_off == self.dict_off
              + self.num_vertices * DICT_ENTRY_SIZE
              and self.heap_off <= self.file_len)
        if not ok:
            raise ArtifactFormatError(
                source, "corrupt header: region offsets are inconsistent")


def pack_dict_entry(offset: int, length: int) -> bytes:
    return _DICT_ENTRY.pack(offset, length)


def unpack_dict_entry(buf, entry_offset: int) -> Tuple[int, int]:
    return _DICT_ENTRY.unpack_from(buf, entry_offset)


def unpack_dict(buf, dict_off: int,
                count: int) -> Tuple[Sequence[int], Sequence[int]]:
    """A whole offset dictionary as ``(offsets, lengths)`` columns."""
    flat = struct.unpack_from(f"<{2 * count}Q", buf, dict_off)
    return flat[0::2], flat[1::2]


def pack_dict(offsets: Sequence[int], lengths: Sequence[int]) -> bytes:
    """Inverse of :func:`unpack_dict`."""
    flat: List[int] = [0] * (2 * len(offsets))
    flat[0::2] = offsets
    flat[1::2] = lengths
    return struct.pack(f"<{len(flat)}Q", *flat)


# ----------------------------------------------------------------------
# TSD record blocks
# ----------------------------------------------------------------------
def encode_tsd_block(edges: Sequence[Sequence[int]]) -> bytes:
    """``[[u, w, weight], ...]`` (positions, stored order) → block bytes."""
    n = len(edges)
    flat: List[int] = []
    for edge in edges:
        flat.extend(edge)
    return struct.pack(f"<{1 + 3 * n}I", n, *flat)


def decode_tsd_block(buf, offset: int, length: int,
                     source: str = "<buffer>") -> List[List[int]]:
    """Inverse of :func:`encode_tsd_block` (exact-length check)."""
    if length < _U32.size:
        raise ArtifactFormatError(source, "truncated TSD record header")
    (n,) = _U32.unpack_from(buf, offset)
    if length != _U32.size * (1 + 3 * n):
        raise ArtifactFormatError(
            source, f"TSD record length {length} does not match "
            f"{n} edges")
    flat = struct.unpack_from(f"<{3 * n}I", buf, offset + _U32.size)
    return [[flat[i], flat[i + 1], flat[i + 2]]
            for i in range(0, 3 * n, 3)]


def decode_tsd_weights(buf, offset: int, length: int,
                       source: str = "<buffer>") -> List[int]:
    """Just the weight column of a TSD record (stored order)."""
    return [edge[2] for edge in decode_tsd_block(buf, offset, length,
                                                 source)]


# ----------------------------------------------------------------------
# GCT record blocks
# ----------------------------------------------------------------------
def encode_gct_block(nodes: Sequence[Sequence[object]],
                     edges: Sequence[Sequence[int]]) -> bytes:
    """``([[tau, [members...]], ...], [[i, j, w], ...])`` → block bytes.

    Members are label positions; the summary prefix (taus + superedge
    triples) is written before any member list so Lemma-3 scores decode
    without touching members.
    """
    parts = [_U32_PAIR.pack(len(nodes), len(edges))]
    taus = [tau for tau, _ in nodes]
    if taus:
        parts.append(struct.pack(f"<{len(taus)}I", *taus))
    for edge in edges:
        parts.append(struct.pack("<III", *edge))
    for _, members in nodes:
        parts.append(struct.pack(f"<{1 + len(members)}I",
                                 len(members), *members))
    return b"".join(parts)


def decode_gct_block(buf, offset: int, length: int,
                     source: str = "<buffer>"
                     ) -> Tuple[List[List[object]], List[List[int]]]:
    """Inverse of :func:`encode_gct_block` (exact-length check)."""
    end = offset + length
    if length < _U32_PAIR.size:
        raise ArtifactFormatError(source, "truncated GCT record header")
    n_nodes, n_edges = _U32_PAIR.unpack_from(buf, offset)
    cursor = offset + _U32_PAIR.size
    need = _U32.size * (n_nodes + 3 * n_edges)
    if cursor + need > end:
        raise ArtifactFormatError(source, "truncated GCT record summary")
    taus = struct.unpack_from(f"<{n_nodes}I", buf, cursor)
    cursor += _U32.size * n_nodes
    edges = []
    for _ in range(n_edges):
        edges.append(list(struct.unpack_from("<III", buf, cursor)))
        cursor += 3 * _U32.size
    nodes: List[List[object]] = []
    for tau in taus:
        if cursor + _U32.size > end:
            raise ArtifactFormatError(source,
                                      "truncated GCT member list")
        (count,) = _U32.unpack_from(buf, cursor)
        cursor += _U32.size
        if cursor + count * _U32.size > end:
            raise ArtifactFormatError(source,
                                      "truncated GCT member list")
        members = list(struct.unpack_from(f"<{count}I", buf, cursor))
        cursor += count * _U32.size
        nodes.append([tau, members])
    if cursor != end:
        raise ArtifactFormatError(
            source, f"GCT record length {length} does not match its "
            "contents")
    return nodes, edges


def decode_gct_summary(buf, offset: int, length: int,
                       source: str = "<buffer>"
                       ) -> Tuple[List[int], List[int]]:
    """``(taus, superedge weights)`` from a GCT record *prefix*.

    This is the lazy-scoring fast path: Lemma 3 needs only these two
    weight multisets, so member lists stay unread (and undecoded).
    Both are returned sorted descending, matching the eager index's
    precomputed arrays.
    """
    if length < _U32_PAIR.size:
        raise ArtifactFormatError(source, "truncated GCT record header")
    n_nodes, n_edges = _U32_PAIR.unpack_from(buf, offset)
    cursor = offset + _U32_PAIR.size
    need = _U32.size * (n_nodes + 3 * n_edges)
    if _U32_PAIR.size + need > length:
        raise ArtifactFormatError(source, "truncated GCT record summary")
    taus = struct.unpack_from(f"<{n_nodes}I", buf, cursor)
    cursor += _U32.size * n_nodes
    flat = struct.unpack_from(f"<{3 * n_edges}I", buf, cursor)
    weights = flat[2::3]
    return sorted(taus, reverse=True), sorted(weights, reverse=True)
