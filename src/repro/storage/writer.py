"""Serialising index payloads into the paged binary format.

The writer consumes the exact dicts ``TSDIndex.to_payload()`` /
``GCTIndex.to_payload()`` already produce — positions, stored edge
order, canonical member order — so a binary artifact is a deterministic
function of the payload: two byte-identical payloads encode to two
byte-identical files, preserving the build-equivalence guarantees the
JSON path has.

Three entry points:

* :func:`write_artifact` — full encode, durable via tmp +
  :func:`os.replace`.
* :func:`write_delta` — re-version a base artifact from the changed
  vertices' records alone.  Over the same vertex list it is
  copy-on-write: copy the base's bytes, append replacement records to
  the heap, patch their offset-dictionary entries, and account the
  superseded bytes in ``dead_bytes``.  Over a vertex list that
  *extends* the base's (an update batch attached vertices) it relays
  the heap out in one pass — unchanged blocks copied as bytes, changed
  ones encoded — so the file equals a full encode.  Falls back
  (returns ``False``) whenever the base is unusable or the vertex list
  was reordered, shrunk or relabelled — the caller then does a full
  :func:`write_artifact`.
* :func:`compact_artifact` — the same relayout with no replacements:
  the heap without its dead bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from itertools import accumulate
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ArtifactFormatError
from repro.storage.format import (
    DICT_ENTRY_SIZE,
    HEADER_SIZE,
    KIND_GCT,
    KIND_TSD,
    Header,
    encode_gct_block,
    encode_tsd_block,
    pack_dict,
    pack_dict_entry,
    unpack_dict,
    unpack_dict_entry,
)
from repro.util.jsonio import dumps_payload

_PAYLOAD_KINDS = {"repro-tsd-index": KIND_TSD, "repro-gct-index": KIND_GCT}


def payload_kind(payload: Dict, source: str = "<payload>") -> int:
    """The artifact kind of an index payload (validates format tag)."""
    kind = _PAYLOAD_KINDS.get(payload.get("format"))
    if kind is None:
        raise ArtifactFormatError(
            source, f"not an index payload (format "
            f"{payload.get('format')!r})")
    if payload.get("version") != 1:
        raise ArtifactFormatError(
            source, f"unsupported payload version "
            f"{payload.get('version')!r}")
    return kind


def _fingerprint_bytes(fingerprint: Optional[str]) -> bytes:
    """Hex graph fingerprint → 32 raw header bytes (zeros when absent)."""
    if not fingerprint:
        return b"\0" * 32
    raw = bytes.fromhex(fingerprint)
    if len(raw) != 32:
        raise ArtifactFormatError(
            "<fingerprint>", f"expected a SHA-256 hex digest, got "
            f"{fingerprint!r}")
    return raw


def _labels_blob(payload: Dict) -> bytes:
    return dumps_payload(payload["vertices"]).encode("utf-8")


def _profile_blob(payload: Dict) -> bytes:
    profile = payload.get("build_profile")
    if profile is None:
        return b""
    return dumps_payload(profile).encode("utf-8")


def _block_at(payload: Dict, kind: int,
              pos: int) -> Tuple[Optional[bytes], int]:
    """``(block bytes or None, max weight within)`` for one position."""
    key = str(pos)
    if kind == KIND_TSD:
        edges = payload["forests"].get(key)
        if edges is None:
            return None, 0
        max_w = max((edge[2] for edge in edges), default=0)
        return encode_tsd_block(edges), max_w
    nodes = payload["supernodes"].get(key)
    edges = payload["superedges"].get(key)
    if nodes is None and edges is None:
        return None, 0
    nodes = nodes or []
    edges = edges or []
    max_w = max((tau for tau, _ in nodes), default=0)
    max_w = max(max_w, max((edge[2] for edge in edges), default=0))
    return encode_gct_block(nodes, edges), max_w


def _assemble(kind: int, fingerprint: bytes, labels: bytes, profile: bytes,
              blocks: List[Optional[bytes]], max_weight: int) -> bytes:
    """A complete artifact: one record block per position (``None`` for
    no record), laid out contiguously in position order — no dead
    bytes."""
    labels_off = HEADER_SIZE
    profile_off = labels_off + len(labels)
    dict_off = profile_off + len(profile)
    heap_off = dict_off + len(blocks) * DICT_ENTRY_SIZE

    lengths = [0 if block is None else len(block) for block in blocks]
    starts = accumulate(lengths, initial=heap_off)
    offsets = [start if length else 0
               for start, length in zip(starts, lengths)]
    body = b"".join([labels, profile, pack_dict(offsets, lengths),
                     *(block for block in blocks if block is not None)])
    header = Header(
        kind=kind,
        fingerprint=fingerprint,
        checksum=hashlib.sha256(body).digest(),
        num_vertices=len(blocks),
        max_weight=max_weight,
        labels_off=labels_off, labels_len=len(labels),
        profile_off=profile_off, profile_len=len(profile),
        dict_off=dict_off, heap_off=heap_off,
        file_len=HEADER_SIZE + len(body),
        dead_bytes=0,
    )
    return header.pack() + body


def encode_artifact(payload: Dict,
                    fingerprint: Optional[str] = None) -> bytes:
    """Encode one index payload as a complete binary artifact."""
    kind = payload_kind(payload)
    blocks = []
    max_weight = 0
    for pos in range(len(payload["vertices"])):
        block, block_max = _block_at(payload, kind, pos)
        blocks.append(block)
        if block_max > max_weight:
            max_weight = block_max
    return _assemble(kind, _fingerprint_bytes(fingerprint),
                     _labels_blob(payload), _profile_blob(payload),
                     blocks, max_weight)


def _relayout(base: bytes, header: Header, labels: bytes, num_vertices: int,
              replaced: Dict[int, Optional[bytes]], fingerprint: bytes,
              max_weight: int) -> bytes:
    """``base`` laid out afresh, in one pass over ``num_vertices``
    positions: position ``p`` holds ``replaced[p]`` when given, else the
    base's live block (none past the base's vertices).  The base's
    profile blob is kept; its dead bytes are left behind."""
    offsets, lengths = unpack_dict(base, header.dict_off, header.num_vertices)
    blocks: List[Optional[bytes]] = [
        base[offset:offset + length] if length else None
        for offset, length in zip(offsets, lengths)]
    blocks += [None] * (num_vertices - header.num_vertices)
    for pos, block in replaced.items():
        blocks[pos] = block
    profile = base[header.profile_off:header.profile_off
                   + header.profile_len]
    return _assemble(header.kind, fingerprint, labels, profile, blocks,
                     max_weight)


def _write_bytes_atomic(path: Path, data: bytes) -> None:
    """Durable write: tmp sibling + :func:`os.replace`, same as the
    store's JSON artifacts — a crash mid-write never tears a file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def write_artifact(path, payload: Dict,
                   fingerprint: Optional[str] = None) -> None:
    """Full binary encode of ``payload`` to ``path`` (atomic)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_bytes_atomic(path, encode_artifact(payload,
                                              fingerprint=fingerprint))


def _extends(labels: bytes, base_labels: bytes) -> bool:
    """Whether the JSON vertex list ``labels`` strictly extends
    ``base_labels``: the base's elements, in order, then more.  Both are
    canonical encodings, so the base's bytes up to its closing bracket,
    then a top-level separator, are exactly that prefix."""
    if base_labels == b"[]":
        return labels != base_labels
    head = base_labels[:-1]
    return labels[:len(head)] == head \
        and labels[len(head):len(head) + 1] == b","


def _patched(base: bytes, header: Header, payload: Dict, kind: int,
             changed_positions: List[int], fingerprint: bytes) -> bytearray:
    """Copy-on-write over the base's own vertex list: append the changed
    positions' new blocks, patch their dictionary entries, account the
    superseded ones as dead bytes."""
    out = bytearray(base)
    appended = bytearray()
    dead = header.dead_bytes
    max_weight = header.max_weight
    heap_end = header.file_len
    for pos in changed_positions:
        entry_off = header.dict_off + pos * DICT_ENTRY_SIZE
        old_off, old_len = unpack_dict_entry(base, entry_off)
        block, block_max = _block_at(payload, kind, pos)
        if block is None:
            if old_len == 0:
                continue
            dead += old_len
            out[entry_off:entry_off + DICT_ENTRY_SIZE] = \
                pack_dict_entry(0, 0)
            continue
        if old_len == len(block) \
                and base[old_off:old_off + old_len] == block:
            continue  # the "affected" record did not actually change
        dead += old_len
        out[entry_off:entry_off + DICT_ENTRY_SIZE] = pack_dict_entry(
            heap_end + len(appended), len(block))
        appended += block
        if block_max > max_weight:
            # max_weight is an upper bound: a superseded maximum is not
            # rescanned for, only growth is tracked (see reader note).
            max_weight = block_max

    out += appended
    checksum = hashlib.sha256(memoryview(out)[HEADER_SIZE:]).digest()
    out[:HEADER_SIZE] = dataclasses.replace(
        header, fingerprint=fingerprint, checksum=checksum,
        max_weight=max_weight, file_len=len(out), dead_bytes=dead).pack()
    return out


def write_delta(base_path, path, payload: Dict,
                changed: Iterable[object],
                fingerprint: Optional[str] = None) -> bool:
    """Re-version ``base_path`` into ``path`` from the changed records.

    ``changed`` names the vertex labels whose records may differ from
    the base artifact (the update batch's affected set); every other
    record is carried over byte-for-byte, so ``payload`` need hold only
    the changed vertices' records beside the complete vertex list
    (``to_payload(only=changed)``) — a full payload writes the same
    bytes.  No unchanged record is re-encoded.

    Over the base's own vertex list the write is copy-on-write:
    replacement blocks are *appended* to the heap and the superseded
    offsets rewritten in the dictionary.  A vertex list that *extends*
    the base's — an edge batch only ever appends vertices, so no
    position shifts — grows the dictionary, so the heap is relaid in
    one pass instead: unchanged blocks copied from the base, changed
    ones (and every appended vertex's) encoded from ``payload``.  That
    file's body equals :func:`encode_artifact` of the full payload with
    the base's build profile, and it has no dead bytes.

    Returns ``False`` without writing when a delta does not apply
    (missing/foreign/torn base, a reordered, shrunk or relabelled
    vertex list, a different build profile, kind mismatch); the caller
    falls back to :func:`write_artifact`.
    """
    base_path = Path(base_path)
    try:
        base = base_path.read_bytes()
    except OSError:
        return False
    try:
        header = Header.unpack(base, source=str(base_path))
    except ArtifactFormatError:
        return False
    if header.file_len != len(base):
        return False  # torn or trailing-garbage base: rewrite fully
    kind = payload_kind(payload)
    if kind != header.kind:
        return False
    labels = _labels_blob(payload)
    base_labels = base[header.labels_off:
                       header.labels_off + header.labels_len]
    grown = labels != base_labels
    if grown and not _extends(labels, base_labels):
        return False  # positions shifted: nothing to carry over
    profile = _profile_blob(payload)
    if profile and profile != base[header.profile_off:
                                   header.profile_off
                                   + header.profile_len]:
        # A *different* profile cannot be carried (the delta keeps the
        # base's region); a payload with *no* profile keeps the
        # base's — the delta inherits the original build's provenance.
        return False

    vertices = payload["vertices"]
    position = {v: i for i, v in enumerate(vertices)}
    changed_positions = sorted({position[v] for v in changed
                                if v in position})
    if grown:
        replaced = {}
        max_weight = header.max_weight
        appended = range(header.num_vertices, len(vertices))
        for pos in sorted(set(changed_positions).union(appended)):
            replaced[pos], block_max = _block_at(payload, kind, pos)
            max_weight = max(max_weight, block_max)
        out = _relayout(base, header, labels, len(vertices), replaced,
                        _fingerprint_bytes(fingerprint), max_weight)
    else:
        out = _patched(base, header, payload, kind, changed_positions,
                       _fingerprint_bytes(fingerprint))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_bytes_atomic(path, out)
    return True


def compact_artifact(path) -> int:
    """Rewrite one artifact's heap without its dead bytes.

    The relayout a grown delta uses, with no replacements: live records
    laid out contiguously in position order and every dictionary entry
    rewritten.  Returns the number of bytes reclaimed (0 when the
    artifact had no dead bytes).
    """
    path = Path(path)
    data = path.read_bytes()
    header = Header.unpack(data, source=str(path))
    if header.dead_bytes == 0:
        return 0
    labels = data[header.labels_off:header.labels_off + header.labels_len]
    out = _relayout(data, header, labels, header.num_vertices, {},
                    header.fingerprint, header.max_weight)
    _write_bytes_atomic(path, out)
    return header.file_len - len(out)


def profile_payload_from_blob(blob: bytes,
                              source: str = "<buffer>") -> Optional[Dict]:
    """Decode a profile region back into its payload dict (or ``None``)."""
    if not blob:
        return None
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ArtifactFormatError(
            source, f"corrupt build-profile blob ({exc})") from exc
