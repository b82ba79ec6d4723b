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
* :func:`write_delta` — copy-on-write re-version: copy the base
  artifact's bytes, append replacement records for the changed vertices
  to the heap, patch their offset-dictionary entries, and account the
  superseded bytes in ``dead_bytes``.  Falls back (returns ``False``)
  whenever the base is unusable or the vertex set changed — the caller
  then does a full :func:`write_artifact`.
* :func:`compact_artifact` — rewrite the heap dropping dead bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import ArtifactFormatError
from repro.storage.format import (
    DICT_ENTRY_SIZE,
    HEADER_SIZE,
    KIND_GCT,
    KIND_TSD,
    Header,
    encode_gct_block,
    encode_tsd_block,
    pack_dict_entry,
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


def encode_artifact(payload: Dict,
                    fingerprint: Optional[str] = None) -> bytes:
    """Encode one index payload as a complete binary artifact."""
    kind = payload_kind(payload)
    labels = _labels_blob(payload)
    profile = _profile_blob(payload)
    num_vertices = len(payload["vertices"])

    labels_off = HEADER_SIZE
    profile_off = labels_off + len(labels)
    dict_off = profile_off + len(profile)
    heap_off = dict_off + num_vertices * DICT_ENTRY_SIZE

    entries = []
    heap = bytearray()
    max_weight = 0
    for pos in range(num_vertices):
        block, block_max = _block_at(payload, kind, pos)
        if block is None:
            entries.append(pack_dict_entry(0, 0))
            continue
        entries.append(pack_dict_entry(heap_off + len(heap), len(block)))
        heap += block
        if block_max > max_weight:
            max_weight = block_max

    body = labels + profile + b"".join(entries) + bytes(heap)
    header = Header(
        kind=kind,
        fingerprint=_fingerprint_bytes(fingerprint),
        checksum=hashlib.sha256(body).digest(),
        num_vertices=num_vertices,
        max_weight=max_weight,
        labels_off=labels_off, labels_len=len(labels),
        profile_off=profile_off, profile_len=len(profile),
        dict_off=dict_off, heap_off=heap_off,
        file_len=HEADER_SIZE + len(body),
        dead_bytes=0,
    )
    return header.pack() + body


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


def write_delta(base_path, path, payload: Dict,
                changed: Iterable[object],
                fingerprint: Optional[str] = None) -> bool:
    """Copy-on-write re-version of ``base_path`` into ``path``.

    ``changed`` names the vertex labels whose records may differ from
    the base artifact (the update batch's affected set); every other
    record is carried over byte-for-byte, so ``payload`` need hold only
    the changed vertices' records beside the complete vertex list
    (``to_payload(only=changed)``) — a full payload writes the same
    bytes.  Replacement blocks are
    *appended* to the heap and the superseded offsets rewritten in the
    dictionary — no unchanged record is re-encoded.  Returns ``False``
    without writing when a delta does not apply (missing/foreign base,
    changed vertex set or build profile, kind mismatch); the caller
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
    if labels != base[header.labels_off:
                      header.labels_off + header.labels_len]:
        return False  # vertex set changed: every position shifted
    profile = _profile_blob(payload)
    if profile and profile != base[header.profile_off:
                                   header.profile_off
                                   + header.profile_len]:
        # A *different* profile cannot be patched in place (the region
        # tiling is fixed); a payload with *no* profile keeps the
        # base's — the delta inherits the original build's provenance.
        return False

    position = {v: i for i, v in enumerate(payload["vertices"])}
    changed_positions = sorted({position[v] for v in changed
                                if v in position})

    out = bytearray(base[:header.file_len])
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
    new_header = Header(
        kind=kind,
        fingerprint=_fingerprint_bytes(fingerprint),
        checksum=b"\0" * 32,
        num_vertices=header.num_vertices,
        max_weight=max_weight,
        labels_off=header.labels_off, labels_len=header.labels_len,
        profile_off=header.profile_off, profile_len=header.profile_len,
        dict_off=header.dict_off, heap_off=header.heap_off,
        file_len=len(out), dead_bytes=dead,
    )
    checksum = hashlib.sha256(bytes(out[HEADER_SIZE:])).digest()
    new_header = dataclasses.replace(new_header, checksum=checksum)
    out[:HEADER_SIZE] = new_header.pack()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_bytes_atomic(path, bytes(out))
    return True


def compact_artifact(path) -> int:
    """Rewrite one artifact's heap without its dead bytes.

    Live records are laid out contiguously in position order and every
    dictionary entry rewritten; returns the number of bytes reclaimed
    (0 when the artifact had no dead bytes).
    """
    path = Path(path)
    data = path.read_bytes()
    header = Header.unpack(data, source=str(path))
    if header.dead_bytes == 0:
        return 0
    entries = []
    heap = bytearray()
    for pos in range(header.num_vertices):
        old_off, old_len = unpack_dict_entry(
            data, header.dict_off + pos * DICT_ENTRY_SIZE)
        if old_len == 0:
            entries.append(pack_dict_entry(0, 0))
            continue
        entries.append(pack_dict_entry(header.heap_off + len(heap),
                                       old_len))
        heap += data[old_off:old_off + old_len]
    body = (data[header.labels_off:header.dict_off]
            + b"".join(entries) + bytes(heap))
    new_header = Header(
        kind=header.kind,
        fingerprint=header.fingerprint,
        checksum=hashlib.sha256(body).digest(),
        num_vertices=header.num_vertices,
        max_weight=header.max_weight,
        labels_off=header.labels_off, labels_len=header.labels_len,
        profile_off=header.profile_off, profile_len=header.profile_len,
        dict_off=header.dict_off, heap_off=header.heap_off,
        file_len=HEADER_SIZE + len(body), dead_bytes=0,
    )
    _write_bytes_atomic(path, new_header.pack() + body)
    return header.file_len - new_header.file_len


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
