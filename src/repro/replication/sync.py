"""Follower store sync: mirror an :class:`IndexStore` root byte-cheaply.

A follower root is a warm-start site that shares no disk with the
primary: when a worker's machine (or store root) dies, a respawn can
seed itself from the replica and serve the same artifacts.  The sync
is pull-shaped and idempotent — run it as often as you like; each pass
ships only what the follower is missing.

The paged binary format makes the interesting case cheap.  A delta
re-version (:func:`repro.storage.writer.write_delta`) over an unchanged
vertex list copies its base artifact and only *appends* replacement
blocks and patches the offset dictionary — the labels blob, profile
blob and heap prefix are byte-identical to the base.  So when the
follower already holds any ancestor of an artifact's delta chain, the
new version ships as three byte ranges — header, offset dictionary,
appended heap tail — and the rest is assembled from follower-local
bytes.  A *grown* version (its batch attached vertices) has a longer
labels blob and dictionary, so every heap offset moved: it ships
whole, and the same-set versions after it ship as ranges over it.
Every assembled (and every fully copied) binary artifact is verified
against its header's SHA-256 before it is installed; a mismatch falls
back to a full copy, and a corrupt *source* refuses to replicate at
all.

The follower's ``manifest.json`` is written last (tmp +
:func:`os.replace`), after every artifact it references has landed —
a reader of the follower never sees a manifest pointing at missing or
half-shipped files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ArtifactFormatError, StoreError
from repro.storage.format import HEADER_SIZE, Header

#: Mirror of the store's manifest tag/version (``repro.service.store``);
#: replication validates manifests without constructing an IndexStore
#: (which would *create* one at a path that should stay read-only).
_MANIFEST_FORMAT = "repro-index-store"
_MANIFEST_VERSION = 1

#: Artifact names a version record may reference, in canonical order
#: (mirrors ``repro.service.store.ARTIFACT_NAMES``).
_ARTIFACT_NAMES = ("tsd", "gct", "hybrid")


def read_store_manifest(root) -> Dict:
    """Parse and validate a store manifest without opening the store.

    Never creates or mutates anything under ``root`` — unlike
    constructing an :class:`~repro.service.IndexStore`, which
    initialises an empty manifest at a missing root.  The manifest is
    written atomically by every writer, so a lock-free point-in-time
    read is internally consistent.
    """
    path = Path(root) / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise StoreError(f"{path}: unreadable manifest ({exc})") from exc
    except ValueError as exc:
        raise StoreError(f"{path}: corrupt manifest ({exc})") from exc
    if not isinstance(manifest, dict) \
            or manifest.get("format") != _MANIFEST_FORMAT:
        raise StoreError(f"{path}: not an index-store manifest")
    if manifest.get("version") != _MANIFEST_VERSION:
        raise StoreError(f"{path}: unsupported manifest version "
                         f"{manifest.get('version')!r}")
    return manifest


def verify_artifact(path) -> bool:
    """Whether one binary artifact's bytes match its header checksum."""
    try:
        data = Path(path).read_bytes()
        header = Header.unpack(data, source=str(path))
    except (OSError, ArtifactFormatError):
        return False
    return (header.file_len == len(data)
            and hashlib.sha256(data[HEADER_SIZE:]).digest()
            == header.checksum)


@dataclass(frozen=True)
class ReplicationReport:
    """What one :func:`replicate_store` pass shipped and reused."""

    keys: int             # graph lineages covered
    files_full: int       # artifacts copied whole
    files_delta: int      # artifacts assembled from a follower-local base
    files_skipped: int    # already present and verified
    files_repaired: int   # present but wrong/corrupt; re-synced
    bytes_shipped: int    # bytes read from the primary's files
    bytes_reused: int     # bytes taken from follower-local bases/files
    #: Per selected graph key, the newest version number the follower
    #: durably holds after this pass — the journal-checkpoint floor.
    version_floors: Dict[str, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.version_floors is None:
            object.__setattr__(self, "version_floors", {})

    @property
    def files_synced(self) -> int:
        """Artifacts that moved this pass (full + delta)."""
        return self.files_full + self.files_delta

    def summary(self) -> str:
        """One-line human summary for service logs."""
        return (f"replicated {self.keys} lineage(s): "
                f"{self.files_full} full, {self.files_delta} delta, "
                f"{self.files_skipped} up-to-date, "
                f"{self.files_repaired} repaired "
                f"({self.bytes_shipped:,} B shipped, "
                f"{self.bytes_reused:,} B reused)")

    def to_payload(self) -> Dict[str, object]:
        """JSON-able form (surfaced through cluster stats)."""
        return {
            "keys": self.keys,
            "files_full": self.files_full,
            "files_delta": self.files_delta,
            "files_skipped": self.files_skipped,
            "files_repaired": self.files_repaired,
            "bytes_shipped": self.bytes_shipped,
            "bytes_reused": self.bytes_reused,
            "version_floors": dict(self.version_floors),
        }


def _write_bytes_atomic(path: Path, data: bytes) -> None:
    """Durable write: tmp sibling + :func:`os.replace`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _index_manifest(graphs: Dict, selected: Set[str]) -> Tuple[
        Dict[str, Tuple[str, str]], Dict[Tuple[str, str], List[str]],
        Dict[str, Set[str]]]:
    """Index the source manifest for the sync pass.

    Returns ``(wanted, bases, parents)``: the relpaths the selected
    keys reference (→ owning ``(key, artifact name)``), *every* key's
    per-artifact relpath list in version order (delta-base candidates —
    a base may belong to a key outside the selection, e.g. an earlier
    sync already shipped the parent lineage), and each key's
    cross-lineage parent keys.
    """
    wanted: Dict[str, Tuple[str, str]] = {}
    bases: Dict[Tuple[str, str], List[str]] = {}
    parents: Dict[str, Set[str]] = {}
    for key, entry in graphs.items():
        for number, record in sorted(entry["versions"].items(),
                                     key=lambda item: int(item[0])):
            for name in _ARTIFACT_NAMES:
                relpath = record.get(name)
                if relpath is None:
                    continue
                bucket = bases.setdefault((key, name), [])
                if relpath not in bucket:
                    bucket.append(relpath)
                if key in selected:
                    wanted.setdefault(relpath, (key, name))
            parent = record.get("parent")
            if parent is not None:
                parents.setdefault(key, set()).add(parent["key"])
    return wanted, bases, parents


def _delta_candidates(relpath: str, key: str, name: str,
                      bases: Dict[Tuple[str, str], List[str]],
                      parents: Dict[str, Set[str]]) -> List[str]:
    """Follower-local base candidates for one binary artifact.

    The artifact's own lineage (other versions of the same key) plus
    cross-lineage parents' — a live-update delta chain crosses keys
    because updated graph content fingerprints differently.  Later
    versions first: the longest base reuses the most bytes.
    """
    candidates: List[str] = []
    for base_key in [key] + sorted(parents.get(key, ())):
        for candidate in bases.get((base_key, name), ()):
            if candidate != relpath and candidate not in candidates:
                candidates.append(candidate)
    candidates.reverse()
    return [c for c in candidates if c.endswith(".bin")]


def _read_ranges(path: Path, ranges: List[Tuple[int, int]]) -> List[bytes]:
    """Read ``(offset, length)`` byte ranges from one file."""
    chunks = []
    with path.open("rb") as handle:
        for offset, length in ranges:
            handle.seek(offset)
            chunk = handle.read(length)
            if len(chunk) != length:
                raise StoreError(f"{path}: truncated read at {offset} "
                                 f"(wanted {length}, got {len(chunk)})")
            chunks.append(chunk)
    return chunks


def _try_delta(src_path: Path, dst_path: Path, src_header: Header,
               src_header_bytes: bytes, follower_root: Path,
               candidates: List[str]) -> Optional[Tuple[int, int]]:
    """Assemble ``dst_path`` from a local base + shipped byte ranges.

    Returns ``(bytes_shipped, bytes_reused)`` on success, ``None`` when
    no candidate base applies (caller falls back to a full copy).  The
    assembled bytes must hash to the source header's checksum — a base
    that diverged (or was corrupted) is simply not used.
    """
    for candidate in candidates:
        base_path = follower_root / candidate
        try:
            base = base_path.read_bytes()
            base_header = Header.unpack(base, source=str(base_path))
        except (OSError, ArtifactFormatError):
            continue
        if (base_header.kind != src_header.kind
                or base_header.num_vertices != src_header.num_vertices
                or base_header.labels_off != src_header.labels_off
                or base_header.labels_len != src_header.labels_len
                or base_header.profile_off != src_header.profile_off
                or base_header.profile_len != src_header.profile_len
                or base_header.dict_off != src_header.dict_off
                or base_header.heap_off != src_header.heap_off
                or base_header.file_len != len(base)
                or base_header.file_len > src_header.file_len):
            continue
        dict_len = src_header.heap_off - src_header.dict_off
        tail_len = src_header.file_len - base_header.file_len
        dict_bytes, tail = _read_ranges(
            src_path, [(src_header.dict_off, dict_len),
                       (base_header.file_len, tail_len)])
        out = bytearray(src_header_bytes)
        out += base[HEADER_SIZE:src_header.dict_off]
        out += dict_bytes
        out += base[src_header.heap_off:base_header.file_len]
        out += tail
        if hashlib.sha256(bytes(out[HEADER_SIZE:])).digest() \
                != src_header.checksum:
            continue  # base diverged from this delta chain: unusable
        _write_bytes_atomic(dst_path, bytes(out))
        shipped = HEADER_SIZE + dict_len + tail_len
        return shipped, len(out) - shipped
    return None


def replicate_store(source_root, follower_root, *,
                    keys: Optional[List[str]] = None,
                    merge: bool = False,
                    throttle: Optional[Callable[[str], None]] = None,
                    ) -> ReplicationReport:
    """One sync pass: make ``follower_root`` serve ``source_root``'s keys.

    Parameters
    ----------
    source_root:
        The primary store's root.  Read-only: nothing under it is
        created or mutated, and no lock is taken — the manifest and
        every artifact are written atomically by the store, so a
        point-in-time read is consistent.  (A file deleted by a
        concurrent ``compact`` surfaces as a
        :class:`~repro.errors.StoreError`; rerun the pass.)
    follower_root:
        The replica root (created if missing).  After the pass, it is
        a valid store root: an :class:`~repro.service.IndexStore`
        opened on it warm-starts the replicated lineages.
    keys:
        Restrict the sync to these graph keys (default: all).
    merge:
        Keep the follower's existing catalogue entries for keys the
        source does not carry (the shard-move path merges one worker's
        lineages into another worker's live store).  Without ``merge``
        the follower manifest becomes an exact mirror of the selection.
    throttle:
        Called with each relpath before it is examined — the fault
        harness's slow-follower hook.
    """
    source_root = Path(source_root)
    follower_root = Path(follower_root)
    manifest = read_store_manifest(source_root)
    graphs: Dict = manifest["graphs"]
    selected = set(graphs) if keys is None else set(keys)
    unknown = selected - set(graphs)
    if unknown:
        raise StoreError(f"{source_root}: no such graph key(s) "
                         f"{sorted(unknown)}")
    follower_root.mkdir(parents=True, exist_ok=True)
    wanted, bases, parents = _index_manifest(graphs, selected)

    full = delta = skipped = repaired = 0
    shipped = reused = 0
    for relpath in sorted(wanted):
        key, name = wanted[relpath]
        if throttle is not None:
            throttle(relpath)
        src_path = source_root / relpath
        dst_path = follower_root / relpath
        try:
            if relpath.endswith(".bin"):
                outcome, f_shipped, f_reused = _sync_binary(
                    src_path, dst_path, follower_root,
                    _delta_candidates(relpath, key, name, bases, parents))
            else:
                outcome, f_shipped, f_reused = _sync_json(src_path,
                                                          dst_path)
        except OSError as exc:
            raise StoreError(
                f"replicating {relpath} failed ({exc}) — the source "
                f"store may have compacted mid-pass; rerun") from exc
        shipped += f_shipped
        reused += f_reused
        if outcome == "skipped":
            skipped += 1
            continue
        if outcome == "repaired-full":
            repaired += 1
            outcome = "full"
        elif outcome == "repaired-delta":
            repaired += 1
            outcome = "delta"
        if outcome == "full":
            full += 1
        else:
            delta += 1

    graphs_out: Dict = {}
    if merge:
        try:
            graphs_out = dict(read_store_manifest(follower_root)["graphs"])
        except StoreError:
            graphs_out = {}  # fresh or unreadable follower: start clean
    for key in sorted(selected):
        graphs_out[key] = graphs[key]
    _write_bytes_atomic(
        follower_root / "manifest.json",
        json.dumps({"format": _MANIFEST_FORMAT,
                    "version": _MANIFEST_VERSION,
                    "graphs": graphs_out},
                   indent=2, separators=(",", ": "),
                   sort_keys=False).encode("utf-8"))
    floors = {
        key: max(int(number) for number in graphs[key]["versions"])
        for key in sorted(selected) if graphs[key]["versions"]
    }
    return ReplicationReport(keys=len(selected), files_full=full,
                             files_delta=delta, files_skipped=skipped,
                             files_repaired=repaired,
                             bytes_shipped=shipped, bytes_reused=reused,
                             version_floors=floors)


def _sync_json(src_path: Path, dst_path: Path) -> Tuple[str, int, int]:
    """Sync one JSON artifact (whole-file; content-hash compared).

    JSON artifacts carry no internal checksum, so equality is decided
    by hashing both sides.
    """
    src = src_path.read_bytes()
    if dst_path.exists():
        dst = dst_path.read_bytes()
        if hashlib.sha256(dst).digest() == hashlib.sha256(src).digest():
            return "skipped", 0, len(src)
        _write_bytes_atomic(dst_path, src)
        return "repaired-full", len(src), 0
    _write_bytes_atomic(dst_path, src)
    return "full", len(src), 0


def _sync_binary(src_path: Path, dst_path: Path, follower_root: Path,
                 candidates: List[str]) -> Tuple[str, int, int]:
    """Sync one binary artifact: skip, byte-range delta, or full copy."""
    src_header_bytes, = _read_ranges(src_path, [(0, HEADER_SIZE)])
    src_header = Header.unpack(src_header_bytes, source=str(src_path))
    present = False
    if dst_path.exists():
        present = True
        try:
            dst = dst_path.read_bytes()
            dst_header = Header.unpack(dst, source=str(dst_path))
        except (OSError, ArtifactFormatError):
            dst = b""
            dst_header = None
        if dst_header is not None \
                and dst_header.checksum == src_header.checksum \
                and dst_header.file_len == len(dst) \
                and hashlib.sha256(dst[HEADER_SIZE:]).digest() \
                == dst_header.checksum:
            return "skipped", 0, len(dst)
        # Present but stale (compaction rewrote it in place) or
        # corrupt (truncated / flipped bytes): re-sync below.
    assembled = _try_delta(src_path, dst_path, src_header,
                           src_header_bytes, follower_root, candidates)
    if assembled is not None:
        shipped, reused = assembled
        return ("repaired-delta" if present else "delta"), shipped, reused
    data = src_path.read_bytes()
    if src_header.file_len != len(data) \
            or hashlib.sha256(data[HEADER_SIZE:]).digest() \
            != src_header.checksum:
        raise StoreError(f"{src_path}: source artifact fails its "
                         f"checksum; refusing to replicate corruption")
    _write_bytes_atomic(dst_path, data)
    return ("repaired-full" if present else "full"), len(data), 0
