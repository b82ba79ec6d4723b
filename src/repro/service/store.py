"""The :class:`IndexStore`: a versioned on-disk home for index artifacts.

The paper's indexes only pay off when they are built once and served
many times — yet a restarted process used to start cold and rebuild
everything.  The store closes that gap: it keeps, per *graph content*,
a versioned lineage of index artifacts (TSD forests, GCT supernode
forests, hybrid rankings) so any later process serving the same graph
can skip every build.

Layout on disk::

    <root>/
      manifest.json                    # the store catalogue
      .lock                            # cross-process writer lock
      objects/<graph-key>/v<N>/tsd.bin       # paged binary (RBIX)
      objects/<graph-key>/v<N>/gct.bin
      objects/<graph-key>/v<N>/hybrid.json
      objects/<graph-key>/v<N>/scores.json   # persisted score cache

Design notes
------------
* **Content addressing.**  Graphs are keyed by :func:`graph_fingerprint`
  — a SHA-256 over the insertion-ordered vertex list and the canonical
  edge list.  Two structurally identical graphs (same labels, same
  insertion order) share a key, so a warm start never needs a path or a
  name, just the graph it is about to serve.  :class:`ContentKey`
  holds the hashed bytes in per-vertex segments, so a live update
  re-encodes only the segments its edges change to key its version.
* **Versioning.**  Every :meth:`IndexStore.put` creates a new version.
  Artifacts the caller did not re-supply are *carried forward* by
  reference: the manifest records each artifact's relative path, so a
  live update that only patched the TSD and GCT artifacts re-versions
  the lineage without rewriting the untouched hybrid rankings.
* **Format ownership.**  The store persists payloads produced by
  ``TSDIndex.to_payload`` / ``GCTIndex.to_payload`` /
  ``HybridSearcher.to_payload`` (and, for the ``scores`` artifact,
  :func:`repro.service.snapshot.scores_to_payload`) and hands them back
  to the matching ``from_payload`` — it never interprets artifact
  internals.
* **One format per artifact kind.**  ``tsd``/``gct`` are always
  written in the paged binary format of :mod:`repro.storage`, which
  :meth:`load` opens lazily through an mmap so a warm start pays O(1)
  decode instead of deserialising every forest; ``hybrid``/``scores``
  are small graph-attached JSON payloads.  On read the file suffix
  picks the decoder, so a ``.json`` ``tsd``/``gct`` written by an
  older release still loads (eagerly) and :meth:`convert` migrates it.
* **Durability.**  Artifact and manifest writes go through tmp +
  ``os.replace``; ``put`` / ``put_scores`` / ``compact`` hold an
  on-disk lock and re-read the manifest first, so concurrent writers
  sharing a root never lose each other's versions.

Examples
--------
>>> import tempfile
>>> from repro.datasets.paper import figure1_graph
>>> from repro.core.tsd import TSDIndex
>>> g = figure1_graph()
>>> store = IndexStore(tempfile.mkdtemp())
>>> version = store.put(g, tsd=TSDIndex.build(g))
>>> version.version
1
>>> store.load(g).tsd.score("v", 4)
3
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import IndexFormatError, StoreError
from repro.graph.graph import Graph
from repro.core.tsd import TSDIndex
from repro.core.gct import GCTIndex
from repro.core.hybrid import HybridSearcher
from repro.service.lock import StoreLock
from repro.service.snapshot import ScoreEntry, scores_from_payload
from repro.storage.lazy import open_gct_artifact, open_tsd_artifact
from repro.storage.reader import read_payload
from repro.storage.writer import compact_artifact, write_artifact, write_delta
from repro.util.jsonio import dumps_payload

_MANIFEST_FORMAT = "repro-index-store"
_MANIFEST_VERSION = 1

#: Artifact names the store understands, in persistence order.  The
#: ``scores`` artifact is a snapshot's persisted per-``k`` score cache
#: (:func:`repro.service.snapshot.scores_to_payload`), so hot
#: thresholds restart warm alongside the indexes.
ARTIFACT_NAMES = ("tsd", "gct", "hybrid", "scores")

#: The per-vertex-record artifacts, written as ``<name>.bin``; the
#: other names are written as ``<name>.json``.
_INDEX_CLASSES = {"tsd": TSDIndex, "gct": GCTIndex}
_LAZY_OPENERS = {"tsd": open_tsd_artifact, "gct": open_gct_artifact}

#: What decoding a damaged or foreign artifact file can raise; the
#: binary reader's own failures are already typed (ArtifactFormatError).
_DECODE_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError,
                  AttributeError, IndexFormatError)


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of a graph: SHA-256 over vertices and canonical edges.

    The digest covers the insertion-ordered vertex list *and* the edge
    list, because index artifacts depend on both (the canonical ranking
    contract breaks ties by insertion order).  Labels must be
    JSON-encodable — the same requirement the index savers impose.

    The hashed blob is the compact JSON of ``[vertices, edges]``, the
    edges as position pairs sorted ascending: :meth:`Graph.edges`
    iterates adjacency *sets*, whose internal order is not preserved by
    :meth:`Graph.copy`, so hashing the raw iteration order would give a
    graph and its copy different keys.  :class:`ContentKey` encodes
    that blob in per-vertex segments; this is its full build.
    """
    return ContentKey.of(graph).digest


def _segment(i: int, neighbours: Iterable[int]) -> str:
    """Vertex ``i``'s share of the sorted edge list: ``"[i,j],"`` for
    every neighbour position ``j > i``, ascending."""
    higher = sorted([j for j in neighbours if j > i])
    if not higher:
        return ""
    head = f"[{i},"
    return head + ("]," + head).join(map(str, higher)) + "],"


def _vertices_json(order: List) -> str:
    return json.dumps(order, separators=(",", ":"))


class ContentKey:
    """A graph's store key, kept as the per-vertex pieces it hashes.

    The sorted edge list :func:`graph_fingerprint` hashes is the
    concatenation, in vertex position order, of one *segment* per
    vertex ``i``: ``"[i,j],"`` for each neighbour ``j`` positioned after
    ``i``, ascending.  Holding the segments lets an edge batch re-encode
    only the segments it changed (each edge's lower-positioned
    endpoint's) and re-hash their join, so a successor graph's key
    costs its change plus one O(m)-byte SHA-256 — and is byte-identical
    to a full :func:`graph_fingerprint`, so no store is ever re-keyed.
    A key is immutable once built; successors share its segments.
    """

    __slots__ = ("_vertices", "_segments", "digest")

    def __init__(self, vertices_json: str, segments: List[str]) -> None:
        self._vertices = vertices_json
        self._segments = segments
        blob = "[" + vertices_json + ",[" + "".join(segments)[:-1] + "]]"
        #: The hex SHA-256 — what the store files this content under.
        self.digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def of(cls, graph: Graph) -> "ContentKey":
        """Encode every vertex's segment: the O(n + m) full build."""
        order = list(graph.vertices())
        position = {v: i for i, v in enumerate(order)}
        return cls(_vertices_json(order),
                   [_segment(i, map(position.__getitem__,
                                    graph.neighbors(v)))
                    for i, v in enumerate(order)])

    def successor(self, graph: Graph, order: List,
                  position: Dict, owners: Iterable) -> "ContentKey":
        """The key of ``graph``: this key's graph after an edge batch.

        ``order``/``position`` are ``graph``'s vertex list and position
        map, and must extend this key's vertex list (an edge batch only
        appends vertices, so no position shifts).  ``owners`` are the
        vertices whose segments the batch changed — the lower-positioned
        endpoint of every inserted or deleted edge.  That covers the
        appended vertices too: a segment only holds edges to vertices
        positioned later, so an appended vertex's edges are all batch
        edges, and it owns every one in its segment.
        """
        segments = list(self._segments)
        grown = len(order) - len(segments)
        vertices_json = self._vertices
        if grown:
            segments.extend([""] * grown)
            tail = _vertices_json(order[-grown:])
            vertices_json = (tail if vertices_json == "[]"
                             else vertices_json[:-1] + "," + tail[1:])
        for i in sorted({position[v] for v in owners}):
            segments[i] = _segment(i, map(position.__getitem__,
                                          graph.neighbors(order[i])))
        return ContentKey(vertices_json, segments)


@dataclass(frozen=True)
class StoreVersion:
    """One version of one graph's artifact lineage."""

    key: str
    version: int
    artifacts: Dict[str, str] = field(default_factory=dict)  # name -> relpath

    @property
    def artifact_names(self) -> List[str]:
        """Artifacts present in this version, in canonical order."""
        return [name for name in ARTIFACT_NAMES if name in self.artifacts]


@dataclass(frozen=True)
class StoredIndexes:
    """Deserialized artifacts of one store version, ready to serve."""

    version: StoreVersion
    tsd: Optional[TSDIndex] = None
    gct: Optional[GCTIndex] = None
    hybrid: Optional[HybridSearcher] = None
    scores: Optional[Dict[int, ScoreEntry]] = None

    @property
    def loaded_names(self) -> List[str]:
        """Names of the artifacts that were actually materialised."""
        return [name for name, obj in
                (("tsd", self.tsd), ("gct", self.gct),
                 ("hybrid", self.hybrid), ("scores", self.scores))
                if obj is not None]


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`IndexStore.compact` pass reclaimed."""

    removed_versions: int
    removed_keys: Tuple[str, ...]
    removed_files: int
    reclaimed_bytes: int
    kept_versions: int

    def summary(self) -> str:
        """One-line human summary for service logs."""
        return (f"compacted: {self.removed_versions} version(s) and "
                f"{len(self.removed_keys)} superseded lineage(s) removed, "
                f"{self.removed_files} file(s) deleted "
                f"({self.reclaimed_bytes:,} bytes), "
                f"{self.kept_versions} version(s) kept")

    def to_payload(self) -> Dict[str, object]:
        """JSON-able form (the HTTP ``/compact`` response body)."""
        return {
            "removed_versions": self.removed_versions,
            "removed_keys": list(self.removed_keys),
            "removed_files": self.removed_files,
            "reclaimed_bytes": self.reclaimed_bytes,
            "kept_versions": self.kept_versions,
        }


class IndexStore:
    """A persistent, versioned store of index artifacts keyed by graph.

    Parameters
    ----------
    root:
        Directory holding the store; created (with parents) if missing.
        An existing directory must contain a valid manifest or be empty.
    """

    def __init__(self, root) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self._root / "manifest.json"
        # In-process writer mutex, held alongside the cross-process
        # StoreLock: even one process can host concurrent writers (the
        # router's per-graph update threads share this store), and the
        # pid-file fallback lock is not reentrant across threads.
        self._write_mutex = threading.Lock()
        # Parsed-manifest cache keyed by (st_mtime_ns, st_size): every
        # locked operation re-reads the manifest to merge concurrent
        # writers, but re-*parsing* an unchanged file is pure waste on
        # a hot update path.  The tuple is rebound atomically, so a
        # lock-free refresh() sees the old or new pair, never a mix.
        self._manifest_cache: Optional[Tuple[Tuple[int, int], Dict]] = None
        if self._manifest_path.exists():
            self._manifest = self._read_manifest()
        else:
            self._manifest = {"format": _MANIFEST_FORMAT,
                              "version": _MANIFEST_VERSION, "graphs": {}}
            # Under the lock (which adopts a manifest that appeared
            # meanwhile): two processes opening one fresh root would
            # otherwise race on the shared ``manifest.json.tmp``.
            with self._locked():
                if not self._manifest_path.exists():
                    self._write_manifest()

    # ------------------------------------------------------------------
    # Manifest plumbing
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    def _read_manifest(self) -> Dict:
        try:
            stat = self._manifest_path.stat()
            stamp = (stat.st_mtime_ns, stat.st_size)
            cached = self._manifest_cache
            if cached is not None and cached[0] == stamp:
                return cached[1]  # unchanged on disk: skip the parse
            manifest = json.loads(
                self._manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"{self._manifest_path}: unreadable manifest ({exc})") from exc
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise StoreError(
                f"{self._manifest_path}: not an index-store manifest")
        if manifest.get("version") != _MANIFEST_VERSION:
            raise StoreError(
                f"{self._manifest_path}: unsupported manifest version "
                f"{manifest.get('version')!r}")
        self._manifest_cache = (stamp, manifest)
        return manifest

    def _write_manifest(self) -> None:
        # Write-then-rename keeps the manifest readable even if the
        # process dies mid-write (a torn manifest would orphan every
        # artifact in the store).
        self._write_json_atomic(self._manifest_path, self._manifest,
                                indent=2)
        try:
            stat = self._manifest_path.stat()
        except OSError:  # pragma: no cover - raced by a concurrent rm
            self._manifest_cache = None
            return
        # The freshly replaced file *is* self._manifest: stamp it so the
        # next locked re-read skips the parse instead of re-reading our
        # own write back.
        self._manifest_cache = ((stat.st_mtime_ns, stat.st_size),
                                self._manifest)

    def _write_json_atomic(self, path: Path, payload: Dict,
                           indent: Optional[int] = None) -> None:
        """Write JSON via tmp + :func:`os.replace` — never a torn file."""
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(dumps_payload(payload, indent=indent),
                       encoding="utf-8")
        os.replace(tmp, path)

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive on-disk lock + manifest re-read for store writes.

        Two processes (or two :class:`IndexStore` instances) sharing a
        root each hold their own in-memory manifest; without the lock
        and re-read, concurrent ``put`` calls would race on
        ``manifest.json`` and the last write would silently drop the
        other's versions.  A :class:`~repro.service.lock.StoreLock` on
        ``<root>/.lock`` serialises writers across processes (``flock``
        on POSIX, a stale-breaking pid file elsewhere — either way a
        writer killed mid-``put`` never wedges later writers);
        re-reading the manifest under the lock merges whatever others
        committed meanwhile.  An in-process mutex wraps the whole
        section, so concurrent writer threads in *one* process (the
        router's per-graph updates) stay safe regardless of platform.
        """
        with self._write_mutex:
            lock = StoreLock(self._root / ".lock")
            lock.acquire()
            try:
                if self._manifest_path.exists():
                    self._manifest = self._read_manifest()
                yield
            finally:
                lock.release()

    def refresh(self) -> None:
        """Re-read the manifest from disk (another writer may have
        committed since this instance last looked)."""
        if self._manifest_path.exists():
            self._manifest = self._read_manifest()  # repro-lint: disable=RL002 -- single atomic rebind; readers see the old or new snapshot, never a torn one

    # ------------------------------------------------------------------
    # Catalogue queries
    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """Graph keys with at least one stored version."""
        return list(self._manifest["graphs"])

    def has(self, graph: Graph, key: Optional[str] = None) -> bool:
        """Whether this graph's content has any stored version.

        ``key`` skips re-hashing when the caller already fingerprinted
        the graph (hashing every edge is the expensive part of a
        catalogue lookup on a large graph).
        """
        return (key or graph_fingerprint(graph)) in self._manifest["graphs"]

    @staticmethod
    def _record_artifacts(record: Dict) -> Dict[str, str]:
        """Artifact paths of one version record (metadata keys dropped)."""
        return {name: record[name] for name in ARTIFACT_NAMES
                if name in record}

    def _version_from_record(self, key: str, number: int,
                             record: Dict) -> StoreVersion:
        return StoreVersion(key=key, version=number,
                            artifacts=self._record_artifacts(record))

    def versions(self, key: str) -> List[StoreVersion]:
        """All versions of one graph's lineage, oldest first."""
        entry = self._manifest["graphs"].get(key)
        if entry is None:
            raise StoreError(f"no stored indexes for graph key {key!r}")
        return [self._version_from_record(key, int(number), record)
                for number, record in sorted(entry["versions"].items(),
                                             key=lambda item: int(item[0]))]

    def current(self, graph: Graph, key: Optional[str] = None) -> StoreVersion:
        """The current (latest) version of this graph's lineage.

        ``key`` skips re-hashing, as in :meth:`has`.
        """
        key = key or graph_fingerprint(graph)
        entry = self._manifest["graphs"].get(key)
        if entry is None:
            raise StoreError(
                f"no stored indexes for this graph (key {key[:12]}…); "
                "run a build first (repro serve-build)")
        number = entry["current"]
        return self._version_from_record(key, number,
                                         entry["versions"][str(number)])

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, graph: Graph, *,
            tsd: Optional[TSDIndex] = None,
            gct: Optional[GCTIndex] = None,
            hybrid: Optional[HybridSearcher] = None,
            scores: Optional[Dict] = None,
            previous: Optional[StoreVersion] = None,
            changed_vertices=None,
            key: Optional[str] = None) -> StoreVersion:
        """Persist artifacts as a new version of this graph's lineage.

        Artifacts passed as ``None`` are carried forward by reference
        from this graph's current version — only changed artifacts are
        rewritten, which is what makes a re-version cheap.  At least
        one artifact must end up in the new version.  ``scores`` is a
        :func:`~repro.service.snapshot.scores_to_payload` dict (the
        snapshot's per-``k`` score cache); an empty payload is skipped
        rather than stored.

        ``previous`` links lineages across *content changes*: a live
        update produces a graph with a new fingerprint, so its patched
        artifacts land under a new key whose version numbering
        continues from (and whose manifest record points back to) the
        pre-update version.  Nothing is carried forward across a
        content change — an artifact computed for different graph
        content is stale by definition (a carried-over hybrid ranking
        would silently serve pre-update scores), so a cross-lineage
        version holds exactly the artifacts supplied here.

        ``changed_vertices`` (an update batch's affected-vertex set)
        enables delta re-versions of ``tsd``/``gct``: the previous
        version's artifact bytes are carried over with only the changed
        records appended and their dictionary offsets patched — no
        unchanged record is re-encoded, or even put in payload form
        (see :func:`repro.storage.writer.write_delta`).  Without a
        ``.bin`` base artifact (none, or a legacy ``.json`` one), or
        when the delta is refused (changed vertex set), the full
        payload is built and written instead.

        ``key`` skips re-hashing, as in :meth:`has`: the service passes
        its snapshot's :attr:`~repro.service.snapshot.Snapshot.content_key`.

        Artifact files are written via tmp + :func:`os.replace` and the
        whole operation holds the store's on-disk lock (with a manifest
        re-read), so a crash mid-write never leaves a torn artifact and
        concurrent writers sharing a root never lose versions.
        """
        if scores is not None and not scores.get("thresholds"):
            scores = None  # nothing cached: don't store an empty payload
        key = key or graph_fingerprint(graph)
        with self._locked():
            entry = self._manifest["graphs"].setdefault(
                key, {"current": 0, "versions": {}})
            number = entry["current"] + 1
            if previous is not None and previous.version + 1 > number:
                number = previous.version + 1
            version_dir = self._root / "objects" / key / f"v{number}"
            carried = entry["versions"].get(str(entry["current"]), {})

            artifacts: Dict[str, str] = {}
            supplied = {"tsd": tsd, "gct": gct, "hybrid": hybrid,
                        "scores": scores}
            for name in ARTIFACT_NAMES:
                obj = supplied[name]
                if obj is None:
                    if name in carried:
                        artifacts[name] = carried[name]  # carried forward
                    continue
                version_dir.mkdir(parents=True, exist_ok=True)
                if name in _INDEX_CLASSES:
                    path = version_dir / f"{name}.bin"
                    base = (self._delta_base(name, previous, carried)
                            if changed_vertices is not None else None)
                    # A delta encodes the changed records only.
                    if base is None or not write_delta(
                            self._root / base, path,
                            obj.to_payload(only=changed_vertices),
                            changed_vertices, fingerprint=key):
                        write_artifact(path, obj.to_payload(),
                                       fingerprint=key)
                else:
                    path = version_dir / f"{name}.json"
                    self._write_json_atomic(
                        path, obj if name == "scores" else obj.to_payload())
                artifacts[name] = str(path.relative_to(self._root))
            if not any(name in artifacts for name in
                       ("tsd", "gct", "hybrid")):
                raise StoreError("refusing to store an index-less version: "
                                 "supply at least one of tsd=, gct=, hybrid=")

            record = dict(artifacts)
            if previous is not None and previous.key != key:
                record["parent"] = {"key": previous.key,
                                    "version": previous.version}
            entry["versions"][str(number)] = record
            entry["current"] = number
            self._write_manifest()
        return StoreVersion(key=key, version=number, artifacts=artifacts)

    @staticmethod
    def _delta_base(name: str, previous: Optional[StoreVersion],
                    carried: Dict) -> Optional[str]:
        """The relpath a delta write may build on, or ``None``.

        A usable base is the same-name ``.bin`` artifact of the linked
        previous version (the cross-lineage update path) or of the same
        lineage's current version.  A legacy ``.json`` base has no
        record dictionary to patch.
        """
        for relpath in ((previous.artifacts.get(name) if previous else None),
                        carried.get(name)):
            if relpath is not None and relpath.endswith(".bin"):
                return relpath
        return None

    def put_scores(self, graph: Graph, scores: Dict,
                   key: Optional[str] = None) -> Optional[StoreVersion]:
        """Attach (or refresh) the current version's ``scores`` artifact.

        Score caches are derived data that grows *while serving* — hot
        thresholds get memoised long after the indexes were persisted —
        so unlike :meth:`put` this updates the current version's record
        in place instead of minting a new version.  Returns the updated
        :class:`StoreVersion`, or ``None`` when the payload holds no
        thresholds (an empty cache is not worth a write).  ``key``
        skips re-hashing, as in :meth:`has`.
        """
        if not scores.get("thresholds"):
            return None
        with self._locked():
            version = self.current(graph, key=key)
            entry = self._manifest["graphs"][version.key]
            version_dir = (self._root / "objects" / version.key
                           / f"v{version.version}")
            version_dir.mkdir(parents=True, exist_ok=True)
            path = version_dir / "scores.json"
            self._write_json_atomic(path, scores)
            relpath = str(path.relative_to(self._root))
            entry["versions"][str(version.version)]["scores"] = relpath
            self._write_manifest()
            artifacts = dict(version.artifacts)
            artifacts["scores"] = relpath
        return StoreVersion(key=version.key, version=version.version,
                            artifacts=artifacts)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @staticmethod
    def _read(name: str, path: Path, graph: Optional[Graph] = None,
              lazy: bool = False):
        """Decode one artifact file; its suffix picks the decoder.

        ``.bin`` is the paged binary format (opened through the mmap
        reader when ``lazy``), anything else a whole-payload JSON file.
        Every decode failure raises :class:`StoreError` naming the file.
        """
        try:
            if path.suffix == ".bin":
                if lazy and name in _LAZY_OPENERS:
                    return _LAZY_OPENERS[name](path)
                payload = read_payload(path)
            else:
                payload = json.loads(path.read_text(encoding="utf-8"))
            if name == "hybrid":
                return HybridSearcher.from_payload(graph, payload,
                                                   source=str(path))
            if name == "scores":
                return scores_from_payload(payload)
            return _INDEX_CLASSES[name].from_payload(payload,
                                                     source=str(path))
        except _DECODE_ERRORS as exc:
            raise StoreError(
                f"{path}: unreadable {name} artifact ({exc})") from exc

    def load(self, graph: Graph,
             names: Optional[List[str]] = None,
             key: Optional[str] = None,
             lazy: bool = True) -> StoredIndexes:
        """Materialise the current version's artifacts for this graph.

        ``names`` restricts which artifacts are deserialized (all stored
        ones by default); ``key`` skips re-hashing, as in :meth:`has`.
        The hybrid artifact is re-attached to ``graph`` — its payload
        carries rankings, not the graph.

        ``lazy`` (default) opens ``.bin`` ``tsd``/``gct`` artifacts
        through the mmap reader — the index is constructed from the
        file's label list and a lazy forest provider, so a warm start
        decodes no per-vertex record until a query touches it.  Pass
        ``lazy=False`` to force full materialisation.  A legacy
        ``.json`` ``tsd``/``gct`` always materialises.  A damaged
        artifact raises :class:`StoreError` naming the file.
        """
        version = self.current(graph, key=key)
        wanted = version.artifact_names if names is None else list(names)
        loaded = {name: self._read(name, self._root / version.artifacts[name],
                                   graph, lazy)
                  for name in wanted if name in version.artifacts}
        return StoredIndexes(version=version, **loaded)

    # ------------------------------------------------------------------
    # Legacy migration
    # ------------------------------------------------------------------
    def convert(self) -> int:
        """Migrate legacy JSON ``tsd``/``gct`` artifacts to ``.bin`` in place.

        Each physical file migrates exactly once — carry-forward means
        several version records can reference one relpath, and all of
        them are rewired to the new file.  New files are written
        (tmp + :func:`os.replace`) before the manifest flips and the old
        files are unlinked, so a crash mid-migration leaves a readable
        store: either the manifest still points at the old files, or it
        points at complete new ones.  Returns the number of files
        migrated (``0`` once the store holds no legacy artifact).
        """
        with self._locked():
            graphs = self._manifest["graphs"]
            # Pass 1: migrate each unique referenced file once.
            new_relpath: Dict[str, str] = {}  # old relpath -> new relpath
            for key, entry in graphs.items():
                for record in entry["versions"].values():
                    for name in _INDEX_CLASSES:
                        relpath = record.get(name)
                        if relpath is None or relpath.endswith(".bin") \
                                or relpath in new_relpath:
                            continue
                        path = self._root / relpath
                        new_path = path.with_suffix(".bin")
                        write_artifact(new_path,
                                       self._read(name, path).to_payload(),
                                       fingerprint=key)
                        new_relpath[relpath] = str(
                            new_path.relative_to(self._root))
            if not new_relpath:
                return 0
            # Pass 2: rewire every record that references a migrated file.
            for entry in graphs.values():
                for record in entry["versions"].values():
                    for name in _INDEX_CLASSES:
                        if record.get(name) in new_relpath:
                            record[name] = new_relpath[record[name]]
            self._write_manifest()
            for relpath in new_relpath:
                try:
                    (self._root / relpath).unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
        return len(new_relpath)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, keep: Iterable[str] = ()) -> CompactionReport:
        """Garbage-collect versions unreachable from any lineage head.

        A long-running service re-versions its lineage on every update
        batch, so the store grows without bound.  Compaction keeps only
        the *heads*: each graph key's current version, minus keys whose
        current version has been superseded by a cross-lineage child
        (a ``parent`` link points at it — the update lineage moved on
        to new graph content).  Everything else is dropped from the
        manifest.

        ``keep`` names graph keys whose current version must survive
        even when superseded — a caller (the router) may still be
        *serving* a lineage another service's updates have moved past.

        Artifact *files* are refcounted by relpath before deletion: a
        surviving record may reference a file that physically lives
        under a pruned version's directory (carry-forward), so only
        files no surviving record references are deleted.  ``parent``
        links whose target was pruned are stripped — a surviving
        record never dangles.

        Warm starts of every surviving head keep working unchanged; a
        warm start of a *superseded* lineage (pre-update graph content)
        will no longer find its versions — that is the space being
        reclaimed.
        """
        with self._locked():
            graphs = self._manifest["graphs"]

            # (key, version) pairs referenced as a cross-lineage parent:
            # their lineage was superseded by the child's content.
            superseded: Set[Tuple[str, int]] = set()
            for entry in graphs.values():
                for record in entry["versions"].values():
                    parent = record.get("parent")
                    if parent is not None:
                        superseded.add((parent["key"],
                                        int(parent["version"])))

            protected = set(keep)
            removed_versions = 0
            removed_keys: List[str] = []
            for key in list(graphs):
                entry = graphs[key]
                current = entry["current"]
                for number in list(entry["versions"]):
                    if int(number) == current and \
                            ((key, current) not in superseded
                             or key in protected):
                        continue  # a live head: keep
                    del entry["versions"][number]
                    removed_versions += 1
                if not entry["versions"]:
                    del graphs[key]
                    removed_keys.append(key)

            # Strip parent links whose target no longer exists.
            for entry in graphs.values():
                for record in entry["versions"].values():
                    parent = record.get("parent")
                    if parent is None:
                        continue
                    target = graphs.get(parent["key"], {}).get(
                        "versions", {}).get(str(parent["version"]))
                    if target is None:
                        del record["parent"]

            # Refcount artifact relpaths, then delete unreferenced files.
            referenced: Set[str] = set()
            for entry in graphs.values():
                for record in entry["versions"].values():
                    referenced.update(self._record_artifacts(record).values())
            removed_files = 0
            reclaimed = 0
            objects = self._root / "objects"
            if objects.is_dir():
                for path in sorted(objects.rglob("*")):
                    if not path.is_file():
                        continue
                    if str(path.relative_to(self._root)) in referenced:
                        continue
                    reclaimed += path.stat().st_size
                    path.unlink()
                    removed_files += 1
                for directory in sorted(
                        (p for p in objects.rglob("*") if p.is_dir()),
                        reverse=True):
                    if not any(directory.iterdir()):
                        directory.rmdir()

            # Rewrite surviving binary artifacts' pages: delta writes
            # leave superseded record blocks dead in the heap, and only
            # compaction reclaims them (the delta path is what keeps
            # apply_updates from rewriting whole artifacts).
            for relpath in sorted(referenced):
                if not relpath.endswith(".bin"):
                    continue
                path = self._root / relpath
                if path.is_file():
                    reclaimed += compact_artifact(path)

            self._write_manifest()
            kept = sum(len(entry["versions"]) for entry in graphs.values())
        return CompactionReport(
            removed_versions=removed_versions,
            removed_keys=tuple(removed_keys),
            removed_files=removed_files,
            reclaimed_bytes=reclaimed,
            kept_versions=kept,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IndexStore({str(self._root)!r}, "
                f"graphs={len(self._manifest['graphs'])})")
