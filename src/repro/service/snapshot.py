"""Immutable :class:`Snapshot`: graph + GCT index + ranking memo, read-only.

Concurrent serving needs one property above all: *nothing a reader
touches may change under it*.  The snapshot delivers that by
construction — it owns a graph no caller can mutate (a private copy,
or for the update path's successors a branch sharing its predecessor's
untouched adjacency sets), a fully built GCT index, and a per-``k``
ranking memo, none of which are ever mutated after publication.  A
reader grabs a snapshot reference once (an atomic operation) and
serves the whole query from it; writers
(:mod:`repro.service.updates`) build a *new* snapshot and swap the
reference, so readers in flight keep a consistent world and never wait
on a lock.

The internal mutations are memoisation: the first answer at a
threshold ``k`` installs its ranked positive rows (the GCT score
postings in canonical order, ``postings_k`` rows — not one per vertex)
into a plain dict, and the first :attr:`Snapshot.content_key` read
installs the graph's :class:`~repro.service.store.ContentKey`.  That is
safe lock-free — each value is a pure function of the immutable graph and
index, so concurrent computations are redundant but identical, and
CPython attribute and dict assignment is atomic.

Answers follow the canonical ranking contract of
:mod:`repro.core.results`: descending score, ties broken by graph
insertion order — rank-identical to every other method in the library.

Examples
--------
>>> from repro.datasets.paper import figure1_graph
>>> snap = Snapshot.build(figure1_graph())
>>> result = snap.top_r(4, 1)
>>> result.vertices, result.scores
(['v'], [3])
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import InvalidParameterError
from repro.graph.graph import Graph, Vertex
from repro.core.results import SearchResult, build_entries
from repro.core.gct import GCTIndex

if TYPE_CHECKING:  # the store imports this module
    from repro.service.store import ContentKey

#: One memoised threshold: its positive ``(vertex, score)`` rows in
#: canonical order (:meth:`GCTIndex.positive_ranking`).
ScoreEntry = List[Tuple[Vertex, int]]


class Snapshot:
    """One immutable, fully materialised serving state: graph + GCT.

    Every read — :meth:`top_r`, :meth:`score`, :meth:`contexts` — is
    answered from the GCT index, the TSD index compressed for querying:
    a top-r answer is a prefix of the threshold's memoised positive
    rows, completed with zero-score vertices off the index's score
    postings (:meth:`GCTIndex.zero_filled`), and a point lookup is
    Lemma 3 on the vertex's columns.  So the GCT is the one index a
    snapshot holds, the update path patches and the store persists;
    TSD and hybrid rankings stay library methods of
    :class:`~repro.engine.QueryEngine`.

    Parameters
    ----------
    graph:
        The graph this snapshot answers for.  The snapshot takes a
        private copy, so later mutations of the caller's graph cannot
        leak into published answers.
    gct:
        The built GCT index (required).
    scores:
        Memo entries to seed (``k`` → ranked positive rows), typically
        the survivors of a fine-grained invalidation.
    version, key:
        Provenance: the store version and graph key this snapshot is
        *persisted as* (0 / ``None`` for unpersisted snapshots).
    content:
        The graph's :class:`~repro.service.store.ContentKey`, when the
        caller already computed it; otherwise :attr:`content_key`
        computes it on first use.
    tsd:
        Ignored: a caller holding both built indexes may hand them over
        together, and the snapshot keeps the GCT alone.
    """

    __slots__ = ("_graph", "_gct", "_scores", "_content", "version", "key")

    def __init__(self, graph: Graph,
                 gct: Optional[GCTIndex] = None,
                 scores: Optional[Dict[int, ScoreEntry]] = None,
                 version: int = 0, key: Optional[str] = None,
                 content: Optional["ContentKey"] = None, *,
                 tsd: object = None) -> None:
        self._install(graph.copy(), gct, scores, version, key, content)

    @classmethod
    def adopting(cls, graph: Graph, **parts) -> "Snapshot":
        """A snapshot that takes ``graph`` over instead of copying it
        (``parts``: the constructor's other parameters).

        For a caller that built ``graph`` for this snapshot and holds
        no other reference it will ever use — the update path, whose
        batch is applied to a private branch already.  Anyone else uses
        the constructor: a graph mutated after publication breaks the
        immutability every reader relies on.
        """
        snapshot = cls.__new__(cls)
        snapshot._install(graph, **parts)
        return snapshot

    def _install(self, graph: Graph,
                 gct: Optional[GCTIndex] = None,
                 scores: Optional[Dict[int, ScoreEntry]] = None,
                 version: int = 0, key: Optional[str] = None,
                 content: Optional["ContentKey"] = None) -> None:
        if gct is None:
            raise InvalidParameterError("a snapshot needs a built GCT index")
        self._graph = graph
        self._gct = gct
        self._scores: Dict[int, ScoreEntry] = dict(scores or {})
        self._content = content
        self.version = version
        self.key = key

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph,
              content: Optional["ContentKey"] = None) -> "Snapshot":
        """Cold-build a snapshot straight from a graph.

        Construction goes through the :mod:`repro.build` pipeline: one
        shared triangle pass and one decomposition assemble the GCT
        (the pass yields the TSD forests on the way, which are not
        kept), planned serial or multi-process from the graph's size and
        the CPUs this process may use.  The resulting artifacts are
        byte-identical whatever the plan, so snapshots built on
        different hosts share store lineages.  ``content`` is passed
        through to the constructor.
        """
        from repro.build import build_indexes
        _, gct = build_indexes(graph)
        return cls(graph, gct=gct, content=content)

    # ------------------------------------------------------------------
    # Read-only state
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """A defensive copy of the snapshot's graph.

        Handing out the private copy would let a caller mutate the
        "immutable" snapshot from outside (and desynchronise its store
        key, which hashes the graph content), so every access pays for
        a fresh copy.  Use :attr:`num_vertices` / :attr:`num_edges`
        when only the size is needed, and :attr:`graph_view` for
        read-only traversal without the O(V+E) copy.
        """
        return self._graph.copy()

    @property
    def graph_view(self) -> Graph:
        """The snapshot's graph *without* a defensive copy — read-only.

        The copy in :attr:`graph` is O(V+E) per access, which turns
        stats endpoints, fingerprint lookups, and ledger writes into
        accidental full-graph traversals.  Callers that only *read*
        (iteration, degree lookups, fingerprinting) use this view and
        must never mutate it — mutating a published snapshot's graph
        breaks the immutability contract (successor snapshots share its
        adjacency sets) and desynchronises its store key.  The update
        pipeline's :func:`~repro.service.updates.apply_batch` mutates a
        :meth:`~repro.graph.graph.Graph.branch` of this view, never the
        view itself.
        """
        return self._graph

    @property
    def content_key(self) -> str:
        """The store key of this snapshot's graph content.

        Equal to :func:`~repro.service.store.graph_fingerprint` of the
        graph, and defined whether or not the snapshot was stored —
        unlike :attr:`key`, the key it is *persisted as*.  The first
        read pays the O(n + m) encode unless the key was handed in (a
        service start computes it once for the store anyway); the
        update path derives a successor's key from this one's segments
        (:attr:`content`).
        """
        content = self._content
        if content is None:
            from repro.service.store import ContentKey
            content = self._content = ContentKey.of(self._graph)
        return content.digest

    @property
    def content(self) -> Optional["ContentKey"]:
        """The computed :class:`~repro.service.store.ContentKey`, or
        ``None`` while nobody has read :attr:`content_key`."""
        return self._content

    @property
    def num_vertices(self) -> int:
        """Vertex count — no graph copy."""
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Edge count — no graph copy."""
        return self._graph.num_edges

    @property
    def tsd(self) -> None:
        """Always ``None``: a snapshot holds no TSD index, so a caller
        persisting ``tsd=snapshot.tsd`` beside the GCT stores none."""
        return None

    @property
    def gct(self) -> GCTIndex:
        """The GCT index the snapshot serves from."""
        return self._gct

    def cached_thresholds(self) -> List[int]:
        """Thresholds with a memoised ranking, ascending."""
        return sorted(self._scores)

    def score_entries(self) -> Dict[int, ScoreEntry]:
        """The cached entries (shallow copy) — update-path input."""
        return dict(self._scores)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _entry(self, k: int) -> Tuple[ScoreEntry, bool]:
        """The ranked positive rows for ``k``; computes+memoises on
        first use.  Returns ``(entry, was_cached)``."""
        entry = self._scores.get(k)
        if entry is not None:
            return entry, True
        entry = self._gct.positive_ranking(k)
        self._scores[k] = entry  # atomic publish; idempotent recompute
        return entry, False

    def score(self, v: Vertex, k: int) -> int:
        """``score(v)`` at threshold ``k`` (Lemma 3 on the GCT)."""
        return self._gct.score(v, k)

    def contexts(self, v: Vertex, k: int) -> List[Set[Vertex]]:
        """Social contexts of ``v`` at threshold ``k``."""
        return self._gct.contexts(v, k)

    def top_r(self, k: int, r: int,
              collect_contexts: bool = True) -> SearchResult:
        """Canonical top-r answer served from this snapshot.

        ``search_space`` counts actual score computations: ``|V|`` when
        this call materialised the threshold, 0 when it was served from
        the snapshot's memo.
        """
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        if r < 1:
            raise InvalidParameterError(f"r must be >= 1, got {r}")
        start = time.perf_counter()
        ranked, was_cached = self._entry(k)
        answer = self._gct.zero_filled(k, ranked, r)
        n = self.num_vertices
        entries = build_entries(
            answer, lambda v: self._gct.contexts(v, k), collect_contexts)
        return SearchResult(
            method="service", k=k, r=min(r, max(n, 1)),
            entries=entries, search_space=0 if was_cached else n,
            elapsed_seconds=time.perf_counter() - start,
        )

    def top_r_many(self, queries: Sequence[Tuple[int, int]],
                   collect_contexts: bool = True) -> List[SearchResult]:
        """Answer a batch; same-threshold items share one memo entry."""
        return [self.top_r(k, r, collect_contexts=collect_contexts)
                for k, r in queries]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Snapshot(v{self.version}, |V|={self.num_vertices}, "
                f"|E|={self._graph.num_edges}, "
                f"cached_k={self.cached_thresholds() or '-'})")
