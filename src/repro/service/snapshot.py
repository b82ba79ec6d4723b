"""Immutable :class:`Snapshot`: graph + indexes + score cache, read-only.

Concurrent serving needs one property above all: *nothing a reader
touches may change under it*.  The snapshot delivers that by
construction — it owns a private copy of the graph, fully built
indexes, and a per-``k`` score-map cache, none of which are ever
mutated after publication.  A reader grabs a snapshot reference once
(an atomic operation) and serves the whole query from it; writers
(:mod:`repro.service.updates`) build a *new* snapshot and swap the
reference, so readers in flight keep a consistent world and never wait
on a lock.

The one internal mutation is memoisation: scoring a threshold ``k`` not
yet cached installs the computed ``(score map, ranking)`` into a plain
dict.  That is safe lock-free — the value for a given ``k`` is a pure
function of the immutable indexes, so concurrent computations are
redundant but identical, and CPython dict assignment is atomic.

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
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import InvalidParameterError
from repro.graph.graph import Graph, Vertex
from repro.core.results import SearchResult, build_entries
from repro.core.tsd import TSDIndex
from repro.core.gct import GCTIndex
from repro.core.hybrid import HybridSearcher

#: One cached threshold: the score map and the canonical ranking.
ScoreEntry = Tuple[Dict[Vertex, int], List[Tuple[Vertex, int]]]

#: Format tag of a persisted score-cache payload (``scores.json``).
SCORES_FORMAT = "repro-snapshot-scores"
SCORES_VERSION = 1


def scores_to_payload(entries: Dict[int, ScoreEntry]) -> Dict:
    """JSON-able payload of score-cache entries (``scores.json``).

    Only the canonical ranking is persisted per threshold — the score
    map is its dict view, so the payload stores each entry once.
    Vertex labels must be JSON-encodable, the same requirement the
    index ``to_payload`` hooks impose.
    """
    return {
        "format": SCORES_FORMAT,
        "version": SCORES_VERSION,
        "thresholds": {
            str(k): [[vertex, score] for vertex, score in ranking]
            for k, (_, ranking) in sorted(entries.items())
        },
    }


def scores_from_payload(payload: Dict) -> Dict[int, ScoreEntry]:
    """Rebuild score-cache entries from a :func:`scores_to_payload` dict.

    Raises :class:`~repro.errors.InvalidParameterError` on a payload
    that is not a persisted score cache.
    """
    if payload.get("format") != SCORES_FORMAT:
        raise InvalidParameterError(
            f"not a {SCORES_FORMAT} payload: format="
            f"{payload.get('format')!r}")
    entries: Dict[int, ScoreEntry] = {}
    for k_text, pairs in payload.get("thresholds", {}).items():
        ranking = [(vertex, int(score)) for vertex, score in pairs]
        entries[int(k_text)] = (dict(ranking), ranking)
    return entries


class Snapshot:
    """One immutable, fully materialised serving state.

    Parameters
    ----------
    graph:
        The graph this snapshot answers for.  The snapshot takes a
        private copy, so later mutations of the caller's graph cannot
        leak into published answers.
    tsd, gct:
        Built indexes.  At least one is required; GCT is preferred for
        serving (Lemma 3 scoring), and missing GCT is compressed from
        the TSD forests at construction time — never during a query.
    hybrid:
        Optional precomputed rankings, carried so the artifact lineage
        survives snapshot hand-offs (queries do not need it).
    scores:
        Score-cache entries to seed (``k`` → (score map, ranking)),
        typically the survivors of a fine-grained invalidation.
    version, key:
        Provenance: the store version and graph key this snapshot
        corresponds to (0 / ``None`` for unpersisted snapshots).
    """

    __slots__ = ("_graph", "_tsd", "_gct", "_hybrid", "_scores",
                 "version", "key")

    def __init__(self, graph: Graph,
                 tsd: Optional[TSDIndex] = None,
                 gct: Optional[GCTIndex] = None,
                 hybrid: Optional[HybridSearcher] = None,
                 scores: Optional[Dict[int, ScoreEntry]] = None,
                 version: int = 0, key: Optional[str] = None) -> None:
        self._install(graph.copy(), tsd, gct, hybrid, scores, version, key)

    @classmethod
    def adopting(cls, graph: Graph, **parts) -> "Snapshot":
        """A snapshot that takes ``graph`` over instead of copying it
        (``parts``: the constructor's other parameters).

        For a caller that built ``graph`` for this snapshot and holds
        no other reference it will ever use — the update path, whose
        batch is applied to a private copy already.  Anyone else uses
        the constructor: a graph mutated after publication breaks the
        immutability every reader relies on.
        """
        snapshot = cls.__new__(cls)
        snapshot._install(graph, **parts)
        return snapshot

    def _install(self, graph: Graph,
                 tsd: Optional[TSDIndex] = None,
                 gct: Optional[GCTIndex] = None,
                 hybrid: Optional[HybridSearcher] = None,
                 scores: Optional[Dict[int, ScoreEntry]] = None,
                 version: int = 0, key: Optional[str] = None) -> None:
        if tsd is None and gct is None:
            raise InvalidParameterError(
                "a snapshot needs at least one built index (tsd or gct)")
        self._graph = graph
        self._tsd = tsd
        self._gct = gct if gct is not None else GCTIndex.compress(tsd)
        self._hybrid = hybrid
        self._scores: Dict[int, ScoreEntry] = dict(scores or {})
        self.version = version
        self.key = key

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph, jobs: Optional[int] = 0) -> "Snapshot":
        """Cold-build a snapshot straight from a graph (TSD and GCT).

        Construction goes through the :mod:`repro.build` pipeline: one
        shared triangle pass and one decomposition feed *both* indexes,
        auto-planned serial or multi-process by ``jobs`` (see
        :meth:`repro.build.BuildPlan.decide`; ``None`` keeps the legacy
        per-vertex TSD build + compress).  The resulting artifacts are
        byte-identical across strategies, so snapshots built with
        different ``jobs`` values share store lineages.
        """
        from repro.build import build_indexes
        tsd, gct = build_indexes(graph, jobs=jobs)
        return cls(graph, tsd=tsd, gct=gct)

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
        breaks the immutability contract and desynchronises its store
        key.  Callers that mutate (the update pipeline's
        :func:`~repro.service.updates.apply_batch`) stay on
        :attr:`graph`.
        """
        return self._graph

    @property
    def num_vertices(self) -> int:
        """Vertex count — no graph copy."""
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Edge count — no graph copy."""
        return self._graph.num_edges

    @property
    def tsd(self) -> Optional[TSDIndex]:
        """The TSD index, when this snapshot carries one."""
        return self._tsd

    @property
    def gct(self) -> Optional[GCTIndex]:
        """The GCT index the snapshot serves from."""
        return self._gct

    @property
    def hybrid(self) -> Optional[HybridSearcher]:
        """The hybrid rankings, when this snapshot carries them."""
        return self._hybrid

    def cached_thresholds(self) -> List[int]:
        """Thresholds with a materialised score map, ascending."""
        return sorted(self._scores)

    def score_entries(self) -> Dict[int, ScoreEntry]:
        """The cached entries (shallow copy) — update-path input."""
        return dict(self._scores)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _entry(self, k: int) -> Tuple[ScoreEntry, bool]:
        """The ``(score map, ranking)`` for ``k``; computes+memoises on
        first use.  Returns ``(entry, was_cached)``."""
        entry = self._scores.get(k)
        if entry is not None:
            return entry, True
        entry = (self._gct.scores_for_all(k), self._gct.ranking(k))
        self._scores[k] = entry  # atomic publish; idempotent recompute
        return entry, False

    def score(self, v: Vertex, k: int) -> int:
        """``score(v)`` at threshold ``k`` (cached map, else Lemma 3)."""
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        if v not in self._graph:
            raise InvalidParameterError(
                f"vertex {v!r} is not in this snapshot's graph")
        entry = self._scores.get(k)
        if entry is not None:
            return entry[0][v]
        return self._gct.score(v, k)

    def contexts(self, v: Vertex, k: int) -> List[Set[Vertex]]:
        """Social contexts of ``v`` at threshold ``k``."""
        return self._gct.contexts(v, k)

    def top_r(self, k: int, r: int,
              collect_contexts: bool = True) -> SearchResult:
        """Canonical top-r answer served from this snapshot.

        ``search_space`` counts actual score computations: ``|V|`` when
        this call materialised the threshold, 0 when it was served from
        the snapshot's cache.
        """
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        if r < 1:
            raise InvalidParameterError(f"r must be >= 1, got {r}")
        start = time.perf_counter()
        (_, ranking), was_cached = self._entry(k)
        answer = ranking[:min(r, len(ranking))]
        entries = build_entries(
            answer, lambda v: self._gct.contexts(v, k), collect_contexts)
        return SearchResult(
            method="service", k=k, r=min(r, max(len(ranking), 1)),
            entries=entries,
            search_space=0 if was_cached else len(ranking),
            elapsed_seconds=time.perf_counter() - start,
        )

    def top_r_many(self, queries: Sequence[Tuple[int, int]],
                   collect_contexts: bool = True) -> List[SearchResult]:
        """Answer a batch; same-threshold items share one score map."""
        return [self.top_r(k, r, collect_contexts=collect_contexts)
                for k, r in queries]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Snapshot(v{self.version}, |V|={self.num_vertices}, "
                f"|E|={self._graph.num_edges}, "
                f"cached_k={self.cached_thresholds() or '-'})")
