"""The paper's primary contribution: truss-based structural diversity search.

Four search methods, all answering the same top-r problem:

* :func:`~repro.core.online.online_search` — Algorithm 3 (``baseline``).
* :func:`~repro.core.bound.bound_search` — Algorithm 4 (``bound``):
  graph sparsification + Lemma 2 upper bound + early termination.
* :class:`~repro.core.tsd.TSDIndex` — Section 5 (``TSD``): per-vertex
  maximum spanning forests, linear-time queries.
* :class:`~repro.core.gct.GCTIndex` — Section 6 (``GCT``): one-shot
  triangle listing, bitmap decomposition, supernode compression.
* :class:`~repro.core.hybrid.HybridSearcher` — the Exp-4 competitor.

All five obey the canonical ranking contract of
:mod:`repro.core.results` — descending score, ties broken by graph
insertion order — so they return *identical ranked vertex lists*, which
is what lets :class:`repro.engine.QueryEngine` swap methods freely on
cost grounds alone.
"""

from repro.core.diversity import (
    structural_diversity,
    social_contexts,
    diversity_and_contexts,
    all_structural_diversities,
    diversity_profile,
    ego_truss_weights,
)
from repro.core.online import online_search
from repro.core.bound import bound_search
from repro.core.sparsify import sparsify, sparsify_with_stats, SparsifyStats
from repro.core.bounds import (
    clique_upper_bound,
    clique_upper_bounds,
    tsd_upper_bound,
    count_at_least,
)
from repro.core.results import (
    CanonicalTopR,
    SearchResult,
    TopEntry,
    TopRCollector,
    build_entries,
    canonical_zero_fill,
)
from repro.core.tsd import TSDIndex, BuildProfile, maximum_spanning_forest
from repro.core.gct import GCTIndex, assemble_gct
from repro.core.hybrid import HybridSearcher

__all__ = [
    "structural_diversity",
    "social_contexts",
    "diversity_and_contexts",
    "all_structural_diversities",
    "diversity_profile",
    "ego_truss_weights",
    "online_search",
    "bound_search",
    "sparsify",
    "sparsify_with_stats",
    "SparsifyStats",
    "clique_upper_bound",
    "clique_upper_bounds",
    "tsd_upper_bound",
    "count_at_least",
    "SearchResult",
    "TopEntry",
    "TopRCollector",
    "CanonicalTopR",
    "build_entries",
    "canonical_zero_fill",
    "TSDIndex",
    "BuildProfile",
    "maximum_spanning_forest",
    "GCTIndex",
    "assemble_gct",
    "HybridSearcher",
]
