"""Truss decomposition and k-truss extraction (paper Sections 2–3, 6.2).

Public surface:

* :func:`~repro.truss.decomposition.truss_decomposition` — Algorithm 1.
* :func:`~repro.truss.decomposition.vertex_trussness`,
  :func:`~repro.truss.decomposition.max_trussness`,
  :func:`~repro.truss.decomposition.trussness_histogram`.
* :func:`~repro.truss.ktruss.k_truss_subgraph`,
  :func:`~repro.truss.ktruss.maximal_connected_k_trusses`.
* :func:`~repro.truss.bitmap_decomposition.bitmap_truss_decomposition` —
  the GCT bitmap variant (Section 6.2), the production peeler.
"""

from repro.truss.decomposition import (
    truss_decomposition,
    vertex_trussness,
    max_trussness,
    trussness_histogram,
    subgraph_trussness,
)
from repro.truss.ktruss import (
    k_truss_edges,
    k_truss_subgraph,
    maximal_connected_k_trusses,
    count_maximal_connected_k_trusses,
    is_k_truss,
)
from repro.truss.bitmap_decomposition import (
    bitmap_truss_decomposition,
    bitmap_truss_decomposition_graph,
)

__all__ = [
    "truss_decomposition",
    "vertex_trussness",
    "max_trussness",
    "trussness_histogram",
    "subgraph_trussness",
    "k_truss_edges",
    "k_truss_subgraph",
    "maximal_connected_k_trusses",
    "count_maximal_connected_k_trusses",
    "is_k_truss",
    "bitmap_truss_decomposition",
    "bitmap_truss_decomposition_graph",
]
