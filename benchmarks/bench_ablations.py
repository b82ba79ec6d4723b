"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but the paper's Section 6 motivates each
optimisation individually; these benches isolate them:

* bitmap vs hash-set truss decomposition on ego-networks;
* one-shot global vs per-vertex ego-network extraction;
* Algorithm 4's two prunings (sparsification, upper bound) toggled
  independently.
"""

import time

import pytest

from repro.bench.reporting import format_table
from repro.core.bound import bound_search
from repro.datasets.registry import load_dataset
from repro.graph.egonet import ego_network, iter_ego_edge_lists
from repro.truss.bitmap_decomposition import bitmap_truss_decomposition
from repro.truss.decomposition import truss_decomposition

DATASET = "livejournal"


@pytest.mark.benchmark(group="ablations")
def test_ablation_bitmap_vs_hash_decomposition(benchmark, report):
    graph = load_dataset(DATASET)
    ego_lists = list(iter_ego_edge_lists(graph))

    start = time.perf_counter()
    for v, edges in ego_lists:
        if edges:
            bitmap_truss_decomposition(
                sorted(graph.neighbors(v), key=graph.vertex_index), edges)
    bitmap_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for v, _ in ego_lists:
        truss_decomposition(ego_network(graph, v))
    hash_seconds = time.perf_counter() - start

    report.add("Ablation - bitmap vs hash peeling", format_table(
        ["variant", "seconds"],
        [["hash-set peeling (+ extraction)", round(hash_seconds, 3)],
         ["bitmap peeling (pre-extracted)", round(bitmap_seconds, 3)]],
        title=f"Ablation: ego truss decomposition on {DATASET}"))

    assert bitmap_seconds <= hash_seconds * 1.2

    sample = [item for item in ego_lists if item[1]][:50]
    benchmark(lambda: [bitmap_truss_decomposition(
        sorted(graph.neighbors(v), key=graph.vertex_index), edges)
        for v, edges in sample])


@pytest.mark.benchmark(group="ablations")
def test_ablation_ego_extraction(benchmark, report):
    graph = load_dataset(DATASET)

    start = time.perf_counter()
    total_oneshot = sum(len(edges) for _, edges in iter_ego_edge_lists(graph))
    oneshot_seconds = time.perf_counter() - start

    start = time.perf_counter()
    total_pervertex = sum(ego_network(graph, v).num_edges
                          for v in graph.vertices())
    pervertex_seconds = time.perf_counter() - start

    assert total_oneshot == total_pervertex
    report.add("Ablation - ego extraction", format_table(
        ["variant", "seconds"],
        [["per-vertex (6 touches per triangle)", round(pervertex_seconds, 3)],
         ["one-shot global (3 touches)", round(oneshot_seconds, 3)]],
        title=f"Ablation: ego-network extraction on {DATASET}"))
    assert oneshot_seconds <= pervertex_seconds

    benchmark(lambda: sum(len(e) for _, e in iter_ego_edge_lists(graph)))


@pytest.mark.benchmark(group="ablations")
def test_ablation_bound_components(benchmark, report):
    graph = load_dataset(DATASET)
    k, r = 3, 100
    variants = {
        "neither (=baseline on G)": dict(use_sparsification=False,
                                         use_upper_bound=False),
        "sparsification only": dict(use_sparsification=True,
                                    use_upper_bound=False),
        "upper bound only": dict(use_sparsification=False,
                                 use_upper_bound=True),
        "both (Algorithm 4)": dict(use_sparsification=True,
                                   use_upper_bound=True),
    }
    rows = []
    spaces = {}
    for label, flags in variants.items():
        result = bound_search(graph, k, r, collect_contexts=False, **flags)
        spaces[label] = result.search_space
        rows.append([label, round(result.elapsed_seconds, 3),
                     result.search_space])
    report.add("Ablation - Algorithm 4 prunings", format_table(
        ["variant", "seconds", "search space"],
        rows, title=f"Ablation: Algorithm 4 components on {DATASET} "
                    f"(k={k}, r={r})"))

    assert spaces["both (Algorithm 4)"] <= spaces["sparsification only"]
    assert spaces["both (Algorithm 4)"] <= spaces["upper bound only"]
    assert spaces["sparsification only"] <= spaces["neither (=baseline on G)"]

    benchmark(lambda: bound_search(graph, k, r, collect_contexts=False))
