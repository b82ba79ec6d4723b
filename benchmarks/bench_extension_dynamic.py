"""Extension: incremental index maintenance vs from-scratch rebuilds.

The paper's Section 5.3 remarks that index updates on dynamic graphs
are "promising to be further developed".  This bench measures the
implemented maintenance (`repro.service.apply_batch`): repairing the
{u, v} ∪ (N(u) ∩ N(v)) ego-forests after an edge update should beat
rebuilding the whole index by a wide margin, because the affected set
is tiny on sparse graphs.
"""

import random
import time

import pytest

from repro.bench.reporting import format_table
from repro.core.gct import GCTIndex
from repro.datasets.registry import load_dataset
from repro.service import Snapshot, apply_batch, delete, insert

DATASET = "gowalla"
NUM_UPDATES = 40


@pytest.mark.benchmark(group="extension-dynamic")
def test_extension_dynamic_maintenance(benchmark, report):
    graph = load_dataset(DATASET)
    snap = Snapshot.build(graph)
    rng = random.Random(99)
    vertices = list(graph.vertices())

    # A churn workload: insert a random absent edge, delete it again.
    pairs = []
    while len(pairs) < NUM_UPDATES // 2:
        u, v = rng.sample(vertices, 2)
        if not graph.has_edge(u, v):
            pairs.append((u, v))

    repaired = 0
    start = time.perf_counter()
    for update in ([insert(u, v) for u, v in pairs]
                   + [delete(u, v) for u, v in pairs]):
        snap, step = apply_batch(snap, [update])
        repaired += step.rebuilt_forests
    incremental_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rebuilt = GCTIndex.build(snap.graph_view)
    one_rebuild_seconds = time.perf_counter() - start

    per_update = incremental_seconds / NUM_UPDATES
    report.add("Extension - dynamic maintenance", format_table(
        ["quantity", "value"],
        [["updates applied", NUM_UPDATES],
         ["ego-forests repaired", repaired],
         ["total maintenance (s)", round(incremental_seconds, 4)],
         ["mean per update (s)", round(per_update, 5)],
         ["one full rebuild (s)", round(one_rebuild_seconds, 4)],
         ["rebuilds per update equivalent",
          round(per_update / one_rebuild_seconds, 4)]],
        title=f"Extension: incremental index maintenance on {DATASET}"))

    # Consistency after churn: identical to a fresh build.
    for v in rng.sample(vertices, 25):
        for k in (2, 3, 5):
            assert snap.score(v, k) == rebuilt.score(v, k)

    # The locality win: one update costs far less than one rebuild.
    assert per_update < one_rebuild_seconds / 10

    u, v = pairs[0]

    def churn_once():
        grown, _ = apply_batch(snap, [insert(u, v)])
        apply_batch(grown, [delete(u, v)])

    benchmark(churn_once)
