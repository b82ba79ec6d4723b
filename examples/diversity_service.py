"""Service-layer walkthrough: store, warm start, live updates.

The :class:`repro.service.DiversityService` is what a long-running
process runs: answers come from an immutable snapshot (safe under
concurrent traffic), index artifacts persist in a versioned on-disk
:class:`repro.service.IndexStore` (restarts skip every build), and edge
updates repair only the affected vertices while dropping only the cache
thresholds whose scores actually changed.

The script doubles as the `make smoke-service` end-to-end check, so it
*asserts* its claims instead of just printing them:

1. first boot: cold build, artifacts persisted;
2. restart: warm start from the store — zero index builds;
3. live updates: an insert/delete batch, fine-grained invalidation;
4. correctness: every answer is rank-identical to a fresh engine, and
   the store key the batch derived from its changed vertices alone is
   the one a fresh process computes for the updated graph.

Run:  python examples/diversity_service.py
"""

import tempfile

from repro.core.online import online_search
from repro.datasets.synthetic import powerlaw_cluster
from repro.engine import QueryEngine
from repro.graph.graph import Graph
from repro.service import (DiversityService, IndexStore, delete,
                           graph_fingerprint, insert)

WORKLOAD = [(3, 5), (4, 10), (3, 20), (5, 5), (4, 3)]


def ranked(result):
    return [(entry.vertex, entry.score) for entry in result.entries]


def main() -> None:
    graph = powerlaw_cluster(300, 5, 0.6, seed=11)
    print(f"Graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    store_dir = tempfile.mkdtemp(prefix="repro-store-")
    store = IndexStore(store_dir)

    # --- 1. first boot: cold build, artifacts persisted --------------
    first = DiversityService.start(graph, store=store)
    assert not first.warm_started
    print(f"\nFirst boot (cold): stored snapshot "
          f"v{first.snapshot.version} in {store_dir}")

    # --- 2. restart: warm from the store, zero builds ----------------
    service = DiversityService.start(graph, store=store)
    assert service.warm_started
    results = service.top_r_many(WORKLOAD)
    print("\nWarm restart serving the workload:")
    for result in results:
        print(f"  {result.summary()}")
    for (k, r), result in zip(WORKLOAD, results):
        assert ranked(result) == ranked(online_search(graph, k, r)), (k, r)

    # A warm *engine* records zero index builds for the same artifacts.
    engine = QueryEngine(graph, warm_start=store)
    engine.top_r_many(WORKLOAD, method="gct")
    assert engine.stats().index_build_seconds == {}
    print(f"\nWarm engine build ledger: "
          f"{engine.stats().index_build_seconds or 'no builds'}")

    # --- 3. live updates: repair + fine-grained invalidation ---------
    u, v = next(iter(graph.edges()))
    batch = [delete(u, v), insert(0, 299)] if not graph.has_edge(0, 299) \
        else [delete(u, v)]
    report = service.apply_updates(batch)
    print(f"\nUpdate batch: {report.summary()}")
    assert report.rebuilt_forests < graph.num_vertices, \
        "repair must touch only affected vertices, not the whole graph"

    # --- 4. post-update answers match a fresh engine -----------------
    mutated = service.snapshot.graph
    fresh = QueryEngine(mutated)
    for k, r in WORKLOAD:
        assert ranked(service.top_r(k, r)) == \
            ranked(fresh.top_r(k, r, method="gct")), (k, r)
    print("\nPost-update answers are rank-identical to a fresh engine.")

    # The store now holds the patched artifacts as the next version —
    # a process serving the *updated* graph warm-starts too.
    revived = DiversityService.warm(mutated, store)
    assert ranked(revived.top_r(4, 5)) == ranked(service.top_r(4, 5))
    print(f"Patched artifacts re-versioned: snapshot is now "
          f"v{service.snapshot.version}")

    # The ack hashed only the segments its edges changed, yet filed the
    # version under the key of the whole updated content: a process that
    # reads the graph afresh (original vertex order, batch applied)
    # computes the same key and warm-starts from it.
    rebuilt = Graph(vertices=list(graph.vertices()), edges=graph.edges())
    for update in batch:
        (rebuilt.add_edge if update.op == "insert"
         else rebuilt.remove_edge)(update.u, update.v)
    assert service.snapshot.key == graph_fingerprint(rebuilt)
    assert DiversityService.start(rebuilt, store=store).warm_started
    print(f"A fresh process on the updated graph warm-starts from key "
          f"{service.snapshot.key[:12]}…")

    print("\nService report:")
    print(service.stats_summary())


if __name__ == "__main__":
    main()
