"""Query engine walkthrough: one facade, planner-chosen methods.

The five search methods (baseline, bound, TSD, GCT, hybrid) answer the
same top-r query under the same canonical ranking contract, so a
service only needs one entry point.  This example drives the
:class:`repro.engine.QueryEngine` through the workloads its planner is
built for:

1. a one-shot query (planner picks an online scan — no index build),
2. repeated traffic (planner builds the GCT index once and amortises),
3. a batch with repeated thresholds (per-k ranking cache shared across
   items),
4. explicit method overrides and point lookups.

Run:  python examples/query_engine.py
"""

from repro.datasets.synthetic import powerlaw_cluster
from repro.engine import EngineConfig, QueryEngine


def main() -> None:
    graph = powerlaw_cluster(400, 6, 0.6, seed=7)
    print(f"Graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    engine = QueryEngine(graph, EngineConfig(small_graph_edges=5_000,
                                             index_reuse_threshold=2))

    # --- 1. one-shot query: the planner avoids building anything -----
    result = engine.top_r(4, 5)
    print(f"\nOne-shot query:   {result.summary()}")
    print(f"  planner said:   {engine.stats().decisions[-1]}")

    # --- 2. repeated traffic: the second query crosses the reuse
    #        threshold, so the planner builds the index ---------------
    result = engine.top_r(4, 5)
    print(f"\nRepeat query:     {result.summary()}")
    print(f"  planner said:   {engine.stats().decisions[-1]}")

    # --- 3. batch: one planner decision, shared ranking cache --------
    workload = [(3, 5), (4, 10), (3, 20), (5, 5), (4, 3)]
    results = engine.top_r_many(workload)
    print("\nBatch of 5:")
    for res in results:
        print(f"  {res.summary()}")

    # --- 4. explicit overrides and point lookups ---------------------
    forced = engine.top_r(4, 5, method="baseline")
    print(f"\nForced baseline:  {forced.summary()}")
    top = results[1].vertices[0]
    print(f"score({top!r}, k=4) = {engine.score(top, 4)}")

    # --- the ledger the service operator reads -----------------------
    print("\nEngine statistics:")
    print(engine.stats().summary())


if __name__ == "__main__":
    main()
