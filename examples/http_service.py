"""Server-layer walkthrough: HTTP front, multi-graph routing, compaction.

The :class:`repro.server.DiversityRouter` hosts many named graphs in
one process behind a stdlib-only HTTP JSON API — the network boundary
the paper's serve-many-queries regime needs.  This script is the
`make smoke-server` end-to-end check (start server, query, update,
compact, stop), so it *asserts* its claims instead of just printing
them:

1. start: two graphs registered over one shared store, HTTP up;
2. query: wire answers byte-identical to in-process answers;
3. update: an edge batch over the wire, answers move to the new graph;
4. restart: the updated graph warm-starts from its stored GCT and
   answers identically;
5. compact: superseded lineages reclaimed, warm starts intact;
6. stop: clean shutdown.

Run:  python examples/http_service.py
"""

import json
import tempfile

from repro.core.online import online_search
from repro.datasets.synthetic import powerlaw_cluster
from repro.server import DiversityRouter, ServerClient, serve
from repro.service import DiversityService, IndexStore

WORKLOAD = [(3, 5), (4, 10), (3, 20), (5, 5), (4, 3)]


def ranked(result):
    return [(entry.vertex, entry.score) for entry in result.entries]


def wire_ranked(payload):
    return list(zip(payload["vertices"], payload["scores"]))


def main() -> None:
    social = powerlaw_cluster(250, 5, 0.6, seed=11)
    citation = powerlaw_cluster(180, 4, 0.4, seed=23)
    store_dir = tempfile.mkdtemp(prefix="repro-store-")

    # -- 1. start: one process, many graphs, one shared store ----------
    router = DiversityRouter(store=IndexStore(store_dir))
    router.add_graph("social", social)
    router.add_graph("citation", citation)
    server = serve(router, port=0)
    base = f"http://127.0.0.1:{server.server_port}"
    client = ServerClient(base)
    health = client.healthz()
    assert health == {"status": "ok", "graphs": 2}, health
    print(f"serving {health['graphs']} graphs on {base}")

    # -- 2. query: the wire changes nothing about the answers ----------
    for name in ("social", "citation"):
        for k, r in WORKLOAD:
            wire = client.top_r(name, k=k, r=r)
            local = router.top_r(name, k, r, collect_contexts=False)
            assert json.dumps(wire_ranked(wire)) == \
                json.dumps(ranked(local)), (name, k, r)
    print(f"{2 * len(WORKLOAD)} HTTP answers byte-identical to in-process")

    # -- 3. update: an edge batch over the wire ------------------------
    u, v = next(iter(social.edges()))
    report = client.apply_updates("social", [("delete", u, v),
                                             ("insert", 0, 249)])
    mutated = social.copy()
    mutated.remove_edge(u, v)
    mutated.add_edge(0, 249)
    for k, r in WORKLOAD:
        assert client.top_r("social", k=k, r=r)["vertices"] == \
            online_search(mutated, k, r).vertices, (k, r)
    print(f"update batch applied over the wire "
          f"(v{report['version']}, {report['rebuilt_forests']} forests "
          f"rebuilt); answers match a fresh search")

    # -- 4. restart: the update's version warm-starts -----------------
    revived = DiversityService.start(mutated, store=IndexStore(store_dir))
    assert revived.warm_started
    for k, r in WORKLOAD:
        assert ranked(revived.top_r(k, r, collect_contexts=False)) == \
            ranked(router.top_r("social", k, r, collect_contexts=False))
    print(f"updated graph restarted warm from its stored GCT "
          f"(v{revived.snapshot.version}); answers identical")

    # -- 5. compact: the update lineage's stale versions reclaimed -----
    stats = client.stats()
    report = client.compact()
    assert report["removed_versions"] >= 1, report
    after = DiversityService.start(mutated, store=IndexStore(store_dir))
    assert after.warm_started, "compaction must keep every lineage head"
    print(f"compacted store: {report['removed_versions']} stale version(s), "
          f"{report['reclaimed_bytes']:,} bytes reclaimed; "
          f"warm start still works")

    # -- 6. stop -------------------------------------------------------
    assert stats["queries_total"] >= 4 * len(WORKLOAD)
    server.shutdown()
    server.server_close()
    print(f"served {stats['queries_total']} queries; shut down cleanly")


if __name__ == "__main__":
    main()
