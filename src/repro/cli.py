"""Command-line interface: ``repro <subcommand>``.

Subcommands mirror the library's main entry points so the system is
usable without writing Python:

* ``repro stats GRAPH``                 — Table-1 statistics of a graph file
* ``repro topr GRAPH -k 4 -r 10``      — top-r structural diversity search
  (``--method auto`` lets the engine's cost-based planner choose)
* ``repro engine-stats GRAPH``         — run a workload through the
  query engine; report planner decisions, cache hits, index builds
* ``repro score GRAPH VERTEX -k 4``    — one vertex's score and contexts
* ``repro build-index GRAPH OUT``      — persist a TSD or GCT index
* ``repro query-index INDEX -k 4``     — top-r from a persisted index
* ``repro serve-build GRAPH STORE``    — build the served GCT index into
  a versioned :class:`~repro.service.store.IndexStore`
* ``repro serve-warm GRAPH STORE``     — serve a workload warm from the
  store (zero index builds), optionally applying live edge updates
* ``repro serve --http 8080 --graph name=g.txt``
                                       — HTTP JSON API over one or more
  named graphs (multi-graph routing, live updates, store compaction);
  ``--workers N`` shards the graphs across N supervised worker
  processes behind a consistent-hash router tier
* ``repro replicate SRC DST``          — one follower-sync pass: mirror
  an index-store root into a replica root (binary re-versions ship as
  checksum-verified byte-range deltas); ``repro serve --workers N
  --replicas M`` runs the same sync continuously per worker
* ``repro convert-index STORE``        — migrate a store's legacy JSON
  tsd/gct artifacts to the binary format in place
* ``repro store-inspect PATH``         — a ``.bin`` artifact's header and
  layout stats, or a store root's catalogue
* ``repro sparsify GRAPH OUT -k 4``    — write the reduced graph
* ``repro generate NAME OUT``          — write a registry dataset
* ``repro communities GRAPH VERTEX``   — k-truss community search
* ``repro dot GRAPH VERTEX OUT``       — ego-network + contexts as DOT

Graphs are SNAP-style edge lists (``#`` comments, whitespace separated,
integer ids) unless the path ends in ``.json``.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path
from typing import List, Optional

from repro.graph.graph import Graph
from repro.graph.io import (
    read_edge_list,
    write_edge_list,
    read_json_graph,
    write_json_graph,
)
from repro.graph.stats import compute_stats, GraphStats
from repro.core.sparsify import sparsify_with_stats
from repro.core.diversity import diversity_and_contexts
from repro.core.tsd import TSDIndex
from repro.core.gct import GCTIndex
from repro.community.tcp import TCPIndex
from repro.datasets.registry import dataset_names, load_dataset
from repro.engine import ENGINE_METHODS, QueryEngine
from repro.errors import IndexFormatError


def _load_graph(path: str) -> Graph:
    if path.endswith(".json"):
        return read_json_graph(path)
    return read_edge_list(path)


def _parse_vertex(raw: str) -> object:
    """Vertex labels on the CLI: integers when they look like integers."""
    try:
        return int(raw)
    except ValueError:
        return raw


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    stats = compute_stats(graph, name=Path(args.graph).stem,
                          include_ego_trussness=not args.fast)
    print(GraphStats.header())
    print(stats.as_row())
    return 0


def _cmd_topr(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    engine = QueryEngine(graph)
    result = engine.top_r(args.k, args.r, method=args.method)
    if args.method == "auto":
        for decision in engine.stats().decisions:
            print(f"planner: {decision.method} — {decision.reason}")
    print(result.summary())
    for entry in result.entries:
        print(f"  {entry.vertex!r}: score={entry.score}")
        if args.contexts:
            for context in entry.contexts:
                print(f"    context: {sorted(map(repr, context))}")
    return 0


def _parse_query_list(raw: str) -> List[tuple]:
    """Parse a ``k:r,k:r,...`` workload specification (``r`` defaults
    to 10 when a pair is given as just ``k:`` or ``k``)."""
    from repro.errors import InvalidParameterError
    queries = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        k_text, _, r_text = part.partition(":")
        try:
            queries.append((int(k_text), int(r_text or "10")))
        except ValueError:
            raise InvalidParameterError(
                f"bad workload item {part!r}: expected k:r with integer "
                "k and r (e.g. --queries '3:10,4:5')") from None
    return queries


def _cmd_engine_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    engine = QueryEngine(graph)
    queries = _parse_query_list(args.queries)
    results = engine.top_r_many(queries, method=args.method)
    for (k, r), result in zip(queries, results):
        print(result.summary())
    print()
    print(engine.stats().summary())
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    vertex = _parse_vertex(args.vertex)
    score, contexts = diversity_and_contexts(graph, vertex, args.k)
    print(f"score({vertex!r}, k={args.k}) = {score}")
    for context in contexts:
        print(f"  context: {sorted(map(repr, context))}")
    return 0


def _cmd_build_index(args: argparse.Namespace) -> int:
    from repro.build import build_gct_index, build_tsd_index
    graph = _load_graph(args.graph)
    if args.type == "tsd":
        index = build_tsd_index(graph)
    else:
        index = build_gct_index(graph)
    index.save(args.out)
    profile = index.build_profile
    print(f"{args.type.upper()}-index of {graph.num_vertices} vertices "
          f"written to {args.out} "
          f"({index.payload_slots():,} slots, "
          f"built in {profile.total_seconds:.3f}s)")
    return 0


def _cmd_query_index(args: argparse.Namespace) -> int:
    path = args.index
    try:
        index = TSDIndex.load(path)
    except (IndexFormatError, ValueError):  # fall through to GCT format
        index = GCTIndex.load(path)
    result = index.top_r(args.k, args.r)
    print(result.summary())
    for entry in result.entries:
        print(f"  {entry.vertex!r}: score={entry.score}")
    return 0


def _cmd_serve_build(args: argparse.Namespace) -> int:
    from repro.service import IndexStore
    graph = _load_graph(args.graph)
    store = IndexStore(args.store)
    engine = QueryEngine(graph)
    version = engine.persist(store, artifacts=("gct",))
    build_seconds = sum(engine.stats().index_build_seconds.values())
    print(f"stored {', '.join(version.artifact_names)} for graph "
          f"{version.key[:12]}… as v{version.version} in {args.store} "
          f"(built in {build_seconds:.3f}s)")
    return 0


def _parse_update_list(raw: str) -> List[tuple]:
    """Parse an ``op:u:v,op:u:v,...`` update batch (``+u:v`` inserts,
    ``-u:v`` deletes, or the spelled-out op names)."""
    from repro.errors import InvalidParameterError
    ops = {"insert": "insert", "+": "insert", "delete": "delete", "-": "delete"}
    updates = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if part[0] in "+-":
            op_text, rest = part[0], part[1:]
        else:
            op_text, _, rest = part.partition(":")
        u_text, sep, v_text = rest.partition(":")
        if op_text not in ops or not sep:
            raise InvalidParameterError(
                f"bad update item {part!r}: expected op:u:v with op one of "
                "insert/delete (or +u:v / -u:v)")
        updates.append((ops[op_text], _parse_vertex(u_text),
                        _parse_vertex(v_text)))
    return updates


def _cmd_serve_warm(args: argparse.Namespace) -> int:
    from repro.service import ContentKey, DiversityService, IndexStore
    graph = _load_graph(args.graph)
    store = IndexStore(args.store)
    content = ContentKey.of(graph)  # hashed once, for both store calls
    if not store.has(graph, key=content.digest):
        print(f"error: {args.store} has no stored indexes for this graph's "
              "content; run `repro serve-build` first", file=sys.stderr)
        return 1
    service = DiversityService.warm(graph, store, content=content)
    queries = _parse_query_list(args.queries)
    for result in service.top_r_many(queries):
        print(result.summary())
    if args.updates:
        report = service.apply_updates(_parse_update_list(args.updates))
        print(report.summary())
        for result in service.top_r_many(queries):
            print(result.summary())
    print()
    print(service.stats_summary())
    return 0


def _parse_graph_specs(specs: List[str]) -> Optional[List[tuple]]:
    """``NAME=PATH`` pairs, or ``None`` on a malformed spec."""
    pairs = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not path:
            print(f"error: bad --graph {spec!r}: expected NAME=PATH",
                  file=sys.stderr)
            return None
        pairs.append((name, path))
    return pairs


def _cmd_serve_cluster(args: argparse.Namespace, pairs: List[tuple]) -> int:
    """``repro serve --workers N``: the process-sharded cluster path."""
    from repro.cluster import ShardedCluster
    cluster = ShardedCluster(args.workers, store_root=args.store or None,
                             host=args.host,
                             followers=args.replicas,
                             quiet=args.quiet)
    cluster.start(port=args.http)
    try:
        for name, path in pairs:
            answer = cluster.add_graph(name, path=path)
            print(f"graph {name!r}: |V|={answer['vertices']:,} "
                  f"|E|={answer['edges']:,} "
                  f"({'warm' if answer['warm_started'] else 'cold'} start, "
                  f"worker {cluster.owner(name)})")
        base = cluster.url
        replicas = (f", {args.replicas} follower cop"
                    f"{'y' if args.replicas == 1 else 'ies'} per worker"
                    if args.replicas else "")
        print(f"serving {len(pairs)} graph(s) on {base} "
              f"across {args.workers} worker process(es){replicas}")
        print(f"  GET  {base}/graphs/<name>/top_r?k=4&r=10")
        print(f"  GET  {base}/cluster")
        print(f"  GET  {base}/stats")
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        cluster.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import DiversityRouter, serve
    from repro.service import IndexStore
    store = IndexStore(args.store) if args.store else None
    if not args.graph:
        print("error: register at least one graph with --graph NAME=PATH",
              file=sys.stderr)
        return 1
    pairs = _parse_graph_specs(args.graph)
    if pairs is None:
        return 1
    if args.workers < 0:
        print(f"error: --workers must be >= 0, got {args.workers}",
              file=sys.stderr)
        return 1
    if args.replicas < 0:
        print(f"error: --replicas must be >= 0, got {args.replicas}",
              file=sys.stderr)
        return 1
    if args.replicas and args.workers == 0:
        print("error: --replicas needs the process-sharded cluster; "
              "pass --workers N as well", file=sys.stderr)
        return 1
    if args.workers > 0:
        return _cmd_serve_cluster(args, pairs)
    router = DiversityRouter(store=store)
    for name, path in pairs:
        service = router.add_graph(name, _load_graph(path))
        snapshot = service.snapshot
        print(f"graph {name!r}: |V|={snapshot.num_vertices:,} "
              f"|E|={snapshot.num_edges:,} "
              f"({'warm' if service.warm_started else 'cold'} start, "
              f"v{snapshot.version})")
    server = serve(router, port=args.http, host=args.host,
                   quiet=args.quiet, in_thread=True)
    base = f"http://{args.host}:{server.server_port}"
    print(f"serving {len(router)} graph(s) on {base}")
    print(f"  GET  {base}/healthz")
    print(f"  GET  {base}/graphs")
    print(f"  GET  {base}/graphs/<name>/top_r?k=4&r=10&contexts=1")
    print(f"  GET  {base}/graphs/<name>/score?v=0&k=4")
    print(f"  POST {base}/graphs/<name>/updates")
    if store is not None:
        print(f"  POST {base}/compact")
    print(f"  GET  {base}/stats")
    try:
        # serve() already runs the accept loop on a daemon thread; park
        # the main thread until the operator interrupts.
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down")
        server.shutdown()
    return 0


def _cmd_convert_index(args: argparse.Namespace) -> int:
    from repro.service import IndexStore
    store = IndexStore(args.store)
    migrated = store.convert()
    print(f"migrated {migrated} legacy JSON artifact file(s) in "
          f"{args.store}")
    return 0


def _inspect_artifact(path: Path, verify: bool) -> int:
    """``repro store-inspect`` on one ``.bin`` artifact file."""
    from repro.storage import ArtifactReader
    with ArtifactReader(path) as reader:
        stats = reader.stats()
        if verify:
            reader.verify_checksum()
            stats["checksum"] = "ok"
    for field in ("kind", "format_version", "fingerprint", "num_vertices",
                  "records_present", "max_weight", "labels_bytes",
                  "profile_bytes", "dict_bytes", "heap_bytes", "dead_bytes",
                  "file_bytes", "record_bytes_min", "record_bytes_max",
                  "record_bytes_mean", "checksum"):
        if field in stats:
            print(f"{field:>18}: {stats[field]}")
    return 0


def _inspect_store(root: Path) -> int:
    """``repro store-inspect`` on a store root: the manifest catalogue."""
    from repro.service import IndexStore
    store = IndexStore(root)
    keys = store.keys()
    print(f"store {root}: {len(keys)} graph lineage(s)")
    for key in keys:
        versions = store.versions(key)
        print(f"  {key[:12]}…: {len(versions)} version(s)")
        for version in versions:
            parts = []
            for name in version.artifact_names:
                path = root / version.artifacts[name]
                size = path.stat().st_size if path.is_file() else 0
                parts.append(f"{name}[{path.suffix[1:]}, {size:,}B]")
            print(f"    v{version.version}: {' '.join(parts)}")
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.errors import StoreError
    from repro.replication import replicate_store
    try:
        report = replicate_store(args.source, args.dest,
                                 keys=args.key or None, merge=args.merge)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.source} -> {args.dest}")
    print(report.summary())
    return 0


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    from repro.errors import StoreError
    path = Path(args.path)
    try:
        if path.is_file():
            return _inspect_artifact(path, args.verify)
        if (path / "manifest.json").is_file():
            return _inspect_store(path)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"error: {path} is neither a .bin artifact nor an index-store "
          "root", file=sys.stderr)
    return 1


def _cmd_sparsify(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    reduced, stats = sparsify_with_stats(graph, args.k)
    if args.out.endswith(".json"):
        write_json_graph(reduced, args.out)
    else:
        write_edge_list(reduced, args.out)
    print(f"removed {stats.removed_edges:,}/{stats.original_edges:,} edges "
          f"({stats.edge_removal_ratio:.1%}) and "
          f"{stats.removed_vertices:,} isolated vertices; wrote {args.out}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.name)
    if args.out.endswith(".json"):
        write_json_graph(graph, args.out)
    else:
        write_edge_list(graph, args.out, header=f"repro dataset {args.name}")
    print(f"{args.name}: |V|={graph.num_vertices:,} |E|={graph.num_edges:,} "
          f"-> {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import summarize_scores
    from repro.build import build_gct_index
    graph = _load_graph(args.graph)
    index = build_gct_index(graph)
    summary = summarize_scores(index.scores_for_all(args.k))
    print(f"structural diversity at k={args.k} over "
          f"{summary.count:,} vertices:")
    print(f"  with >=1 social context: {summary.nonzero:,} "
          f"({summary.nonzero_fraction:.1%})")
    print(f"  mean score: {summary.mean:.3f}   max score: {summary.maximum}")
    print("  score histogram:")
    for score, count in summary.histogram.items():
        print(f"    {score:>4}: {count:,}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.viz import ego_network_to_dot, contexts_summary
    graph = _load_graph(args.graph)
    vertex = _parse_vertex(args.vertex)
    dot = ego_network_to_dot(graph, vertex, args.k,
                             include_center=args.center)
    Path(args.out).write_text(dot, encoding="utf-8")
    print(contexts_summary(graph, vertex, args.k))
    print(f"DOT written to {args.out} (render with: dot -Tpng {args.out})")
    return 0


def _cmd_communities(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    vertex = _parse_vertex(args.vertex)
    index = TCPIndex.build(graph)
    communities = index.communities(vertex, args.k)
    print(f"{len(communities)} k-truss communities contain {vertex!r} at k={args.k}")
    for i, community in enumerate(communities):
        print(f"  community {i}: {len(community.vertices)} vertices, "
              f"{len(community.edges)} edges")
        if args.verbose:
            print(f"    {sorted(map(repr, community.vertices))}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import main as lint_main
    argv = list(args.paths) + ["--format", args.format]
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Truss-based structural diversity search (ICDE 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="Table-1 statistics of a graph file")
    p.add_argument("graph")
    p.add_argument("--fast", action="store_true",
                   help="skip the expensive tau*_ego column")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("topr", help="top-r structural diversity search")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=3, help="trussness threshold")
    p.add_argument("-r", type=int, default=10, help="answer size")
    p.add_argument("--method", choices=list(ENGINE_METHODS), default="gct",
                   help="search method; 'auto' lets the cost-based "
                        "planner choose")
    p.add_argument("--contexts", action="store_true",
                   help="print the social contexts of each answer vertex")
    p.set_defaults(func=_cmd_topr)

    p = sub.add_parser("engine-stats",
                       help="run a workload through the query engine and "
                            "report planner decisions and cache stats")
    p.add_argument("graph")
    p.add_argument("--queries", default="3:10,4:10,3:5,5:10,4:3",
                   help="workload as comma-separated k:r pairs "
                        "(default: %(default)s)")
    p.add_argument("--method", choices=list(ENGINE_METHODS), default="auto")
    p.set_defaults(func=_cmd_engine_stats)

    p = sub.add_parser("score", help="score and contexts of one vertex")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.add_argument("-k", type=int, default=3)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("build-index", help="build and persist an index")
    p.add_argument("graph")
    p.add_argument("out")
    p.add_argument("--type", choices=["tsd", "gct"], default="gct")
    p.set_defaults(func=_cmd_build_index)

    p = sub.add_parser("query-index", help="top-r from a persisted index")
    p.add_argument("index")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-r", type=int, default=10)
    p.set_defaults(func=_cmd_query_index)

    p = sub.add_parser("serve-build",
                       help="build the GCT index into a versioned store "
                            "for later warm starts")
    p.add_argument("graph")
    p.add_argument("store", help="index-store directory (created if missing)")
    p.set_defaults(func=_cmd_serve_build)

    p = sub.add_parser("serve-warm",
                       help="serve a workload warm from a store — zero "
                            "index builds")
    p.add_argument("graph")
    p.add_argument("store", help="index-store directory")
    p.add_argument("--queries", default="3:10,4:10,3:5,5:10,4:3",
                   help="workload as comma-separated k:r pairs "
                        "(default: %(default)s)")
    p.add_argument("--updates", default="",
                   help="live edge updates applied after the workload, as "
                        "comma-separated +u:v (insert) / -u:v (delete) "
                        "items; the workload is then replayed on the new "
                        "snapshot")
    p.set_defaults(func=_cmd_serve_warm)

    p = sub.add_parser("serve",
                       help="HTTP JSON API over one or more named graphs "
                            "(multi-graph routing, live updates, "
                            "store compaction)")
    p.add_argument("--http", type=int, required=True, metavar="PORT",
                   help="port to listen on (0 binds an ephemeral port)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: %(default)s)")
    p.add_argument("--graph", action="append", default=[],
                   metavar="NAME=PATH",
                   help="register a graph under a name; repeatable")
    p.add_argument("--store", default="",
                   help="shared index-store directory: graphs warm-start "
                        "from it and persist into it (created if missing); "
                        "with --workers, each worker keeps its own root "
                        "under this directory")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="shard graphs across N worker processes behind a "
                        "consistent-hash router tier (supervised restarts, "
                        "per-worker stores); 0 keeps the single-process "
                        "router (default: %(default)s)")
    p.add_argument("--replicas", type=int, default=0, metavar="M",
                   help="follower store copies per worker (needs "
                        "--workers): a background thread keeps M replica "
                        "roots per worker in sync, and a worker whose "
                        "primary store root is lost restores from the "
                        "newest valid replica at respawn "
                        "(default: %(default)s)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-request access logs")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("replicate",
                       help="one follower-sync pass: mirror an index "
                            "store root into a replica root (byte-range "
                            "deltas, checksum-verified)")
    p.add_argument("source", help="primary store root (read-only)")
    p.add_argument("dest",
                   help="follower/replica root (created if missing)")
    p.add_argument("--key", action="append", default=[], metavar="KEY",
                   help="restrict the pass to one graph key; repeatable "
                        "(default: every key)")
    p.add_argument("--merge", action="store_true",
                   help="keep the destination's existing lineages for "
                        "keys the source does not carry (default: exact "
                        "mirror of the selection)")
    p.set_defaults(func=_cmd_replicate)

    p = sub.add_parser("convert-index",
                       help="migrate a store's legacy JSON tsd/gct "
                            "artifacts to the binary format in place")
    p.add_argument("store", help="index-store directory")
    p.set_defaults(func=_cmd_convert_index)

    p = sub.add_parser("store-inspect",
                       help="print a .bin artifact's header and layout "
                            "stats, or a store root's catalogue")
    p.add_argument("path", help="a .bin artifact file or a store root")
    p.add_argument("--verify", action="store_true",
                   help="verify the artifact's payload checksum "
                        "(.bin files only)")
    p.set_defaults(func=_cmd_store_inspect)

    p = sub.add_parser("sparsify", help="write the Property-1 reduced graph")
    p.add_argument("graph")
    p.add_argument("out")
    p.add_argument("-k", type=int, default=3)
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("generate", help="write a registry dataset to disk")
    p.add_argument("name", choices=dataset_names())
    p.add_argument("out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="diversity score distribution")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=4)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("dot", help="export an ego-network with its "
                                   "social contexts as Graphviz DOT")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.add_argument("out")
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--center", action="store_true",
                   help="include the ego vertex and its spokes")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("communities", help="k-truss community search")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_communities)

    p = sub.add_parser("lint", help="AST-based invariant checks over "
                                    "the repro source (RL001-RL005)")
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="files or directories to lint (default: the "
                        "installed repro package source)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--list-rules", action="store_true",
                   help="print each rule and its invariant, then exit")
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``repro`` console script)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
