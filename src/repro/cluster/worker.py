"""The cluster's worker process: one shard of the graph fleet.

A worker is the *existing* single-process serving stack — a
:class:`~repro.server.router.DiversityRouter` behind the
:mod:`repro.server.http` JSON API — running in its own process, on its
own port, over its own :class:`~repro.service.IndexStore` root.  The
public API is untouched byte-for-byte (that is what makes the
frontend's routed proxy answer-preserving); what a worker adds is a
private control surface the cluster parent drives:

=========  ==========================  ==================================
Method     Path                        Meaning
=========  ==========================  ==================================
``POST``   ``/admin/graphs``           register a graph on this worker
                                       (``{"name": .., "path": ..}`` or
                                       ``{"name": .., "graph": payload}``)
``GET``    ``/admin/info``             worker identity: slot, pid, graphs
=========  ==========================  ==================================

Registration is idempotent — re-posting a name the router already
serves answers 200 with the existing graph's stats — because the
supervisor *replays* registrations at a respawned worker, and a replay
must never fail halfway.  A respawned worker keeps its store root, so
replayed graphs warm-start from the artifacts their previous
incarnation persisted: recovery costs a process spawn plus artifact
loads, not index rebuilds.

Index builds inside the worker go through the auto-planned
:mod:`repro.build` pipeline; cluster workers are daemonic, where
:mod:`repro.build.parallel` degrades pool dispatch to the
byte-identical in-process path.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.errors import InvalidParameterError
from repro.graph.io import graph_from_payload, read_edge_list, read_json_graph
from repro.server.http import DiversityHTTPServer, DiversityRequestHandler
from repro.server.router import DiversityRouter
from repro.service.store import IndexStore


def load_graph_spec(spec: Dict[str, object]):
    """Materialise a registration spec's graph.

    ``spec`` carries either ``path`` (an edge-list or ``.json`` graph
    file readable from this process) or ``graph`` (an inline
    :func:`~repro.graph.io.graph_to_payload` dict).
    """
    path = spec.get("path")
    if path is not None:
        path = str(path)
        if path.endswith(".json"):
            return read_json_graph(path)
        return read_edge_list(path)
    payload = spec.get("graph")
    if isinstance(payload, dict):
        return graph_from_payload(payload)
    raise InvalidParameterError(
        'a graph registration needs "path" or "graph" (a repro-graph '
        "payload)")


class WorkerRequestHandler(DiversityRequestHandler):
    """The public JSON API plus the cluster-private ``/admin`` routes."""

    server_version = "repro-cluster-worker/1.0"

    def _route(self, method: str, segments: List[str],
               params: Dict[str, str]) -> bool:
        if segments[:1] == ["admin"]:
            return self._route_admin(method, segments[1:])
        return super()._route(method, segments, params)

    def _route_admin(self, method: str, rest: List[str]) -> bool:
        router = self.router
        if method == "POST" and rest == ["graphs"]:
            body = self._read_body()
            if not isinstance(body, dict) or "name" not in body:
                raise InvalidParameterError(
                    'expected {"name": .., "path"|"graph": ..}')
            name = body["name"]
            if name in router:
                service = router.service(name)  # idempotent replay
            else:
                service = router.add_graph(name, load_graph_spec(body))
            self._respond(200, dict(service.stats_payload(), name=name))
            return True
        if method == "POST" and rest == ["graphs", "remove"]:
            # Shard-handoff drain: the cluster deregisters a moved
            # graph from its old owner once the pin points elsewhere.
            # Idempotent — removing an unknown name reports removed
            # False instead of erroring, so a retried drain is safe.
            body = self._read_body()
            if not isinstance(body, dict) or "name" not in body:
                raise InvalidParameterError('expected {"name": ..}')
            name = body["name"]
            removed = name in router
            if removed:
                router.remove_graph(name)
            self._respond(200, {"name": name, "removed": removed})
            return True
        if method == "GET" and rest == ["info"]:
            server = self.server
            self._respond(200, {
                "slot": server.slot,
                "pid": os.getpid(),
                "graphs": router.graphs(),
                "store": str(router.store.root)
                if router.store is not None else None,
            })
            return True
        return False


class WorkerHTTPServer(DiversityHTTPServer):
    """A worker's HTTP server: the shared handler plus a slot identity."""

    def __init__(self, address, router: DiversityRouter, slot: int,
                 quiet: bool = True) -> None:
        super().__init__(address, router, quiet=quiet,
                         handler_class=WorkerRequestHandler)
        self.slot = slot


def run_worker(slot: int, host: str, port: int,
               store_root: Optional[str],
               ready, quiet: bool = True) -> None:  # pragma: no cover
    """Worker process entry point (target of the cluster's spawn).

    Builds an empty router (graphs arrive via ``POST /admin/graphs``),
    binds the HTTP server, reports ``("ready", port)`` through the
    ``ready`` pipe, then serves until the parent terminates the
    process.  Excluded from in-process coverage — this function only
    ever runs inside spawned worker processes (the cluster tests
    exercise it end to end over the wire).
    """
    try:
        store = IndexStore(store_root) if store_root else None
        router = DiversityRouter(store=store)
        server = WorkerHTTPServer((host, port), router, slot, quiet=quiet)
    except BaseException as exc:
        try:
            ready.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            ready.close()
        raise
    ready.send(("ready", server.server_port))
    ready.close()
    try:
        server.serve_forever()
    finally:
        server.server_close()
