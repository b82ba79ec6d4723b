"""Stdlib-only HTTP front over a :class:`DiversityRouter`.

The serve-many-queries regime the paper motivates needs a network
boundary; this module provides one with nothing beyond the stdlib — a
:class:`ThreadingHTTPServer` whose handler (framed by
:mod:`repro.server.wire`) maps a small JSON API onto the router:

=========  =============================  =====================================
Method     Path                           Meaning
=========  =============================  =====================================
``GET``    ``/healthz``                   liveness probe
``GET``    ``/graphs``                    registered graphs + per-graph stats
``GET``    ``/graphs/<name>``             one graph's stats
``GET``    ``/graphs/<name>/top_r``       canonical top-r (``k``, ``r``,
                                          optional ``contexts=1``)
``GET``    ``/graphs/<name>/score``       one vertex's score (``v``, ``k``)
``GET``    ``/graphs/<name>/updates/feed``  applied batches after ``since``
                                          (long-poll via ``timeout``)
``POST``   ``/graphs/<name>/updates``     apply an edge batch
``POST``   ``/graphs/<name>/updates/feed/truncate``  checkpoint the feed
                                          (``{"version": N}`` or ``{"seq": N}``)
``POST``   ``/compact``                   compact the shared store
``GET``    ``/stats``                     whole-fleet counters
=========  =============================  =====================================

Every response body is JSON.  Errors come back as
``{"error": "<message>"}`` with the status mapped from the library's
exception hierarchy (unknown graph → 404, invalid parameters → 400,
store misuse → 409).

Answer fidelity: ``top_r`` responses carry exactly the vertices and
scores of the in-process :meth:`DiversityService.top_r` for the same
snapshot — each ThreadingHTTPServer worker thread reads the lock-free
snapshot the same way an in-process caller would.

Examples
--------
>>> from repro.graph.graph import Graph
>>> from repro.server.router import DiversityRouter
>>> router = DiversityRouter()
>>> _ = router.add_graph("g", Graph(edges=[(0, 1), (1, 2), (0, 2)]))
>>> server = serve(router, port=0)          # ephemeral port
>>> from repro.server.client import ServerClient
>>> client = ServerClient(f"http://127.0.0.1:{server.server_port}")
>>> client.top_r("g", k=3, r=1)["vertices"]
[0]
>>> server.shutdown()
"""

from __future__ import annotations

import json
import threading
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import (
    GraphError,
    InvalidParameterError,
    ReproError,
    StoreError,
    UnknownGraphError,
)
from repro.core.results import SearchResult
from repro.server.router import DiversityRouter
from repro.server.wire import WireRequestHandler


def parse_vertex(raw: str) -> object:
    """Vertex labels over the wire: integers when they look like one
    (the same convention the CLI uses)."""
    try:
        return int(raw)
    except ValueError:
        return raw


def result_payload(result: SearchResult,
                   include_contexts: bool = False) -> Dict[str, object]:
    """JSON-able form of a :class:`SearchResult`.

    ``vertices`` and ``scores`` mirror the in-process properties
    byte-for-byte once JSON-encoded; contexts (sets) are serialised as
    repr-sorted member lists for deterministic bytes.
    """
    payload: Dict[str, object] = {
        "method": result.method,
        "k": result.k,
        "r": result.r,
        "vertices": result.vertices,
        "scores": result.scores,
        "search_space": result.search_space,
        "elapsed_seconds": result.elapsed_seconds,
    }
    if include_contexts:
        payload["entries"] = [
            {"vertex": entry.vertex, "score": entry.score,
             "contexts": [sorted(context, key=repr)
                          for context in entry.contexts]}
            for entry in result.entries]
    return payload


def _coerce_updates(body: object) -> List[Tuple[str, object, object]]:
    """Accept ``{"updates": [...]}`` or a bare list of ``[op, u, v]``.

    List-shaped endpoints become tuples — JSON has no tuple, so a
    tuple-labelled vertex arrives as a list, exactly as in
    :func:`repro.graph.io.graph_from_payload` (and a genuine list label
    cannot exist: labels must be hashable).
    """
    if isinstance(body, dict):
        body = body.get("updates")
    if not isinstance(body, list):
        raise InvalidParameterError(
            'expected {"updates": [[op, u, v], ...]} or a bare list')
    updates = []
    for item in body:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise InvalidParameterError(
                f"bad update item {item!r}: expected [op, u, v]")
        op, u, v = item
        update = (op, tuple(u) if isinstance(u, list) else u,
                  tuple(v) if isinstance(v, list) else v)
        try:
            hash(update)
        except TypeError:
            raise InvalidParameterError(
                f"bad update item {item!r}: vertex labels must be "
                f"scalars or flat lists") from None
        updates.append(update)
    return updates


def _reject_constant(name: str) -> object:
    """``NaN`` / ``Infinity`` / ``-Infinity`` are not JSON: a NaN label
    would even pass the self-loop check (``NaN != NaN``)."""
    raise InvalidParameterError(f"{name} is not a JSON value")


class DiversityRequestHandler(WireRequestHandler):
    """Maps the JSON API onto the owning server's router."""

    server_version = "repro-serve/1.0"

    # -- plumbing ------------------------------------------------------
    @property
    def router(self) -> DiversityRouter:
        return self.server.router

    def _respond(self, status: int, payload: Dict[str, object]) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"))

    def _read_body(self) -> object:
        if not self._raw_body:
            return None
        try:
            return json.loads(self._raw_body.decode("utf-8"),
                              parse_constant=_reject_constant)
        except ValueError as exc:
            raise InvalidParameterError(
                f"request body is not valid JSON ({exc})") from exc

    @staticmethod
    def _int_param(params: Dict[str, object], name: str,
                   default: Optional[int] = None) -> int:
        """An integer from the query string (or a JSON body field)."""
        raw = params.get(name)
        if raw is None:
            if default is None:
                raise InvalidParameterError(
                    f"missing required query parameter {name!r}")
            return default
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"parameter {name}={raw!r} is not an integer") from None

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        parsed = urlsplit(self.path)
        segments = [s for s in parsed.path.split("/") if s]
        params = dict(parse_qsl(parsed.query))
        try:
            self._raw_body = self._drain_body()
            handled = self._route(method, segments, params)
        except UnknownGraphError as exc:
            # KeyError.__str__ reprs its argument; unwrap for clean JSON.
            self._respond(404, {"error": str(exc.args[0])})
        except (InvalidParameterError, GraphError) as exc:
            self._respond(400, {"error": str(exc)})
        except StoreError as exc:
            self._respond(409, {"error": str(exc)})
        except ReproError as exc:  # pragma: no cover - safety net
            self._respond(500, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover; repro-lint: disable=RL003 -- handler threads must outlive any single bad request
            self._respond(500, {"error": f"internal error: {exc}"})
        else:
            if not handled:
                self._respond(404, {"error": f"no such endpoint: "
                                             f"{method} {parsed.path}"})

    def _route(self, method: str, segments: List[str],
               params: Dict[str, str]) -> bool:
        router = self.router
        if method == "GET" and segments == ["healthz"]:
            self._respond(200, {"status": "ok",
                                "graphs": len(router)})
            return True
        if method == "GET" and segments == ["stats"]:
            self._respond(200, router.stats_payload())
            return True
        if method == "GET" and segments == ["graphs"]:
            self._respond(200, {"graphs": router.graphs_payload()})
            return True
        if method == "POST" and segments == ["compact"]:
            self._respond(200, router.compact().to_payload())
            return True
        if len(segments) >= 2 and segments[0] == "graphs":
            return self._route_graph(method, segments[1], segments[2:],
                                     params)
        return False

    def _route_graph(self, method: str, name: str, rest: List[str],
                     params: Dict[str, str]) -> bool:
        router = self.router
        if method == "GET" and rest == []:
            self._respond(200, dict(router.service(name).stats_payload(),
                                    name=name))
            return True
        if method == "GET" and rest == ["top_r"]:
            k = self._int_param(params, "k")
            r = self._int_param(params, "r", default=10)
            include_contexts = params.get(
                "contexts", "0").lower() in ("1", "true", "yes", "on")
            result = router.top_r(name, k, r,
                                  collect_contexts=include_contexts)
            payload = result_payload(result,
                                     include_contexts=include_contexts)
            payload["graph"] = name
            self._respond(200, payload)
            return True
        if method == "GET" and rest == ["score"]:
            raw = params.get("v")
            if raw is None:
                raise InvalidParameterError(
                    "missing required query parameter 'v'")
            vertex = parse_vertex(raw)
            k = self._int_param(params, "k")
            score = router.score(name, vertex, k)
            self._respond(200, {"graph": name, "vertex": vertex,
                                "k": k, "score": score})
            return True
        if method == "GET" and rest == ["updates", "feed"]:
            router.service(name)  # 404 for unregistered graphs
            since = self._int_param(params, "since", default=0)
            raw_timeout = params.get("timeout", "0")
            try:
                # Clamp below the pooled client's 30s socket timeout so
                # an idle long-poll answers before the caller gives up.
                timeout = min(max(float(raw_timeout), 0.0), 25.0)
            except ValueError:
                raise InvalidParameterError(
                    f"query parameter timeout={raw_timeout!r} is not "
                    f"a number") from None
            if timeout > 0:
                entries, last, complete = self.router.feed.wait(
                    name, since, timeout)
            else:
                entries, last, complete = self.router.feed.since(
                    name, since)
            self._respond(200, {
                "graph": name,
                "since": since,
                "last_seq": last,
                "complete": complete,
                "entries": [entry.to_payload() for entry in entries],
            })
            return True
        if method == "POST" and rest == ["updates"]:
            updates = _coerce_updates(self._read_body())
            report = router.apply_updates(name, updates)
            # One snapshot read keeps version and key from the same
            # post-apply state (the cluster journals both together).
            snapshot = router.service(name).snapshot
            self._respond(200, {
                "graph": name,
                "num_updates": report.num_updates,
                "affected_vertices": sorted(report.affected_vertices,
                                            key=repr),
                "rebuilt_forests": report.rebuilt_forests,
                "invalidated_thresholds": list(
                    report.invalidated_thresholds),
                "retained_thresholds": list(report.retained_thresholds),
                "vertex_set_changed": report.vertex_set_changed,
                "seconds": report.seconds,
                "version": snapshot.version,
                "key": snapshot.key,
            })
            return True
        if method == "POST" and rest == ["updates", "feed", "truncate"]:
            router.service(name)  # 404 for unregistered graphs
            body = self._read_body()
            if not isinstance(body, dict):
                raise InvalidParameterError(
                    'expected {"version": N} or {"seq": N}')
            if body.get("version") is not None:
                dropped = self.router.feed.truncate_version(
                    name, self._int_param(body, "version"))
            elif body.get("seq") is not None:
                dropped = self.router.feed.truncate(
                    name, self._int_param(body, "seq"))
            else:
                raise InvalidParameterError(
                    'expected {"version": N} or {"seq": N}')
            self._respond(200, {
                "graph": name,
                "dropped": dropped,
                "last_seq": self.router.feed.last_seq(name),
            })
            return True
        return False


class DiversityHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one router.

    Worker threads serve concurrently; reads are lock-free all the way
    down (thread → router dict lookup → snapshot reference), so a slow
    reader never blocks an update and vice versa.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], router: DiversityRouter,
                 quiet: bool = True, handler_class=None) -> None:
        # handler_class lets the cluster's worker processes bolt their
        # private /admin routes onto this same server without forking it.
        super().__init__(address, handler_class or DiversityRequestHandler)
        self.router = router
        self.quiet = quiet


def serve(router: DiversityRouter, port: int, host: str = "127.0.0.1",
          quiet: bool = True, in_thread: bool = True) -> DiversityHTTPServer:
    """Start serving ``router`` over HTTP; returns the live server.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_port``).  With ``in_thread`` (the default) the
    accept loop runs on a daemon thread and the call returns
    immediately — call ``server.shutdown()`` to stop; otherwise the
    caller runs ``serve_forever`` itself.
    """
    server = DiversityHTTPServer((host, port), router, quiet=quiet)
    if in_thread:
        thread = threading.Thread(target=server.serve_forever,
                                  name="repro-serve", daemon=True)
        thread.start()
    return server
