""":class:`ClusterFrontend`: the router tier clients actually talk to.

One address for a fleet of worker processes.  The frontend terminates
client HTTP, looks the graph name up in the cluster's
:class:`~repro.cluster.shardmap.ShardMap`, and relays the request to
the owning worker over the worker handle's one pooled keep-alive
:class:`~repro.server.client.ServerClient` — status and body are
passed through **byte-for-byte**, so a routed answer is exactly what a
single-process :class:`~repro.server.router.DiversityRouter` serving
that graph would have returned.  Both hops are framed by
:mod:`repro.server.wire`: the client's head is parsed without
:mod:`email`, the worker's answer comes back over a raw socket, and
the relayed response leaves in one send.  Fleet-wide endpoints fan
out to every live worker and merge the JSON:

=========  =============================  ==============================
Method     Path                           Behaviour
=========  =============================  ==============================
``GET``    ``/graphs/<name>[/...]``       proxied to the owning worker
``POST``   ``/graphs/<name>/...``         proxied to the owning worker
``GET``    ``/graphs``                    fan-out, lists merged by name
``GET``    ``/stats``                     fan-out, counters summed
``GET``    ``/healthz``                   fan-out, ``degraded`` when a
                                          worker is down
``POST``   ``/compact``                   fan-out, reports summed
``GET``    ``/cluster``                   topology: slots, ports, pins,
                                          per-worker graph placement
=========  =============================  ==============================

When the owning worker is down the frontend answers **503** with a
``Retry-After`` header sized to the supervisor's restart interval —
the contractual "come back in a moment, the supervisor is respawning
it" — and never touches any other worker's graphs: a dead shard
degrades exactly one arc of the hash ring.
"""

from __future__ import annotations

import json
import threading
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import InvalidParameterError, ServerError
from repro.server.wire import WireRequestHandler

#: Fleet-wide fan-out endpoints (everything else under /graphs routes).
_FANOUT_GET = ("healthz", "stats", "graphs", "cluster")


class ClusterRequestHandler(WireRequestHandler):
    """Routes one request: proxy to the owning worker, or fan out."""

    server_version = "repro-cluster/1.0"

    @property
    def cluster(self):
        return self.server.cluster

    # -- plumbing ------------------------------------------------------
    def _respond(self, status: int, payload: Dict[str, object],
                 headers: Optional[Dict[str, str]] = None) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"),
                   headers=headers)

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        parsed = urlsplit(self.path)
        segments = [s for s in parsed.path.split("/") if s]
        try:
            body = self._drain_body()
            handled = self._route(method, segments, body)
        except InvalidParameterError as exc:
            self._respond(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover; repro-lint: disable=RL003 -- router threads must outlive any single bad request
            self._respond(500, {"error": f"internal error: {exc}"})
        else:
            if not handled:
                self._respond(404, {"error": f"no such endpoint: "
                                             f"{method} {parsed.path}"})

    def _route(self, method: str, segments: List[str],
               body: bytes) -> bool:
        if len(segments) >= 2 and segments[0] == "graphs":
            self._proxy(method, segments[1], segments[2:], body)
            return True
        if method == "GET" and len(segments) == 1 \
                and segments[0] in _FANOUT_GET:
            getattr(self, f"_fan_{segments[0]}")()
            return True
        if method == "POST" and segments == ["compact"]:
            self._fan_compact()
            return True
        return False

    # -- routed proxy --------------------------------------------------
    def _proxy(self, method: str, name: str, rest: List[str],
               body: bytes) -> None:
        if method == "GET":
            self._proxy_resolved(method, name, rest, body)
            return
        # Writes serialise through the graph's gate: a shard move's
        # final catch-up closes it while replaying the journal tail and
        # flipping the pin, so no write can land on the old owner after
        # the tail was captured — and mid-move writes *wait* (for
        # milliseconds) instead of failing.  Reads never gate: they
        # double-serve from the old owner until the flip.
        with self.cluster.write_gate(name):
            self._proxy_resolved(method, name, rest, body)

    def _proxy_resolved(self, method: str, name: str, rest: List[str],
                        body: bytes) -> None:
        cluster = self.cluster
        # Owner resolved *after* any gate acquisition: a write that
        # waited out a shard move must go to the new owner.
        slot = cluster.owner(name)
        client = cluster.client_for(slot)
        if client is None:
            self._worker_down(name, slot)
            return
        headers = {}
        if body:
            headers["Content-Type"] = self.headers.get(
                "Content-Type", "application/json")
        try:
            status, payload = client.request_raw(
                method, self.path, body=body or None, headers=headers)
        except ServerError:
            cluster.note_worker_failure(slot)
            retried = self._fast_retry(method, slot, body, headers)
            if retried is None:
                self._worker_down(name, slot)
                return
            status, payload = retried
        if method == "POST" and rest == ["updates"] and status == 200:
            # Journaled only after the owner confirmed the apply — the
            # journal replays exactly what the fleet acknowledged.  The
            # ack's post-apply store version/key ride along: they are
            # what checkpointing compares against replication's shipped
            # floors to decide when this batch may be folded away.
            version = key = None
            try:
                answer = json.loads(payload.decode("utf-8"))
                version = answer.get("version")
                key = answer.get("key")
            except (ValueError, AttributeError):
                pass  # non-JSON/odd ack: journal untagged (never folds
                #       under followers; still replays correctly)
            cluster.note_update(name, body, version=version, key=key)
        self._send(status, payload)

    def _fast_retry(self, method: str, slot: int, body: bytes,
                    headers: Dict[str, str]
                    ) -> Optional[Tuple[int, bytes]]:
        """One immediate re-probe of the owner after a connection-level
        relay failure, before conceding 503.

        Covers the commonest non-failure: the worker recycled an idle
        keep-alive socket (or was respawned between requests) and a
        fresh connection succeeds instantly.  Only idempotent ``GET``s
        re-send — a ``POST`` may have been mid-apply when the socket
        died, and re-sending could double-apply a batch.
        """
        if method != "GET":
            return None
        client = self.cluster.client_for(slot)
        if client is None:
            return None
        try:
            return client.request_raw(method, self.path,
                                      body=body or None, headers=headers)
        except ServerError:
            self.cluster.note_worker_failure(slot)
            return None

    def _worker_down(self, name: str, slot: int) -> None:
        retry = self.cluster.retry_after_seconds
        self._respond(503, {
            "error": f"worker {slot} (serving graph {name!r}) is down; "
                     f"retry in {retry}s",
            "worker": slot,
        }, headers={"Retry-After": str(retry)})

    # -- fan-out -------------------------------------------------------
    def _fan_out(self, call) -> Tuple[List[Tuple[int, Dict]], List[int],
                                      Dict[str, str]]:
        """Apply ``call(client)`` to every live worker.

        Returns ``(answers, down_slots, errors)``.  Connection-level
        failures (status 0) mean the worker is *down*: it is reported
        and the supervisor woken.  An HTTP error from a live worker is
        an application failure, not a death — the worker stays in
        service and its message is surfaced under its slot in
        ``errors``.  Nothing is silently skipped.
        """
        answers: List[Tuple[int, Dict]] = []
        down: List[int] = []
        errors: Dict[str, str] = {}
        for slot, client in self.cluster.live_clients():
            if client is None:
                down.append(slot)
                continue
            try:
                answers.append((slot, call(client)))
            except ServerError as exc:
                if exc.status == 0:
                    self.cluster.note_worker_failure(slot)
                    down.append(slot)
                else:
                    errors[str(slot)] = exc.message
        return answers, down, errors

    @staticmethod
    def _flag_errors(payload: Dict, errors: Dict[str, str]) -> Dict:
        if errors:
            payload["worker_errors"] = errors
        return payload

    def _fan_healthz(self) -> None:
        answers, down, errors = self._fan_out(lambda client:
                                              client.healthz())
        supervision = self.cluster.supervision_payload()
        self._respond(200, self._flag_errors({
            "status": "ok" if not down and not errors else "degraded",
            "graphs": sum(payload["graphs"] for _, payload in answers),
            "workers": self.cluster.num_workers,
            "workers_alive": len(answers),
            "workers_down": sorted(down),
            "respawns": supervision["respawns"],
            "last_respawn_error": supervision["last_respawn_error"],
        }, errors))

    def _fan_graphs(self) -> None:
        answers, down, errors = self._fan_out(lambda client:
                                              client.graphs())
        merged = [entry for _, listing in answers for entry in listing]
        merged.sort(key=lambda entry: entry["name"])
        # workers_down distinguishes "deregistered" from "temporarily
        # unlisted because its worker is down" for inventory readers.
        self._respond(200, self._flag_errors(
            {"graphs": merged, "workers_down": sorted(down)}, errors))

    def _fan_stats(self) -> None:
        answers, down, errors = self._fan_out(lambda client:
                                              client.stats())
        graphs: Dict[str, Dict] = {}
        workers = []
        for slot, payload in sorted(answers):
            graphs.update(payload["graphs"])
            entry: Dict[str, object] = {
                "slot": slot,
                "port": self.cluster.worker_port(slot),
                "queries_total": payload["queries_total"],
                "updates_total": payload["updates_total"],
            }
            if "store" in payload:
                entry["store"] = payload["store"]
            workers.append(entry)
        self._respond(200, self._flag_errors({
            "graphs": dict(sorted(graphs.items())),
            "queries_total": sum(w["queries_total"] for w in workers),
            "updates_total": sum(w["updates_total"] for w in workers),
            "workers": workers,
            "workers_down": sorted(down),
            "supervision": self.cluster.supervision_payload(),
            "journal": self.cluster.journal_payload(),
        }, errors))

    def _fan_compact(self) -> None:
        answers, down, errors = self._fan_out(lambda client:
                                              client.compact())
        merged = {
            "removed_versions": 0, "removed_keys": [],
            "removed_files": 0, "reclaimed_bytes": 0, "kept_versions": 0,
        }
        for _, payload in sorted(answers):
            merged["removed_versions"] += payload["removed_versions"]
            merged["removed_keys"].extend(payload["removed_keys"])
            merged["removed_files"] += payload["removed_files"]
            merged["reclaimed_bytes"] += payload["reclaimed_bytes"]
            merged["kept_versions"] += payload["kept_versions"]
        merged["workers_compacted"] = len(answers)
        merged["workers_down"] = sorted(down)
        self._respond(200, self._flag_errors(merged, errors))

    def _fan_cluster(self) -> None:
        self._respond(200, self.cluster.topology_payload())


class ClusterFrontend(ThreadingHTTPServer):
    """The cluster's public :class:`ThreadingHTTPServer`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], cluster,
                 quiet: bool = True) -> None:
        super().__init__(address, ClusterRequestHandler)
        self.cluster = cluster
        self.quiet = quiet


def serve_frontend(cluster, port: int, host: str = "127.0.0.1",
                   quiet: bool = True) -> ClusterFrontend:
    """Start the frontend's accept loop on a daemon thread."""
    frontend = ClusterFrontend((host, port), cluster, quiet=quiet)
    thread = threading.Thread(target=frontend.serve_forever,
                              name="repro-cluster-frontend", daemon=True)
    thread.start()
    return frontend
