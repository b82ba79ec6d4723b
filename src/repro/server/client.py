""":class:`ServerClient`: a thin stdlib client for the HTTP front.

Tests, examples, operators — and the cluster frontend's proxy hot path
— talk to a running :class:`~repro.server.http.DiversityHTTPServer`
through this wrapper.  The transport is a small pool of *persistent*
raw sockets framed by :mod:`repro.server.wire`: each request leaves in
one ``sendall``, and the response is read off the same socket by the
head reader the servers use, so one socket carries many requests (a
proxy that fronts every routed query with one upstream hop cannot
afford a TCP handshake, or :mod:`http.client`'s per-call object
layers, on each).  JSON in and out, HTTP error statuses re-raised as
:class:`~repro.errors.ServerError` with the server's message attached.

Concurrency: the pool hands each in-flight request its own connection
(created on demand when the pool is empty), so one client instance may
be shared across threads; sockets are only reused, never shared.

Examples
--------
>>> from repro.graph.graph import Graph
>>> from repro.server.router import DiversityRouter
>>> from repro.server.http import serve
>>> router = DiversityRouter()
>>> _ = router.add_graph("g", Graph(edges=[(0, 1), (1, 2), (0, 2)]))
>>> server = serve(router, port=0)
>>> client = ServerClient(f"http://127.0.0.1:{server.server_port}")
>>> client.healthz()["status"]
'ok'
>>> client.top_r("g", k=3, r=1)["vertices"]  # same socket, second request
[0]
>>> client.connections_opened
1
>>> client.close()
>>> server.shutdown()
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode, urlsplit

from repro.errors import InvalidParameterError, ServerError
from repro.server import wire

#: An update over the wire: ``(op, u, v)`` with op insert/delete.
WireUpdate = Tuple[str, object, object]

#: Connection failures: socket errors (timeouts included) and bytes the
#: wire reader cannot frame.  On a *reused* connection they usually
#: mean the socket went stale under us — the server may close an idle
#: keep-alive socket at any time — so one retry on a fresh connection
#: is the standard recovery where re-sending is safe.
_TRANSPORT_ERRORS = (OSError, wire.WireError)

#: Statuses worth another idempotent attempt: the cluster frontend
#: answers 503 (with Retry-After) while a dead worker respawns, and a
#: reverse proxy says 502 for the same transient condition.
_RETRIABLE_STATUSES = (502, 503)

#: Backoff pauses never exceed this, whatever the attempt count.
_MAX_BACKOFF = 2.0


def _retry_jitter(token: str, attempt: int) -> float:
    """Deterministic jitter in ``[0, 1)`` for one retry of one request.

    Derived from a hash, not the RNG: retry schedules must not depend
    on (or disturb) any seeded experiment randomness, yet distinct
    requests still decorrelate so a fleet of retrying clients does not
    stampede a respawning worker in lockstep.
    """
    digest = hashlib.sha256(f"{token}#{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") / 2 ** 32


class ServerClient:
    """JSON-over-HTTP client for a diversity server, with keep-alive.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``http://127.0.0.1:8080``.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Extra attempts for **idempotent** requests (``GET``/``HEAD``)
        that fail at the connection level or answer a retriable 5xx
        (502/503 — the frontend's "worker respawning" signal).  Writes
        are never re-sent at this layer.  Default 0: one attempt, the
        historical behaviour.
    retry_backoff:
        Base pause before retry *n* is ``retry_backoff * 2**n`` seconds
        (capped at 2s), scaled by a deterministic per-request jitter in
        ``[0.5, 1.0)``.
    deadline:
        Optional per-request wall-clock budget in seconds.  Retrying
        stops once the next pause would cross it; the last failure is
        then surfaced as-is.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 0, retry_backoff: float = 0.05,
                 deadline: Optional[float] = None) -> None:
        self._base = base_url.rstrip("/")
        parts = urlsplit(self._base)
        if parts.scheme not in ("http", ""):
            raise ServerError(0, f"unsupported scheme in {base_url!r}: "
                                 "only http:// servers exist here")
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or 80
        host = f"[{self._host}]" if ":" in self._host else self._host
        self._host_header = f"{host}:{self._port}"
        # A path in base_url (server behind a prefixed reverse proxy)
        # must survive the transport: requests go to <prefix><path>.
        self._prefix = parts.path.rstrip("/")
        self._timeout = timeout
        self._retries = max(0, int(retries))
        self._retry_backoff = retry_backoff
        self._deadline = deadline
        self._pool: List[wire.Connection] = []
        self._pool_lock = threading.Lock()
        #: Sockets this client has opened over its lifetime.  With
        #: keep-alive working, a single-threaded caller stays at 1 no
        #: matter how many requests it issues (plus one per stale-socket
        #: recovery) — the regression tests assert exactly that.
        self.connections_opened = 0

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------
    def _acquire(self) -> Optional[wire.Connection]:
        """A pooled connection, or ``None``: the caller opens one."""
        with self._pool_lock:
            if self._pool:
                return self._pool.pop()
            self.connections_opened += 1
        return None

    def _release(self, connection: wire.Connection) -> None:
        with self._pool_lock:
            self._pool.append(connection)

    def close(self) -> None:
        """Close every pooled socket (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for connection in pool:
            connection.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def request_raw(self, method: str, path: str,
                    body: Optional[bytes] = None,
                    headers: Optional[Dict[str, str]] = None,
                    ) -> Tuple[int, bytes]:
        """One round trip, bytes in and bytes out — no JSON, no raising.

        Returns ``(status, body)`` whatever the status; connection
        errors raise :class:`~repro.errors.ServerError` with status 0.
        The cluster frontend proxies through this, so a routed answer's
        body is the owning worker's body byte-for-byte.

        The stale-socket retry only re-sends when it is safe: a failure
        while *sending* on a reused connection (the server closed the
        idle socket; the request never fully left), or any failure of a
        ``GET``.  A ``POST`` that failed after transmission is NOT
        retried — the server may be mid-way through applying it, and a
        re-send could apply an update batch twice.
        """
        target = self._prefix + path
        if len(target.split()) != 1:  # whitespace would split the line
            raise InvalidParameterError(
                f"request path {target!r} holds whitespace")
        data = wire.encode_request(method, target, self._host_header,
                                   headers, body)
        for attempt in (0, 1):
            connection = self._acquire()
            reused = connection is not None
            phase = "send"
            try:
                if connection is None:
                    connection = wire.Connection.open(
                        self._host, self._port, self._timeout)
                connection.sock.sendall(data)
                phase = "read"
                status, payload, will_close = wire.read_response(
                    connection, method)
            except _TRANSPORT_ERRORS as exc:
                if connection is not None:
                    connection.close()
                retry_safe = phase == "send" or method in ("GET", "HEAD")
                timed_out = isinstance(exc, socket.timeout)
                if attempt == 0 and reused and retry_safe \
                        and not timed_out:
                    continue  # retry once on a fresh socket
                raise ServerError(
                    0, f"cannot reach {self._base}: {exc}") from exc
            if will_close:
                connection.close()
            else:
                self._release(connection)
            return status, payload
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(self, method: str, path: str,
                 params: Optional[Dict[str, object]] = None,
                 body: Optional[object] = None) -> Dict:
        if params:
            path += "?" + urlencode(params)
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, payload = self._request_with_retries(method, path, data,
                                                     headers)
        if status >= 400:
            raise ServerError(status, self._error_message(payload, status))
        try:
            return json.loads(payload.decode("utf-8"))
        except ValueError as exc:
            raise ServerError(status, f"non-JSON response body: {exc}") \
                from exc

    def _request_with_retries(self, method: str, path: str,
                              data: Optional[bytes],
                              headers: Dict[str, str]) -> Tuple[int, bytes]:
        """Bounded jittered-backoff retries around :meth:`request_raw`.

        Only idempotent methods retry (a ``POST`` that died mid-flight
        may have applied — re-sending could double-apply a batch); a
        retried failure is either connection-level (``ServerError``
        status 0) or a retriable 5xx.  ``deadline`` bounds the whole
        dance: when the next backoff pause would cross it, the last
        failure surfaces unchanged.
        """
        attempts = self._retries if method in ("GET", "HEAD") else 0
        deadline = (None if self._deadline is None
                    else time.monotonic() + self._deadline)
        attempt = 0
        while True:
            error: Optional[ServerError] = None
            status, payload = 0, b""
            try:
                status, payload = self.request_raw(method, path, body=data,
                                                   headers=headers)
            except ServerError as exc:
                error = exc
            if error is None and status not in _RETRIABLE_STATUSES:
                return status, payload
            pause = min(self._retry_backoff * 2 ** attempt, _MAX_BACKOFF)
            pause *= 0.5 + _retry_jitter(path, attempt) / 2.0
            out_of_time = (deadline is not None
                           and time.monotonic() + pause >= deadline)
            if attempt >= attempts or out_of_time:
                if error is not None:
                    raise error
                return status, payload
            time.sleep(pause)
            attempt += 1

    @staticmethod
    def _error_message(payload: bytes, status: int) -> str:
        try:
            return json.loads(payload.decode("utf-8")).get(
                "error", f"status {status}")
        except (ValueError, AttributeError):  # non-JSON error body
            return payload.decode("utf-8", "replace") or f"status {status}"

    # ------------------------------------------------------------------
    # API surface (one method per endpoint)
    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        """Liveness probe (``GET /healthz``)."""
        return self._request("GET", "/healthz")

    def stats(self) -> Dict:
        """Whole-fleet counters (``GET /stats``)."""
        return self._request("GET", "/stats")

    def graphs(self) -> List[Dict]:
        """Registered graphs with their stats (``GET /graphs``)."""
        return self._request("GET", "/graphs")["graphs"]

    def graph_stats(self, name: str) -> Dict:
        """One graph's stats (``GET /graphs/<name>``)."""
        return self._request("GET", f"/graphs/{name}")

    def top_r(self, name: str, k: int, r: int = 10,
              contexts: bool = False) -> Dict:
        """Canonical top-r answer (``GET /graphs/<name>/top_r``).

        The returned dict's ``vertices`` and ``scores`` are exactly the
        in-process :meth:`DiversityService.top_r` answer for the same
        snapshot; ``contexts=True`` adds per-entry social contexts.
        """
        params: Dict[str, object] = {"k": k, "r": r}
        if contexts:
            params["contexts"] = 1
        return self._request("GET", f"/graphs/{name}/top_r", params=params)

    def score(self, name: str, v: object, k: int) -> int:
        """One vertex's score (``GET /graphs/<name>/score``)."""
        return self._request("GET", f"/graphs/{name}/score",
                             params={"v": v, "k": k})["score"]

    def update_feed(self, name: str, since: int = 0,
                    timeout: float = 0.0) -> Dict:
        """Applied batches after ``since``
        (``GET /graphs/<name>/updates/feed``).

        ``timeout`` long-polls: the server parks the request up to that
        many seconds (clamped server-side below the socket timeout)
        waiting for the graph to advance.  The reply carries
        ``entries`` (each with ``seq``, wire-shaped ``updates``, and
        the post-apply ``version``), ``last_seq``, and ``complete`` —
        ``False`` means the journal no longer reaches back to ``since``
        and the consumer must fall back to a full store resync.
        """
        params: Dict[str, object] = {"since": since}
        if timeout:
            params["timeout"] = timeout
        return self._request("GET", f"/graphs/{name}/updates/feed",
                             params=params)

    def apply_updates(self, name: str,
                      updates: Sequence[WireUpdate]) -> Dict:
        """Apply an edge batch (``POST /graphs/<name>/updates``).

        ``updates`` items are ``(op, u, v)`` tuples/lists (also accepts
        :class:`~repro.service.EdgeUpdate` objects).
        """
        wire = [[u.op, u.u, u.v] if hasattr(u, "op") else list(u)
                for u in updates]
        return self._request("POST", f"/graphs/{name}/updates",
                             body={"updates": wire})

    def truncate_feed(self, name: str, *, version: Optional[int] = None,
                      seq: Optional[int] = None) -> Dict:
        """Checkpoint the update feed
        (``POST /graphs/<name>/updates/feed/truncate``).

        Drops journaled batches covered by a durably shipped store
        ``version`` (or an explicit feed ``seq``); lagging consumers
        past the new floor see ``complete=False`` and must resync.
        """
        body: Dict[str, object] = {}
        if version is not None:
            body["version"] = version
        if seq is not None:
            body["seq"] = seq
        return self._request(
            "POST", f"/graphs/{name}/updates/feed/truncate", body=body)

    def compact(self) -> Dict:
        """Compact the shared store (``POST /compact``)."""
        return self._request("POST", "/compact")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServerClient({self._base!r})"
