"""Tests for the lean HTTP/1.1 framing (:mod:`repro.server.wire`).

The framing replaced the stdlib's ``email``-based head parse, its
two-write responses and :mod:`http.client` on the serving path.  Its
contract:

* **Differential head parsing** — for every raw request head in the
  table, :class:`DiversityHTTPServer` and :class:`ClusterFrontend`
  answer with the same status and make the same keep/close decision as
  the same handler running the stdlib's ``parse_request``; a connection
  that stays open still serves ``GET /healthz``.
* **Fuzzed heads and bodies** never produce a 5xx or a hang, and the
  server keeps answering afterwards; a declared body over the cap or
  of negative length is refused (413 / 400) unread, on a closed
  connection.
* **One send per response**, from the server and for every response
  the frontend relays.
* **Client framing** — :class:`ServerClient` decodes Content-Length,
  chunked and close-delimited bodies exactly as :mod:`http.client`
  does, reads no body after HEAD/204, turns truncated or garbage
  answers into ``ServerError(0)``, and never re-sends a POST that
  failed after sending.
"""

import http.client
import json
import re
import socket
import threading
import time
from contextlib import contextmanager, nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.frontend import ClusterFrontend, ClusterRequestHandler
from repro.errors import ServerError
from repro.graph.graph import Graph
from repro.server import DiversityRouter, ServerClient
from repro.server.http import DiversityHTTPServer, DiversityRequestHandler
from repro.server.wire import MAX_BODY

_TIMEOUT = 10.0


def _graph() -> Graph:
    g = Graph()
    for u, v in [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (3, 4)]:
        g.add_edge(u, v)
    return g


class _OneWorkerCluster:
    """The part of :class:`ShardedCluster` the frontend handler calls,
    over one in-process server standing in for the only worker."""

    num_workers = 1
    retry_after_seconds = 1

    def __init__(self, url: str) -> None:
        self.client = ServerClient(url, timeout=_TIMEOUT)
        self.port = int(url.rsplit(":", 1)[1])

    def owner(self, name):
        return 0

    def client_for(self, slot):
        return self.client

    def live_clients(self):
        return [(0, self.client)]

    def write_gate(self, name):
        return nullcontext()

    def note_worker_failure(self, slot):
        pass

    def note_update(self, name, body, version=None, key=None):
        pass

    def worker_port(self, slot):
        return self.port

    def supervision_payload(self):
        return {"respawns": 0, "last_respawn_error": None}

    def journal_payload(self):
        return {}

    def topology_payload(self):
        return {"workers": [{"slot": 0, "port": self.port}]}


def _stdlib_parse_request(self):
    """The stdlib's head parse, then the wire handler's body check."""
    return (BaseHTTPRequestHandler.parse_request(self)
            and self._admit_body())


class _StdlibParseHandler(DiversityRequestHandler):
    parse_request = _stdlib_parse_request


class _StdlibParseFrontendHandler(ClusterRequestHandler):
    parse_request = _stdlib_parse_request


@contextmanager
def _running(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@contextmanager
def _frontend(worker_url, handler_class=None):
    cluster = _OneWorkerCluster(worker_url)
    frontend = ClusterFrontend(("127.0.0.1", 0), cluster)
    if handler_class is not None:
        frontend.RequestHandlerClass = handler_class
    try:
        with _running(frontend):
            yield frontend
    finally:
        cluster.client.close()


@pytest.fixture(scope="module")
def servers():
    """Lean and stdlib-parse twins of the server and the frontend."""
    router = DiversityRouter()
    router.add_graph("g", _graph())
    with _running(DiversityHTTPServer(("127.0.0.1", 0), router)) as lean, \
            _running(DiversityHTTPServer(
                ("127.0.0.1", 0), router,
                handler_class=_StdlibParseHandler)) as stdlib:
        url = f"http://127.0.0.1:{lean.server_port}"
        with _frontend(url) as front, \
                _frontend(url, _StdlibParseFrontendHandler) as front_std:
            yield {"server": (lean.server_port, stdlib.server_port),
                   "frontend": (front.server_port, front_std.server_port)}


# ----------------------------------------------------------------------
# Differential head parsing
# ----------------------------------------------------------------------
_GET = b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
_BODY = b'{"updates": []}'
_POST = b"POST /graphs/g/updates HTTP/1.1\r\nHost: x\r\n"

#: name → (raw bytes sent, expected (status, kept open)).  Heads the
#: server refuses end exactly where its reader stops, so it closes with
#: nothing unread (a close over unread bytes would reset the socket).
HEADS = {
    "get": (_GET + b"\r\n", (200, True)),
    "post": (_POST + b"Content-Type: application/json\r\n"
             b"Content-Length: 15\r\n\r\n" + _BODY, (200, True)),
    "lower-case content-length": (
        _POST + b"content-length: 15\r\n\r\n" + _BODY, (200, True)),
    "connection close": (_GET + b"Connection: close\r\n\r\n", (200, False)),
    "connection close, any case": (_GET + b"connection: CLOSE\r\n\r\n",
                                   (200, False)),
    "first connection header wins": (
        _GET + b"Connection: keep-alive\r\nConnection: close\r\n\r\n",
        (200, True)),
    "http/1.0": (b"GET /healthz HTTP/1.0\r\n\r\n", (200, False)),
    "http/1.0 keep-alive": (
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        (200, True)),
    # Until the version is accepted the request counts as HTTP/0.9, so
    # the stdlib's error page goes out without a status line.
    "http/0.9 get": (b"GET /\r\n\r\n", ("bare", False)),
    "http/0.9 post": (b"POST /compact\r\n", ("bare 400", False)),
    "http/1.x": (b"GET /healthz HTTP/1.x\r\n", ("bare 400", False)),
    "http/1.1.1": (b"GET /healthz HTTP/1.1.1\r\n", ("bare 400", False)),
    "http/2.0": (b"GET /healthz HTTP/2.0\r\n", ("bare 505", False)),
    "four words": (b"GET /healthz extra HTTP/1.1\r\n", (400, False)),
    "empty line": (b"\r\n", (None, False)),
    "101 headers": (_GET + b"".join(b"X-%d: v\r\n" % i for i in range(100)),
                    (431, False)),
    "65537-byte header line": (_GET + b"X-Long: " + b"a" * (65537 - 8),
                               (431, False)),
    "65537-byte request line": (b"GET /" + b"a" * (65537 - 5), (414, False)),
    "expect 100-continue": (
        _POST + b"Expect: 100-continue\r\nContent-Length: 15\r\n\r\n"
        + _BODY, (200, True)),
    "content-length abc": (_POST + b"Content-Length: abc\r\n\r\n",
                           (400, False)),
    "header without colon": (
        _GET + b"NoColonHere\r\nConnection: close\r\n\r\n", (200, True)),
    "folded header": (_GET + b"X-A: 1\r\n  2\r\n\r\n", (200, True)),
}


def _read_until_eof(sock) -> bytes:
    parts = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        parts.append(chunk)
    return b"".join(parts)


def _status(sock):
    """The final status of the next response on ``sock``.

    ``None`` when the server closed without answering; ``"bare"`` for
    an answer without a status line (HTTP/0.9), with the code of a
    stdlib error page appended.
    """
    try:
        start = sock.recv(5, socket.MSG_PEEK | socket.MSG_WAITALL)
    except OSError:
        return None
    if not start:
        return None
    if start != b"HTTP/":
        code = re.search(rb"Error code: (\d+)", _read_until_eof(sock))
        return "bare" if code is None else f"bare {int(code.group(1))}"
    response = http.client.HTTPResponse(sock, method="GET")
    try:
        response.begin()
        response.read()
    except (OSError, http.client.HTTPException):
        return None
    finally:
        response.close()
    return response.status


def _exchange(port, raw):
    """Send ``raw``; return (status, whether the socket still serves)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=_TIMEOUT) as sock:
        sock.sendall(raw)
        status = _status(sock)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        except OSError:
            return status, False
        return status, _status(sock) == 200


class TestDifferentialHeads:
    @pytest.mark.parametrize("party", ["server", "frontend"])
    @pytest.mark.parametrize("case", sorted(HEADS))
    def test_same_status_and_keep_alive_as_the_stdlib(self, servers, party,
                                                      case):
        raw, expected = HEADS[case]
        lean_port, stdlib_port = servers[party]
        assert _exchange(stdlib_port, raw) == expected
        assert _exchange(lean_port, raw) == expected


# ----------------------------------------------------------------------
# Fuzzed heads and bodies
# ----------------------------------------------------------------------
_REQUEST_LINES = st.sampled_from([
    b"GET /healthz", b"GET /stats", b"GET /graphs", b"GET /graphs/g",
    b"GET /graphs/g/top_r?k=3&r=2", b"GET /graphs/g/score?v=1&k=3",
    b"GET /graphs/g/updates/feed?since=0", b"POST /graphs/g/updates",
    b"POST /graphs/g/updates/feed/truncate", b"POST /graphs/ghost/updates",
    b"GET /cluster", b"POST /compact", b"GET /no/such/path"])
_FIELD_NAMES = st.one_of(
    st.sampled_from([b"Content-Length", b"content-length", b"Connection",
                     b"Expect", b"Transfer-Encoding", b"Content-Type",
                     b"Host", b" X-Folded", b"Bad Name"]),
    st.binary(max_size=12))
_FIELD_VALUES = st.one_of(
    st.sampled_from([b"close", b"keep-alive", b"100-continue", b"chunked",
                     b"0", b"7", b"-1", b"abc", b"", b"1e3"]),
    st.binary(max_size=16))
_BODIES = st.one_of(
    st.binary(max_size=48),
    st.sampled_from([
        b'{"updates": []}', b'{"updates": [["insert", 1, 4]]}',
        b'{"updates": [["delete", 0, 9]]}', b'{"updates": "x"}',
        b'{"updates": [["insert", {"a": 1}, 2]]}',
        b'{"updates": [["insert", [[1]], 2]]}', b'{"version": "x"}',
        b'{"seq": [1]}', b'{"seq": 0}', b"[]", b"null", b"{"]))


class TestFuzzedRequests:
    @pytest.mark.parametrize("party", ["server", "frontend"])
    @settings(max_examples=50, deadline=None)
    @given(line=_REQUEST_LINES,
           version=st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]),
           fields=st.lists(st.tuples(_FIELD_NAMES, _FIELD_VALUES),
                           max_size=6),
           length_skew=st.one_of(st.just(0), st.none(),
                                 st.integers(-4, 4)),
           body=_BODIES,
           mutations=st.lists(st.tuples(
               st.sampled_from(["replace", "insert", "delete"]),
               st.integers(0, 1 << 16), st.integers(0, 255)), max_size=3))
    def test_never_a_5xx_or_a_hang(self, servers, party, line, version,
                                   fields, length_skew, body, mutations):
        """Everything after the request line is generated, then mutated
        byte-wise; the client half-closes once it has sent."""
        port = servers[party][0]
        rest = b"".join(name + b": " + value + b"\r\n"
                        for name, value in fields)
        if length_skew is not None:
            rest += b"Content-Length: %d\r\n" % max(0, len(body)
                                                   + length_skew)
        rest = bytearray(rest + b"\r\n" + body)
        for kind, position, byte in mutations:
            at = position % (len(rest) + 1)
            if kind == "insert":
                rest[at:at] = bytes([byte])
            elif at < len(rest):
                rest[at:at + 1] = b"" if kind == "delete" else bytes([byte])
        request = line + b" " + version + b"\r\n" + bytes(rest)
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=_TIMEOUT) as sock:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)  # half-close: no more input
            # A hang surfaces as socket.timeout and fails the example.
            answer = _read_until_eof(sock)
        statuses = [int(code) for code in
                    re.findall(rb"HTTP/1\.[01] (\d{3}) ", answer)]
        assert all(code < 500 for code in statuses), answer[:400]
        with ServerClient(f"http://127.0.0.1:{port}",
                          timeout=_TIMEOUT) as client:
            assert client.healthz()["status"] == "ok"


# ----------------------------------------------------------------------
# Request-body cap
# ----------------------------------------------------------------------
class TestBodyCap:
    """A declared length above ``MAX_BODY`` gets a 413 and a negative
    one a 400, both at once and on a closed connection: the body is
    never read, so neither a huge declaration nor a desync stalls the
    handler, and the party keeps serving."""

    @pytest.mark.parametrize("party", ["server", "frontend"])
    @pytest.mark.parametrize("length, body, status", [
        (2 << 30, b"{}", 413),          # 2 GiB declared, 2 bytes sent
        (MAX_BODY + 1, b"", 413),
        (-5, _BODY, 400),
    ])
    def test_refused_promptly_and_closed(self, servers, party, length,
                                         body, status):
        port = servers[party][0]
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=_TIMEOUT) as sock:
            sock.sendall(_POST + b"Content-Length: %d\r\n\r\n" % length
                         + body)
            assert _status(sock) == status
            # Closed with the body unread: a request sent next gets no
            # answer at all (not one to the body's bytes).
            try:
                sock.sendall(_GET + b"\r\n")
            except OSError:
                pass
            assert _status(sock) is None
        assert time.monotonic() - started < _TIMEOUT / 2
        assert _exchange(port, HEADS["post"][0]) == (200, True)

    @pytest.mark.parametrize("party", ["server", "frontend"])
    @pytest.mark.parametrize("length, status", [(2 << 30, 413), (-5, 400)])
    def test_refused_before_100_continue(self, servers, party, length,
                                         status):
        """``Expect: 100-continue`` gets the refusal instead of an
        invitation to send the body."""
        port = servers[party][0]
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=_TIMEOUT) as sock:
            sock.sendall(_POST + b"Expect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % length)
            answer = _read_until_eof(sock)
        assert answer.startswith(b"HTTP/1.1 %d " % status), answer[:200]
        assert b" 100 " not in answer
        assert _exchange(port, HEADS["post"][0]) == (200, True)


# ----------------------------------------------------------------------
# One send per response
# ----------------------------------------------------------------------
class _CountingWriter:
    """Records every write the handler makes to its socket."""

    def __init__(self, inner, log) -> None:
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _counting(handler_class, log):
    class Counting(handler_class):
        def setup(self):
            super().setup()
            self.wfile = _CountingWriter(self.wfile, log)
    return Counting


class TestOneSendPerResponse:
    def _drive(self, client):
        """Six requests: answers, errors, a write and a fan-out."""
        client.top_r("g", k=3, r=2)
        client.top_r("g", k=3, r=2)
        client.healthz()
        client.apply_updates("g", [])
        for call in (lambda: client.top_r("ghost", k=3, r=1),
                     lambda: client.top_r("g", k=1, r=1)):
            with pytest.raises(ServerError):
                call()
        return 6

    @staticmethod
    def _assert_whole_responses(log, count):
        assert len(log) == count
        for data in log:
            head, _, body = data.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 ")
            length = re.search(rb"Content-Length: (\d+)", head).group(1)
            assert len(body) == int(length)
            json.loads(body)

    def test_server_writes_each_response_once(self):
        router = DiversityRouter()
        router.add_graph("g", _graph())
        log = []
        server = DiversityHTTPServer(
            ("127.0.0.1", 0), router,
            handler_class=_counting(DiversityRequestHandler, log))
        with _running(server), ServerClient(
                f"http://127.0.0.1:{server.server_port}") as client:
            count = self._drive(client)
        self._assert_whole_responses(log, count)

    def test_frontend_writes_each_relayed_response_once(self):
        router = DiversityRouter()
        router.add_graph("g", _graph())
        log = []
        with _running(DiversityHTTPServer(("127.0.0.1", 0), router)) \
                as worker, _frontend(
                    f"http://127.0.0.1:{worker.server_port}",
                    _counting(ClusterRequestHandler, log)) as front, \
                ServerClient(f"http://127.0.0.1:{front.server_port}") \
                as client:
            count = self._drive(client)
        self._assert_whole_responses(log, count)


# ----------------------------------------------------------------------
# ServerClient framing against a scripted stdlib server
# ----------------------------------------------------------------------
#: path → (raw response bytes or None for "close without answering",
#: whether the server closes the connection afterwards).
SCRIPT = {
    "/length": (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
                False),
    "/chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                 b"5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\n"
                 b"X-Trailer: t\r\n\r\n", False),
    "/close-delimited": (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain"
                         b"\r\n\r\nuntil the very end", True),
    "/http10": (b"HTTP/1.0 201 Created\r\nContent-Length: 2\r\n\r\nok",
                True),
    "/continue": (b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n"
                  b"Content-Length: 4\r\n\r\ndone", False),
    "/status-only": (b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
                     False),
    "/head": (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n", False),
    "/no-content": (b"HTTP/1.1 204 No Content\r\n\r\n", False),
    "/short": (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello", True),
    "/garbage": (b"SPDY/9 banana\r\n\r\n", True),
    "/drop": (None, True),
}


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # noqa: A002
        pass

    def _play(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        self.server.seen.append((self.command, self.path))
        raw, close = SCRIPT[self.path]
        self.close_connection = close
        if raw is not None:
            self.wfile.write(raw)

    do_GET = do_HEAD = do_POST = _play


@pytest.fixture(scope="module")
def scripted():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.daemon_threads = True
    server.seen = []
    with _running(server):
        yield server


def _stdlib_answer(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=_TIMEOUT)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestClientFraming:
    @pytest.mark.parametrize("path", ["/length", "/chunked",
                                      "/close-delimited", "/http10",
                                      "/continue", "/status-only"])
    def test_bodies_decode_as_http_client_decodes_them(self, scripted,
                                                       path):
        url = f"http://127.0.0.1:{scripted.server_port}"
        with ServerClient(url, timeout=_TIMEOUT) as client:
            assert client.request_raw("GET", path) == \
                _stdlib_answer(scripted.server_port, path)

    def test_keep_alive_survives_every_delimiting(self, scripted):
        """Exact body reads leave the socket aligned: one connection
        carries every keep-alive answer, in any order."""
        url = f"http://127.0.0.1:{scripted.server_port}"
        with ServerClient(url, timeout=_TIMEOUT) as client:
            for path in ("/length", "/chunked", "/continue", "/status-only",
                         "/chunked", "/length"):
                client.request_raw("GET", path)
            assert client.connections_opened == 1

    def test_head_and_204_have_no_body(self, scripted):
        url = f"http://127.0.0.1:{scripted.server_port}"
        with ServerClient(url, timeout=_TIMEOUT) as client:
            assert client.request_raw("HEAD", "/head") == (200, b"")
            assert client.request_raw("GET", "/no-content") == (204, b"")
            # Nothing was left unread or waited for: same socket.
            assert client.request_raw("GET", "/length") == (200, b"hello")
            assert client.connections_opened == 1

    @pytest.mark.parametrize("path", ["/short", "/garbage", "/drop"])
    def test_truncated_or_garbage_answers_raise_status_0(self, scripted,
                                                         path):
        url = f"http://127.0.0.1:{scripted.server_port}"
        with ServerClient(url, timeout=_TIMEOUT) as client:
            with pytest.raises(ServerError) as excinfo:
                client.request_raw("GET", path)
            assert excinfo.value.status == 0

    def test_a_post_that_failed_after_sending_is_not_resent(self, scripted):
        url = f"http://127.0.0.1:{scripted.server_port}"
        with ServerClient(url, timeout=_TIMEOUT) as client:
            client.request_raw("GET", "/length")  # a reused socket next
            before = len(scripted.seen)
            with pytest.raises(ServerError) as excinfo:
                client.request_raw("POST", "/drop", body=b"{}")
            assert excinfo.value.status == 0
            assert scripted.seen[before:] == [("POST", "/drop")]

    def test_a_get_that_failed_on_a_reused_socket_is_retried_once(
            self, scripted):
        url = f"http://127.0.0.1:{scripted.server_port}"
        with ServerClient(url, timeout=_TIMEOUT) as client:
            client.request_raw("GET", "/length")
            before = len(scripted.seen)
            with pytest.raises(ServerError):
                client.request_raw("GET", "/drop")
            assert scripted.seen[before:] == [("GET", "/drop")] * 2
            assert client.connections_opened == 2

    def test_whitespace_in_a_path_is_refused_before_sending(self, scripted):
        url = f"http://127.0.0.1:{scripted.server_port}"
        with ServerClient(url, timeout=_TIMEOUT) as client:
            with pytest.raises(ValueError):
                client.request_raw("GET", "/length HTTP/1.1\r\nX: y")
            assert client.connections_opened == 0
