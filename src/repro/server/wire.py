"""Lean HTTP/1.1 framing shared by every party on the serving path.

Three parties speak HTTP here: the single server and the cluster
workers (:class:`~repro.server.http.DiversityRequestHandler`), the
cluster frontend (:class:`~repro.cluster.frontend.ClusterRequestHandler`)
and :class:`~repro.server.client.ServerClient`.  The stdlib frames each
message with general-purpose machinery — :mod:`email.feedparser`
parses every request head, a response leaves as a header flush and
then a body write, and :mod:`http.client` wraps both ends of a client
call in layers of objects — and that costs more CPU than answering a
memo-hot query.  This module frames the same bytes with less work:

* :func:`read_headers` reads a head's field lines with ``readline`` and
  ``bytes.partition`` under the stdlib's limits (64 KiB per line, 100
  lines); :class:`Headers` looks fields up case-insensitively;
* :class:`WireRequestHandler` parses the request line exactly as
  :meth:`~http.server.BaseHTTPRequestHandler.parse_request` does (same
  error statuses, same keep-alive decision, same
  ``Expect: 100-continue``) and writes each response — status line,
  headers, body — in one send, saying ``Connection: close`` whenever
  the handler will close; a declared body length that is not a
  non-negative integer up to :data:`MAX_BODY` is refused (400 or 413)
  before any ``100 Continue`` and the body is never read;
* :class:`Connection`, :func:`encode_request` and :func:`read_response`
  are the client half: a raw socket with its own receive buffer, one
  ``sendall`` per request, and a body delimited by Content-Length,
  chunked encoding or connection close, as :mod:`http.client` does.

Examples
--------
>>> import io
>>> head = io.BytesIO(b"Content-Length: 2\\r\\nX-A: 1\\r\\n\\r\\nok")
>>> headers = read_headers(head.readline)
>>> headers.get("content-length"), headers.get("X-Missing", "-")
('2', '-')
>>> head.read()
b'ok'
"""

from __future__ import annotations

import json
import socket
import time
from email.utils import formatdate
from functools import lru_cache
from http.server import BaseHTTPRequestHandler
from typing import Dict, Mapping, Optional, Tuple

#: The stdlib's framing limits (``http.client._MAXLINE`` and
#: ``_MAXHEADERS``): longer lines and longer heads are refused.
MAX_LINE = 65536
MAX_HEADERS = 100
#: The largest request body a handler reads (256 MiB: an inline graph
#: registration is the largest body the cluster sends).  A longer
#: declared body is refused with 413 and never read.
MAX_BODY = 256 << 20

_HEAD_END = (b"\r\n", b"\n", b"")
#: Bytes a field name may hold (the email parser's header pattern:
#: printable ASCII except the colon).
_NAME_BYTES = frozenset(range(0x21, 0x7F)) - {ord(":")}
_RECV = 65536


class WireError(Exception):
    """A peer sent bytes this module cannot frame as HTTP/1.x."""

    def __init__(self, message: str, explain: str = "") -> None:
        super().__init__(explain or message)
        self.message = message
        self.explain = explain


class Headers(dict):
    """Header fields keyed by lower-cased name.

    Lookups ignore case, and the first occurrence of a repeated name
    wins — what :meth:`email.message.Message.get` answers.
    """

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


def read_headers(readline) -> Headers:
    """Read field lines up to the blank line ending a message head.

    ``readline(limit)`` is a buffered reader's method.  Raises
    :class:`WireError` when a line exceeds :data:`MAX_LINE` or the head
    (its blank line included) exceeds :data:`MAX_HEADERS` lines.  A line
    that is not ``name: value`` ends the fields, as in the email parser:
    it and the lines after it are consumed but ignored.
    """
    fields: Dict[str, str] = {}
    count = 0
    last: Optional[str] = None
    broken = False
    while True:
        line = readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise WireError("Line too long", "header line")
        count += 1
        if count > MAX_HEADERS:
            raise WireError("Too many headers",
                            f"got more than {MAX_HEADERS} headers")
        if line in _HEAD_END:
            return Headers(fields)
        if broken:
            continue
        if line[0] in b" \t":  # folded continuation of the last field
            if last is not None:
                fields[last] += " " + line.strip().decode("iso-8859-1")
            continue
        name, colon, value = line.partition(b":")
        if not colon or not _NAME_BYTES.issuperset(name):
            broken = True
            continue
        key = name.decode("ascii").lower()
        if key in fields:
            last = None  # a repeat: the first occurrence stands
        else:
            fields[key] = value.strip().decode("iso-8859-1")
            last = key


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``HTTP/x.y`` as ``(x, y)``, or ``None`` when the stdlib would
    answer 400 ("Bad request version")."""
    if version == "HTTP/1.1":
        return 1, 1
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(part.isdigit() and len(part) <= 10
                                  for part in parts):
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:  # a non-ASCII digit ("²") passes isdigit()
        return None


@lru_cache(maxsize=2)
def _http_date(second: int) -> str:
    return formatdate(second, usegmt=True)


class WireRequestHandler(BaseHTTPRequestHandler):
    """A JSON request handler with lean framing on both directions.

    Subclasses implement ``do_GET``/``do_POST`` and answer through
    :meth:`_send`; the stdlib accept loop, ``handle_one_request``
    (including its 414 for an over-long request line) and
    ``send_error`` stay as they are.
    """

    protocol_version = "HTTP/1.1"
    # Keep-alive exposes the Nagle + delayed-ACK stall: the tail segment
    # of a response (or the final answer after a 100 Continue) would wait
    # ~40ms for the client's delayed ACK.  TCP_NODELAY removes it.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """The stdlib's request-line and head parse, without ``email``."""
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline,
                          "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version "
                                     f"({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[0], words[1]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type "
                                     f"({command!r})")
                return False
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        try:
            self.headers = headers = read_headers(self.rfile.readline)
        except WireError as exc:
            self.send_error(431, exc.message, exc.explain)
            return False
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive" \
                and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if not self._admit_body():
            return False
        if headers.get("expect", "").lower() == "100-continue" \
                and self.protocol_version >= "HTTP/1.1" \
                and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def _admit_body(self) -> bool:
        """Accept the declared body length, or refuse the request.

        A length that is not a non-negative integer (400) or exceeds
        :data:`MAX_BODY` (413) is answered at once — before any
        ``100 Continue`` invites the body — and the connection closes
        with the body unread.
        """
        raw = self.headers.get("content-length")
        try:
            self._body_length = length = int(raw or 0)
        except ValueError:
            length = -1
        if 0 <= length <= MAX_BODY:
            return True
        self.close_connection = True
        if length < 0:
            status, error = 400, f"bad Content-Length header: {raw!r}"
        else:
            status, error = 413, (f"request body of {length} bytes "
                                  f"exceeds the {MAX_BODY}-byte limit")
        self._send(status, json.dumps({"error": error}).encode("utf-8"))
        return False

    def _drain_body(self) -> bytes:
        """Read the declared request body unconditionally.

        Keep-alive requires it: a body left unread in the socket
        becomes the *next* request's request line, desyncing every
        later exchange on the connection.  :meth:`_admit_body` has
        already refused a length it must not read.
        """
        length = self._body_length
        return self.rfile.read(length) if length else b""

    def _send(self, status: int, body: bytes,
              headers: Optional[Mapping[str, str]] = None) -> None:
        """Write one JSON response — head and body — in one send."""
        self.log_request(status, len(body))
        if self.request_version != "HTTP/0.9":  # 0.9 answers are bare
            head = (f"{self.protocol_version} {status} "
                    f"{self.responses.get(status, ('',))[0]}\r\n"
                    f"Server: {self.version_string()}\r\n"
                    f"Date: {_http_date(int(time.time()))}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n")
            if headers:
                head += "".join(f"{name}: {value}\r\n"
                                for name, value in headers.items())
            if self.close_connection:
                head += "Connection: close\r\n"
            body = (head + "\r\n").encode("iso-8859-1") + body
        self.wfile.write(body)


# ----------------------------------------------------------------------
# Client half
# ----------------------------------------------------------------------
class Connection:
    """One client socket and its receive buffer.

    Reads go through ``sock.recv`` directly — no ``makefile`` holds a
    second reference to the descriptor — so closing :attr:`sock` kills
    the connection outright.
    """

    __slots__ = ("sock", "_buffer")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buffer = b""

    @classmethod
    def open(cls, host: str, port: int, timeout: float) -> "Connection":
        sock = socket.create_connection((host, port), timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

    def close(self) -> None:
        self.sock.close()

    def readline(self, limit: int) -> bytes:
        """Up to ``limit`` bytes, through the first newline or EOF."""
        buffer = self._buffer
        end = buffer.find(b"\n", 0, limit)
        while end < 0 and len(buffer) < limit:
            chunk = self.sock.recv(_RECV)
            if not chunk:
                break
            start = len(buffer)
            buffer += chunk
            end = buffer.find(b"\n", start, limit)
        cut = end + 1 if end >= 0 else min(len(buffer), limit)
        self._buffer = buffer[cut:]
        return buffer[:cut]

    def read(self, size: int) -> bytes:
        """Exactly ``size`` bytes, fewer only at EOF."""
        buffer = self._buffer
        if len(buffer) >= size:
            self._buffer = buffer[size:]
            return buffer[:size]
        self._buffer = b""
        parts = [buffer]
        have = len(buffer)
        while have < size:
            chunk = self.sock.recv(min(size - have, 1 << 20))
            if not chunk:
                break
            parts.append(chunk)
            have += len(chunk)
        return b"".join(parts)

    def read_all(self) -> bytes:
        """Everything up to EOF (a close-delimited body)."""
        parts = [self._buffer]
        self._buffer = b""
        while True:
            chunk = self.sock.recv(_RECV)
            if not chunk:
                return b"".join(parts)
            parts.append(chunk)


def encode_request(method: str, target: str, host: str,
                   headers: Optional[Mapping[str, str]],
                   body: Optional[bytes]) -> bytes:
    """One request — head and body — as the bytes of a single send.

    ``target`` must not hold whitespace (it would split the request
    line); the caller checks.  A ``POST`` always declares its length,
    as :mod:`http.client` does.
    """
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
    if headers:
        head += "".join(f"{name}: {value}\r\n"
                        for name, value in headers.items())
    if body is None and method == "POST":
        body = b""
    if body is not None:
        head += f"Content-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("iso-8859-1") + (body or b"")


def _read_status(connection: Connection) -> Tuple[str, int]:
    line = connection.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise WireError("status line too long")
    if not line:
        raise WireError("remote end closed connection without response")
    parts = line.decode("iso-8859-1").split(None, 2)
    version = parts[0] if parts else ""
    if not version.startswith("HTTP/") or len(parts) < 2:
        raise WireError(f"bad status line {line!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise WireError(f"bad status line {line!r}") from None
    if not 100 <= status <= 999:
        raise WireError(f"bad status line {line!r}")
    return version, status


def _read_chunked(connection: Connection) -> bytes:
    parts = []
    while True:
        line = connection.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise WireError("chunk size line too long")
        try:
            size = int(line.split(b";", 1)[0], 16)
        except ValueError:
            raise WireError(f"bad chunk size line {line!r}") from None
        if size == 0:
            while connection.readline(MAX_LINE + 1) not in _HEAD_END:
                pass  # trailer fields: read and dropped
            return b"".join(parts)
        chunk = connection.read(size)
        if len(chunk) < size or len(connection.read(2)) < 2:
            raise WireError("incomplete chunked body")
        parts.append(chunk)


def read_response(connection: Connection,
                  method: str) -> Tuple[int, bytes, bool]:
    """Read one response: ``(status, body, will_close)``.

    Interim 1xx answers are skipped; HEAD, 204 and 304 answers carry no
    body.  ``will_close`` follows :mod:`http.client`: an HTTP/1.1 peer
    keeps the connection unless it says ``close``, an HTTP/1.0 one only
    if it says ``keep-alive``, and a body without a declared length
    runs to EOF.  Raises :class:`WireError` on malformed or truncated
    input (and :class:`OSError` from the socket).
    """
    version, status = _read_status(connection)
    while status == 100:
        read_headers(connection.readline)
        version, status = _read_status(connection)
    if version not in ("HTTP/1.0", "HTTP/0.9") \
            and not version.startswith("HTTP/1."):
        raise WireError(f"unknown protocol {version!r}")
    headers = read_headers(connection.readline)
    token = headers.get("connection", "").lower()
    if version.startswith("HTTP/1.") and version != "HTTP/1.0":
        will_close = "close" in token
    else:
        will_close = "keep-alive" not in token
    if status in (204, 304) or status < 200 or method == "HEAD":
        return status, b"", will_close
    if headers.get("transfer-encoding", "").lower() == "chunked":
        return status, _read_chunked(connection), will_close
    try:
        length = int(headers.get("content-length", ""))
    except ValueError:
        length = -1
    if length < 0:  # no usable length: the body runs to EOF
        return status, connection.read_all(), True
    body = connection.read(length)
    if len(body) < length:
        raise WireError(f"incomplete body: {len(body)} of {length} bytes")
    return status, body, will_close
