"""Shared JSON-over-HTTP plumbing, stdlib only: one lean HTTP/1.1 exchange
(RFC 9112) on both ends.

Server: one ThreadingHTTPServer carries many mounted services, each under a
path prefix; a request goes to the mount with the longest prefix of its
path. Services implement `dispatch(request) -> (status, payload)` and signal
failures with HttpError. Every answer is JSON: a payload is encoded with
json.dumps, except a JsonText, which is JSON text already and is sent as it
is. Every error answer has the body {"code": ..., "message": ...}, with a
"missing" list when the error names what the service lacks, and one
function writes it: the handler's send_error.

The handler parses each request itself. The request line is read up to
64 KiB, then at most 100 header lines of at most 64 KiB each; a request it
refuses gets an error answer and the connection is closed:
- 414 for a longer request line, 431 for a longer header line or more
  header lines;
- 400 `bad_request` for a malformed request line or version, a header line
  with no field name or colon, whitespace before the colon, or an obs-fold;
- 505 for an HTTP major version other than 1, 501 `not_implemented` for a
  method other than GET, POST, PUT and DELETE;
- 400 for a body whose length is unknown (a `Transfer-Encoding`, or not
  one non-negative integer `Content-Length`), 413 for one above
  MAX_BODY_BYTES.
A request line with no version is a GET answered with an HTTP/1.1 head.
A `//` at the start of the path collapses to `/`. The query keeps blank
values, and a repeated query key gets a 400. The connection ends after the
answer to an HTTP/1.0 request or a request line with no version unless
`Connection` names `keep-alive`, and after any request whose `Connection`
names `close`. `Expect: 100-continue` gets a `100 Continue` before a body
is read. The answer to a HEAD request has no body.

Connections are kept alive, one handler thread per connection:
- each answer (head and body, with `Server`, a `Date` cached per second,
  `Content-Type`, `Content-Length` and, when the connection ends after it,
  `Connection: close`) leaves in a single send on a TCP_NODELAY socket, so
  no part of it waits on the peer's delayed ACK (about 40 ms);
- the request body is read in full before any answer, so the next request
  on the connection starts where it should;
- a connection idle for IDLE_TIMEOUT_S is closed, and stopping the server
  closes every connection it accepted.

Client: `http_json` keeps one connection (a socket and its buffered reader)
per thread and per (scheme, host:port), at most POOL_SIZE per thread;
`https` connections verify the server's certificate against
`ssl.create_default_context()`. Each request leaves in one send. The answer
skips any 1xx interim answer, and its body is read by RFC 9112 section 6.3:
none after 1xx, 204 or 304; chunked when `Transfer-Encoding` ends in
`chunked`; to the end of the connection for any other transfer coding;
otherwise by `Content-Length`, which must be one non-negative integer; and
to the end of the connection when there is none. A kept-alive socket that
the server closed in the meantime fails before any byte of the answer
arrives; the request is then sent exactly once more on a new connection.
An answer with `Connection: close`, an HTTP/1.0 answer without
`keep-alive` and a body read to the end of the connection drop the socket,
so the next call connects afresh.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import ssl
import threading
import time
from dataclasses import dataclass, field
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from http.server import ThreadingHTTPServer
from typing import Any, BinaryIO, Mapping, Optional, Sequence
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "ApiRequest",
    "HttpError",
    "JsonApi",
    "JsonText",
    "RequestRejected",
    "SharedJsonServer",
    "TransportUnavailable",
    "bearer_token",
    "expect_json",
    "http_json",
]

IDLE_TIMEOUT_S = 60.0  # a kept-alive connection idle this long is closed
MAX_BODY_BYTES = 64 * 1024 * 1024  # request bodies above this get a 413
POOL_SIZE = 8  # kept-alive client connections per thread
MAX_LINE = 64 * 1024  # longest request, status or header line
MAX_HEADERS = 100  # most header lines in one message


class _ErrorAnswer(Exception):
    """An error answer: its status and error body, whose `missing` list
    names what the service lacks to answer, if anything."""

    def __init__(self, status: int, code: str, message: str, missing: Sequence[str] = ()):
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message
        self.missing = tuple(missing)


class HttpError(_ErrorAnswer):
    """Failure a service wants reported as an HTTP status + error body."""


class TransportUnavailable(Exception):
    """The remote service could not be reached at all."""


class RequestRejected(_ErrorAnswer):
    """The remote service answered with an error status."""


@dataclass
class ApiRequest:
    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: Mapping[str, str] = field(default_factory=dict)
    body: Any = None


class JsonText(str):
    """A payload that is JSON text already; the server sends it unchanged."""


class JsonApi:
    """A mountable service. Subclasses override dispatch."""

    def dispatch(self, request: ApiRequest) -> tuple[int, Any]:
        raise NotImplementedError


def bearer_token(headers: Mapping[str, str]) -> Optional[str]:
    # Field names are case-insensitive (RFC 9110 section 5.1).
    value = next((v for k, v in headers.items() if k.lower() == "authorization"), "")
    if value.startswith("Bearer "):
        return value[len("Bearer "):].strip() or None
    return None


_METHODS = frozenset({"GET", "POST", "PUT", "DELETE"})
_END_OF_HEAD = (b"\r\n", b"\n", b"")
# A field line: a name of visible characters, a colon, the value without the
# whitespace around it (RFC 9112 section 5).
_FIELD_LINE = re.compile(rb"([!-9;-~]+):[ \t]*(.*?)[ \t]*\r?\n?\Z", re.DOTALL)
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n".encode("ascii") for s in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


@lru_cache(maxsize=1)
def _server_and_date(second: int) -> bytes:
    """The `Server` and `Date` header lines, made once a second."""
    return b"Server: twinaudit\r\nDate: %s\r\n" % formatdate(second, usegmt=True).encode("ascii")


def _request_version(word: str) -> Optional[tuple[int, int]]:
    """(major, minor) of an `HTTP/x.y` word, or None if it is malformed."""
    numbers = word[5:].split(".") if word.startswith("HTTP/") else []
    if len(numbers) != 2 or not all(n.isascii() and n.isdigit() and len(n) <= 10 for n in numbers):
        return None
    return int(numbers[0]), int(numbers[1])


def _tokens(value: str) -> set[str]:
    return {token.strip() for token in value.lower().split(",")}


class _Handler(socketserver.StreamRequestHandler):
    """One connection: its requests, answered in turn until one of them
    ends it."""

    server: "SharedJsonServer"
    timeout = IDLE_TIMEOUT_S
    disable_nagle_algorithm = True
    command = ""  # the request's method, once its request line is valid
    close_connection = False

    def handle(self) -> None:
        try:
            while not self.close_connection:
                self._serve_one()
        except OSError:  # idle timeout, reset by the peer, or server stop
            pass

    def _respond(self, status: int, payload: Any, close: bool = False) -> None:
        if status == 204 or payload is None and status < 400:
            body = b""
        elif isinstance(payload, JsonText):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload).encode("utf-8")
        close = self.close_connection = close or self.close_connection
        status_line = _STATUS_LINES.get(status) or b"HTTP/1.1 %d \r\n" % status
        # The answer to a HEAD request is the head alone.
        self.connection.sendall(b"".join((
            status_line, _server_and_date(int(time.time())),
            b"Content-Type: application/json\r\nContent-Length: %d\r\n" % len(body),
            b"Connection: close\r\n\r\n" if close else b"\r\n",
            b"" if self.command == "HEAD" else body,
        )))

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        *,
        error: Optional[str] = None,
        close: bool = True,
        missing: Sequence[str] = (),
    ) -> None:
        """Answer with an error: the one writer of {code, message} bodies,
        and of their `missing` list when there is one.

        A request refused before any service sees it has the status name as
        its error code, and, like a framing error, closes the connection.
        """
        if error is None:
            status = HTTPStatus(code)
            error, message = status.name.lower(), message or status.phrase
        body: dict[str, Any] = {"code": error, "message": message}
        if missing:
            body["missing"] = list(missing)
        self._respond(code, body, close)

    def _serve_one(self) -> None:
        """Read one request and answer it; a request that cannot be read
        closes the connection."""
        self.command = ""
        self.close_connection = True
        rfile = self.rfile
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            self.send_error(414)
            return
        words = line.decode("latin-1").split()
        if not words:
            return
        version: Optional[tuple[int, int]] = (1, 1)  # a line with no version is a GET
        if len(words) >= 3:
            version = _request_version(words[-1])
            if version is None:
                self.send_error(400, f"bad request version {words[-1]!r}")
                return
            if version[0] != 1:
                self.send_error(505, f"HTTP/{version[0]}.{version[1]} is not supported")
                return
        if not 2 <= len(words) <= 3 or len(words) == 2 and words[0] != "GET":
            self.send_error(400, f"bad request line {line.rstrip().decode('latin-1')!r}")
            return
        self.command, target = words[0], words[1]

        lines = []
        while True:
            line = rfile.readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                self.send_error(431, "header line too long")
                return
            if line in _END_OF_HEAD:
                break
            lines.append(line)
            if len(lines) > MAX_HEADERS:
                self.send_error(431, f"more than {MAX_HEADERS} header lines")
                return
        if self.command not in _METHODS:
            self.send_error(501, f"unsupported method {self.command!r}")
            return

        headers: dict[str, str] = {}
        first: dict[str, str] = {}  # by lower-case name, the first value
        lengths = []
        for line in lines:
            field_line = _FIELD_LINE.match(line)
            if field_line is None:
                self.send_error(400, f"malformed header line {line.rstrip().decode('latin-1')!r}")
                return
            name, value = (part.decode("latin-1") for part in field_line.groups())
            headers[name] = value
            lower = name.lower()
            first.setdefault(lower, value)
            if lower == "content-length":
                lengths.append(value)
        connection = _tokens(first.get("connection", ""))
        keep_alive = len(words) == 3 and version >= (1, 1)
        self.close_connection = "close" in connection or not (
            keep_alive or "keep-alive" in connection)

        distinct = set(lengths) or {"0"}
        length = distinct.pop() if len(distinct) == 1 else ""
        if "transfer-encoding" in first or not (length.isascii() and length.isdigit()):
            # Where this body ends is unknown, so the connection cannot go on.
            self.send_error(400, "a request body needs one non-negative integer "
                                 "Content-Length", error="bad_request")
            return
        size = int(length)
        if size > MAX_BODY_BYTES:
            self.send_error(413, f"request body exceeds {MAX_BODY_BYTES} bytes",
                            error="payload_too_large")
            return
        raw = b""
        if size:
            if first.get("expect", "").lower() == "100-continue" and version >= (1, 1):
                self.connection.sendall(_CONTINUE)
            raw = rfile.read(size)
        if target.startswith("//"):
            target = "/" + target.lstrip("/")
        self._dispatch(target, headers, raw)

    def _dispatch(self, target: str, headers: dict[str, str], raw: bytes) -> None:
        """Hand a request read in full to its service and answer it."""
        parts = urlsplit(target)
        path = parts.path or "/"
        mount = self.server.resolve(path)
        if mount is None:
            self.send_error(404, f"no service at {path}", error="not_found", close=False)
            return
        pairs = parse_qsl(parts.query, keep_blank_values=True)
        query = dict(pairs)
        if len(query) != len(pairs):
            self.send_error(400, "a query parameter is repeated", error="bad_request", close=False)
            return

        prefix, api = mount
        body: Any = None
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                self.send_error(400, "body is not valid JSON", error="bad_request", close=False)
                return

        request = ApiRequest(
            method=self.command,
            path=path[len(prefix):] or "/",
            query=query,
            headers=headers,
            body=body,
        )
        try:
            status, payload = api.dispatch(request)
        except HttpError as err:
            self.send_error(err.status, err.message, error=err.code, close=False,
                            missing=err.missing)
            return
        except Exception as err:  # service bug: report, keep the server alive
            self.send_error(500, str(err), error="internal", close=False)
            return
        self._respond(status, payload)


class SharedJsonServer(ThreadingHTTPServer):
    """One listening socket shared by many prefix-mounted services, and
    their mount table."""

    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self._mounts: dict[str, JsonApi] = {}
        self._mounts_lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._handlers: set[threading.Thread] = set()
        self._live_lock = threading.Lock()
        self._serving: Optional[threading.Thread] = None

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def url_for(self, prefix: str) -> str:
        return self.base_url + prefix

    def start(self) -> "SharedJsonServer":
        if self._serving is None:
            self._serving = threading.Thread(
                target=self.serve_forever, name="twinaudit-http", daemon=True
            )
            self._serving.start()
        return self

    def stop(self) -> None:
        """Stop accepting, then end every open connection and wait for its
        handler: a kept-alive client must not reach these services once the
        server is stopped."""
        if self._serving is not None:
            self.shutdown()
            self._serving.join(timeout=5)
            self._serving = None
        self.server_close()
        with self._live_lock:
            connections, handlers = list(self._connections), list(self._handlers)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler
                pass
        for thread in handlers:
            if thread is not threading.current_thread():
                thread.join(timeout=5)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._live_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def process_request_thread(self, request: Any, client_address: Any) -> None:
        thread = threading.current_thread()
        with self._live_lock:
            self._handlers.add(thread)
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._live_lock:
                self._handlers.discard(thread)

    def shutdown_request(self, request: Any) -> None:
        with self._live_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def mount(self, prefix: str, api: JsonApi) -> str:
        if not prefix.startswith("/") or prefix.endswith("/"):
            raise ValueError("mount prefix must start with '/' and not end with '/'")
        with self._mounts_lock:
            if prefix in self._mounts:
                raise ValueError(f"prefix already mounted: {prefix!r}")
            self._mounts[prefix] = api
        return self.url_for(prefix)

    def unmount(self, prefix: str) -> bool:
        with self._mounts_lock:
            return self._mounts.pop(prefix, None) is not None

    def mounts(self) -> list[str]:
        with self._mounts_lock:
            return sorted(self._mounts)

    def resolve(self, path: str) -> Optional[tuple[str, JsonApi]]:
        """The mount with the longest prefix of path: the path itself, then
        each cut before a "/"."""
        with self._mounts_lock:
            prefix = path
            while prefix:
                api = self._mounts.get(prefix)
                if api is not None:
                    return prefix, api
                prefix = prefix.rpartition("/")[0]
        return None

    def service_at(self, prefix: str) -> Optional[JsonApi]:
        mount = self.resolve(prefix)
        return mount[1] if mount is not None and mount[0] == prefix else None


class _Connection:
    """One kept-alive client socket and its persistent buffered reader;
    `sock` is None while it is not connected."""

    def __init__(self, scheme: str, host: str, port: int):
        self.scheme, self.host, self.port = scheme, host, port
        self.sock: Optional[socket.socket] = None
        self.rfile: Optional[BinaryIO] = None

    def connect(self, timeout: float) -> None:
        sock = socket.create_connection((self.host, self.port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.scheme == "https":
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=self.host)
        except BaseException:
            sock.close()
            raise
        self.sock, self.rfile = sock, sock.makefile("rb")

    def close(self) -> None:
        sock, rfile = self.sock, self.rfile
        self.sock = self.rfile = None
        if rfile is not None:
            rfile.close()
        if sock is not None:
            sock.close()


class _Pool(dict):
    """One thread's kept-alive connections by (scheme, host:port), least
    recently used first. They are closed when the thread ends and its pool
    is dropped."""

    def take(self, key: tuple[str, str]) -> Optional[_Connection]:
        connection = self.pop(key, None)
        if connection is not None:
            self[key] = connection
        return connection

    def put(self, key: tuple[str, str], connection: _Connection) -> None:
        while len(self) >= POOL_SIZE:
            self.pop(next(iter(self))).close()
        self[key] = connection

    def __del__(self) -> None:
        for connection in self.values():
            connection.close()


_local = threading.local()
_DEFAULT_PORTS = {"http": 80, "https": 443}
# What a request target cannot carry: controls, spaces, which would end or
# split the request line (RFC 9112 section 3), and non-ASCII characters.
_NOT_IN_TARGET = re.compile(r"[^!-~]")


def _pool() -> _Pool:
    pool = getattr(_local, "pool", None)
    if pool is None:
        pool = _local.pool = _Pool()
    return pool


def _read_fields(rfile: BinaryIO) -> dict[str, list[str]]:
    """A response's header lines up to the empty line, values by lower-case
    name; a line with no colon is skipped."""
    fields: dict[str, list[str]] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise TransportUnavailable("response header line too long")
        if line in _END_OF_HEAD:
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if colon:
            fields.setdefault(name.strip().lower(), []).append(value.strip())
    raise TransportUnavailable(f"response has more than {MAX_HEADERS} header lines")


def _read_chunked(rfile: BinaryIO) -> bytes:
    chunks = []
    while True:
        size = rfile.readline(MAX_LINE + 1).split(b";", 1)[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise TransportUnavailable(f"bad chunk size {size[:40]!r}")
        length = int(size, 16)
        if not length:
            break
        chunk = rfile.read(length)
        if len(chunk) < length or rfile.readline(MAX_LINE + 1) not in (b"\r\n", b"\n"):
            raise TransportUnavailable("incomplete chunked response body")
        chunks.append(chunk)
    while rfile.readline(MAX_LINE + 1) not in _END_OF_HEAD:  # the trailer section
        pass
    return b"".join(chunks)


def _read_response(rfile: BinaryIO, line: bytes) -> tuple[int, bytes, bool]:
    """The answer whose status line is `line`: (status, body, whether the
    connection stays open)."""
    while True:
        words = line.split(None, 2)
        if len(line) > MAX_LINE or len(words) < 2 or not words[0].startswith(b"HTTP/1.") \
                or not (words[1].isdigit() and 100 <= int(words[1]) <= 999):
            raise TransportUnavailable(f"bad status line {line[:80]!r}")
        status = int(words[1])
        fields = _read_fields(rfile)
        if not 100 <= status < 200:
            break
        line = rfile.readline(MAX_LINE + 1)  # after an interim answer, the next
    connection = _tokens(",".join(fields.get("connection", [])))
    keep_alive = "close" not in connection and (
        words[0] != b"HTTP/1.0" or "keep-alive" in connection)
    if status in (204, 304):
        return status, b"", keep_alive
    codings = ",".join(fields.get("transfer-encoding", [])).lower()
    if codings:
        if codings.rpartition(",")[2].strip() == "chunked":
            return status, _read_chunked(rfile), keep_alive
        return status, rfile.read(), False
    if "content-length" not in fields:
        return status, rfile.read(), False
    lengths = {value.strip() for value in ",".join(fields["content-length"]).split(",")}
    length = lengths.pop() if len(lengths) == 1 else ""
    if not (length.isascii() and length.isdigit()):
        raise TransportUnavailable(f"bad Content-Length {fields['content-length']!r}")
    body = rfile.read(int(length))
    if len(body) < int(length):
        raise TransportUnavailable(f"response body ended after {len(body)} of {length} bytes")
    return status, body, keep_alive


def http_json(
    method: str,
    url: str,
    body: Any = None,
    token: Optional[str] = None,
    timeout: float = 30.0,
) -> tuple[int, Any]:
    """One JSON request/response exchange. Connection-level failures raise
    TransportUnavailable; error statuses are returned, not raised."""
    parts = urlsplit(url)
    if parts.scheme not in _DEFAULT_PORTS or not parts.netloc:
        raise TransportUnavailable(f"not an http(s) URL: {url!r}")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if _NOT_IN_TARGET.search(target):
        raise TransportUnavailable(f"a request target must be visible ASCII: {target!r}")
    host = parts.netloc.rpartition("@")[2]
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\nAccept: application/json\r\n"
    data = b""
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        head += "Content-Type: application/json\r\n"
    if token is not None:
        if "\r" in token or "\n" in token:
            raise ValueError(f"invalid header value {token!r}")
        head += f"Authorization: Bearer {token}\r\n"
    if body is not None or method in ("POST", "PUT"):
        head += f"Content-Length: {len(data)}\r\n"
    request = (head + "\r\n").encode("latin-1") + data

    pool, key = _pool(), (parts.scheme, parts.netloc)
    while True:
        connection = pool.take(key)
        if connection is None:
            try:
                port = parts.port or _DEFAULT_PORTS[parts.scheme]
            except ValueError as err:
                raise TransportUnavailable(str(err)) from err
            connection = _Connection(parts.scheme, parts.hostname or "", port)
            pool.put(key, connection)
        reused = connection.sock is not None
        line = b""
        try:
            if not reused:
                connection.connect(timeout)
            elif connection.sock.gettimeout() != timeout:
                connection.sock.settimeout(timeout)
            connection.sock.sendall(request)
            line = connection.rfile.readline(MAX_LINE + 1)
            if not line:
                raise ConnectionResetError("the server closed the connection without an answer")
            status, raw, keep_alive = _read_response(connection.rfile, line)
        except OSError as err:
            connection.close()
            # A reused socket the server has closed fails before any byte of
            # an answer; the retry runs on a fresh socket, so at most once.
            stale = isinstance(err, (ConnectionResetError, BrokenPipeError))
            if reused and not line and stale:
                continue
            raise TransportUnavailable(str(err) or type(err).__name__) from err
        except BaseException:
            connection.close()
            raise
        break
    if not keep_alive:
        connection.close()
    if not raw:
        return status, None
    try:
        return status, json.loads(raw)
    except ValueError:
        return status, None


def expect_json(
    method: str,
    url: str,
    body: Any = None,
    token: Optional[str] = None,
    timeout: float = 30.0,
) -> Any:
    """Like http_json but raises RequestRejected on any error status."""
    status, payload = http_json(method, url, body=body, token=token, timeout=timeout)
    if status >= 400:
        detail = payload if isinstance(payload, dict) else {}
        missing = detail.get("missing")
        raise RequestRejected(
            status,
            str(detail.get("code", "error")),
            str(detail.get("message", f"request failed with status {status}")),
            [str(m) for m in missing] if isinstance(missing, list) else (),
        )
    return payload
