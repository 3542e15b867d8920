"""Shared JSON-over-HTTP plumbing, stdlib only.

Server: one ThreadingHTTPServer carries many mounted services, each under a
path prefix; a request goes to the mount with the longest prefix of its
path. Services implement `dispatch(request) -> (status, payload)` and signal
failures with HttpError. Every answer is JSON: a payload is encoded with
json.dumps, except a JsonText, which is JSON text already and is sent as it
is. Every error answer has the body {"code": ..., "message": ...}, and one
function writes it: the handler's send_error, which the stdlib also calls
for the requests it refuses itself (a malformed or unsupported request
line, an overlong URI or header block, a method other than GET, POST, PUT
and DELETE). The error code of those is their status name, such as
"not_implemented". The answer to a HEAD request has no body.

Connections are kept alive (HTTP/1.1), one handler thread per connection:
- each response's head and body leave in a single send on a TCP_NODELAY
  socket, so no part of it waits on the peer's delayed ACK (about 40 ms);
- the request body is read in full before any answer, so the next request
  on the connection starts where it should; a body whose length is unknown
  (bad `Content-Length`, or chunked) gets a 400, one above MAX_BODY_BYTES a
  413, and the connection is closed after either, as after every error the
  stdlib answers;
- a connection idle for IDLE_TIMEOUT_S is closed, and stopping the server
  closes every connection it accepted.

Client: `http_json` keeps one `http.client` connection per thread and per
(scheme, host:port), at most POOL_SIZE per thread. A kept-alive socket that
the server closed in the meantime fails before any byte of the response
arrives; the request is then sent exactly once more on a new connection. A
`Connection: close` response drops the socket, so the next call connects
afresh.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from dataclasses import dataclass, field
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Optional
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


class HttpError(Exception):
    """Failure a service wants reported as an HTTP status + error body."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message


class TransportUnavailable(Exception):
    """The remote service could not be reached at all."""


class RequestRejected(Exception):
    """The remote service answered with an error status."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message


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
    value = headers.get("Authorization") or headers.get("authorization") or ""
    if value.startswith("Bearer "):
        return value[len("Bearer "):].strip() or None
    return None


class _Handler(BaseHTTPRequestHandler):
    server: "SharedJsonServer"
    server_version = "twinaudit"
    protocol_version = "HTTP/1.1"
    # The stdlib writes no head at all for HTTP/0.9, its default for a
    # request line that names no version or a refused one.
    default_request_version = protocol_version
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def log_message(self, fmt: str, *args: Any) -> None:  # quiet by design
        pass

    def _respond(self, status: int, payload: Any, close: bool = False) -> None:
        if status == 204 or payload is None and status < 400:
            body = b""
        elif isinstance(payload, JsonText):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        # end_headers() would send the head on its own; join the body to it.
        # The answer to a HEAD request is the head alone.
        self._headers_buffer.extend((b"\r\n", b"" if self.command == "HEAD" else body))
        self.flush_headers()

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
        *,
        error: Optional[str] = None,
        close: bool = True,
    ) -> None:
        """Answer with an error: the one writer of {code, message} bodies.

        The stdlib calls this for the requests it refuses itself (a bad
        request line or header block, an unsupported method); their error
        code is the status name, and, like a framing error, they close the
        connection.
        """
        if error is None:
            status = HTTPStatus(code)
            error, message = status.name.lower(), message or status.phrase
        self._respond(code, {"code": error, "message": message}, close)

    def _handle(self) -> None:
        """Serve one GET, POST, PUT or DELETE; the request body is read in
        full before any answer."""
        lengths = self.headers.get_all("Content-Length") or ["0"]
        length = lengths[0].strip() if len(set(lengths)) == 1 else ""
        if "Transfer-Encoding" in self.headers or not (length.isascii() and length.isdigit()):
            # Where this body ends is unknown, so the connection cannot go on.
            self.send_error(400, "a request body needs one non-negative integer "
                                 "Content-Length", error="bad_request")
            return
        if int(length) > MAX_BODY_BYTES:
            self.send_error(413, f"request body exceeds {MAX_BODY_BYTES} bytes",
                            error="payload_too_large")
            return
        raw = self.rfile.read(int(length))
        parts = urlsplit(self.path)
        path = parts.path or "/"
        mount = self.server.resolve(path)
        if mount is None:
            self.send_error(404, f"no service at {path}", error="not_found", close=False)
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
            query=dict(parse_qsl(parts.query)),
            headers=dict(self.headers.items()),
            body=body,
        )
        try:
            status, payload = api.dispatch(request)
        except HttpError as err:
            self.send_error(err.status, err.message, error=err.code, close=False)
            return
        except Exception as err:  # service bug: report, keep the server alive
            self.send_error(500, str(err), error="internal", close=False)
            return
        self._respond(status, payload)

    do_GET = do_POST = do_PUT = do_DELETE = _handle


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


class _Pool(dict):
    """One thread's kept-alive connections by (scheme, host:port), least
    recently used first. They are closed when the thread ends and its pool
    is dropped."""

    def take(self, key: tuple[str, str]) -> Optional[http.client.HTTPConnection]:
        connection = self.pop(key, None)
        if connection is not None:
            self[key] = connection
        return connection

    def put(self, key: tuple[str, str], connection: http.client.HTTPConnection) -> None:
        while len(self) >= POOL_SIZE:
            self.pop(next(iter(self))).close()
        self[key] = connection

    def __del__(self) -> None:
        for connection in self.values():
            connection.close()


_local = threading.local()
_CONNECTION_TYPES = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


def _pool() -> _Pool:
    pool = getattr(_local, "pool", None)
    if pool is None:
        pool = _local.pool = _Pool()
    return pool


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
    connection_type = _CONNECTION_TYPES.get(parts.scheme)
    if connection_type is None or not parts.netloc:
        raise TransportUnavailable(f"not an http(s) URL: {url!r}")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    headers = {"Accept": "application/json"}
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"

    pool, key = _pool(), (parts.scheme, parts.netloc)
    while True:
        connection = pool.take(key)
        if connection is None:
            try:
                connection = connection_type(parts.netloc, timeout=timeout)
            except http.client.InvalidURL as err:
                raise TransportUnavailable(str(err)) from err
            pool.put(key, connection)
        connection.timeout = timeout
        reused = connection.sock is not None
        if reused and connection.sock.gettimeout() != timeout:
            connection.sock.settimeout(timeout)
        response = None
        try:
            connection.request(method, target, body=data, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as err:
            connection.close()
            # A reused socket the server has closed fails before any byte of
            # a response; the retry runs on a fresh socket, so at most once.
            stale = isinstance(err, (ConnectionResetError, BrokenPipeError))
            if reused and response is None and stale:
                continue
            raise TransportUnavailable(str(err) or type(err).__name__) from err
        except BaseException:
            connection.close()
            raise
        break
    if not raw:
        return response.status, None
    try:
        return response.status, json.loads(raw)
    except ValueError:
        return response.status, None


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
        raise RequestRejected(
            status,
            str(detail.get("code", "error")),
            str(detail.get("message", f"request failed with status {status}")),
        )
    return payload
