"""Reference request handler: the JSON server's former framing, built on
the stdlib's BaseHTTPRequestHandler and its email header parser.

`twinaudit.jsonhttp` parses requests itself. Tests serve the same mounts
with this handler as well, send both the same request bytes and compare the
answers; `stdlib_server` makes such a server.
"""

from __future__ import annotations

import json
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler
from typing import Any, Optional
from urllib.parse import parse_qsl, urlsplit

from twinaudit.jsonhttp import (
    IDLE_TIMEOUT_S, MAX_BODY_BYTES, ApiRequest, HttpError, JsonText, SharedJsonServer,
)


def stdlib_server() -> SharedJsonServer:
    """A SharedJsonServer, not yet started, whose connections this module's
    handler serves."""
    server = SharedJsonServer()
    server.RequestHandlerClass = StdlibHandler
    # The handler fails on an explicit HTTP/0.9 request line; keep it quiet.
    server.handle_error = lambda request, client_address: None
    return server


class StdlibHandler(BaseHTTPRequestHandler):
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
