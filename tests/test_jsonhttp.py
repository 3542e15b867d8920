"""The keep-alive JSON transport: connection reuse and reconnects, request
framing, JSON error bodies, server stop, single-send responses and
longest-prefix routing."""

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinaudit
from twinaudit import jsonhttp
from twinaudit.jsonhttp import JsonApi, JsonText, SharedJsonServer, TransportUnavailable, http_json

# Encodes to just under 64 KiB: one loopback segment, whose tail a server
# without TCP_NODELAY holds back for the peer's delayed ACK.
BIG = "x" * (64 * 1024 - 100)
# JSON text in a layout json.dumps would not write.
TEXT = '{"b": 1,"a":["\\u00e9"] }'


class Echo(JsonApi):
    def __init__(self):
        self.threads = set()

    def dispatch(self, request):
        self.threads.add(threading.current_thread())
        if request.path == "/big":
            return 200, {"blob": BIG}
        if request.path == "/text":
            return 200, JsonText(TEXT)
        return 200, {"method": request.method, "path": request.path, "body": request.body}


@pytest.fixture
def connections(monkeypatch):
    """Counts the connections servers accept during the test."""
    accepted = []
    original = SharedJsonServer.process_request

    def counting(self, request, client_address):
        accepted.append(client_address)
        return original(self, request, client_address)

    monkeypatch.setattr(SharedJsonServer, "process_request", counting)
    return accepted


@pytest.fixture
def served():
    server = SharedJsonServer().start()
    echo = Echo()
    url = server.mount("/svc", echo)
    yield server, echo, url
    server.stop()


@pytest.fixture
def plain(served):
    """A plain http.client connection to the served server."""
    host, port = served[0].server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=5)
    yield connection
    connection.close()


def send_head(connection, method, path, headers):
    """Send a request head alone (no body) and read the JSON answer."""
    connection.putrequest(method, path)
    for name, value in headers:
        connection.putheader(name, value)
    connection.endheaders()
    response = connection.getresponse()
    return response, json.loads(response.read())


class TestConnectionReuse:
    def test_one_thread_uses_one_connection(self, connections, served):
        _, _, url = served
        for index in range(10):
            assert http_json("PUT", f"{url}/n", body={"i": index}) == (
                200, {"method": "PUT", "path": "/n", "body": {"i": index}})
        assert len(connections) == 1

    def test_two_threads_use_two_connections(self, connections, served):
        _, _, url = served
        results = []

        def calls():
            results.extend(http_json("GET", f"{url}/t")[0] for _ in range(5))

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [200] * 10
        assert len(connections) == 2

    def test_idle_close_costs_one_reconnect(self, connections, monkeypatch):
        monkeypatch.setattr(jsonhttp._Handler, "timeout", 0.2)
        server = SharedJsonServer().start()
        try:
            url = server.mount("/svc", Echo())
            assert http_json("GET", f"{url}/a")[0] == 200
            time.sleep(0.6)  # the server closes the idle connection
            assert http_json("POST", f"{url}/b", body=[1])[1]["body"] == [1]
            assert len(connections) == 2
        finally:
            server.stop()

    def test_stopped_server_is_unreachable_and_leaves_no_handler(self, served):
        server, echo, url = served
        assert http_json("GET", f"{url}/x")[0] == 200
        server.stop()
        with pytest.raises(TransportUnavailable):
            http_json("GET", f"{url}/x", timeout=5)
        assert echo.threads and not any(thread.is_alive() for thread in echo.threads)

    def test_connection_close_is_honoured(self, connections, served, monkeypatch):
        _, _, url = served
        respond = jsonhttp._Handler._respond
        monkeypatch.setattr(jsonhttp._Handler, "_respond",
                            lambda self, status, payload, close=False:
                            respond(self, status, payload, close=True))
        assert http_json("GET", f"{url}/a")[0] == 200
        pooled = jsonhttp._pool().take(("http", url.split("/")[2]))
        assert pooled.sock is None  # dropped, not kept for the next call
        assert http_json("GET", f"{url}/b")[0] == 200
        assert len(connections) == 2

    @pytest.mark.parametrize("path", ["/small", "/big"])
    def test_keep_alive_responses_do_not_stall(self, served, path):
        _, _, url = served
        http_json("GET", url + path)
        started = time.perf_counter()
        for _ in range(20):
            status, payload = http_json("GET", url + path)
            assert status == 200 and payload.get("blob", BIG) == BIG
        # A stalled response waits about 44 ms for the client's delayed ACK.
        assert time.perf_counter() - started < 0.4


class TestRequestFraming:
    def test_404_body_is_consumed_before_the_next_request(self, plain):
        plain.request("POST", "/nowhere", body=b'{"a": 1}',
                      headers={"Content-Type": "application/json"})
        first = plain.getresponse()
        assert first.status == 404 and json.loads(first.read())["code"] == "not_found"
        sock = plain.sock
        plain.request("GET", "/svc/next")
        second = plain.getresponse()
        assert second.status == 200 and json.loads(second.read())["path"] == "/next"
        assert plain.sock is sock

    def test_json_text_is_sent_as_it_is(self, plain):
        plain.request("GET", "/svc/text")
        response = plain.getresponse()
        assert response.status == 200 and response.read() == TEXT.encode("ascii")
        assert response.getheader("Content-Type") == "application/json"

    def test_invalid_json_keeps_the_connection(self, plain):
        plain.request("PUT", "/svc/a", body=b"{not json")
        first = plain.getresponse()
        assert first.status == 400 and json.loads(first.read())["code"] == "bad_request"
        sock = plain.sock
        plain.request("GET", "/svc/b")
        assert plain.getresponse().status == 200 and plain.sock is sock

    @pytest.mark.parametrize("headers", [
        [("Content-Length", "abc")],
        [("Content-Length", "-1")],
        [("Transfer-Encoding", "chunked")],
        [("Content-Length", "2"), ("Content-Length", "3")],
    ], ids=["not-an-integer", "negative", "chunked", "conflicting"])
    def test_unknown_body_length_is_a_400_and_a_close(self, served, plain, headers):
        response, payload = send_head(plain, "POST", "/svc/a", headers)
        assert response.status == 400 and payload["code"] == "bad_request"
        assert response.getheader("Connection") == "close"
        assert http_json("GET", f"{served[2]}/after")[0] == 200

    def test_request_line_without_a_version_gets_a_head(self, served):
        response, body = exchange(served[0], b"GET /svc/a\r\n\r\n")
        assert response.status == 200 and json.loads(body)["path"] == "/a"

    def test_oversized_body_is_a_413_and_a_close(self, served, plain):
        too_long = str(jsonhttp.MAX_BODY_BYTES + 1)
        response, payload = send_head(plain, "POST", "/svc/a", [("Content-Length", too_long)])
        assert response.status == 413 and payload["code"] == "payload_too_large"
        assert response.getheader("Connection") == "close"
        assert http_json("GET", f"{served[2]}/after")[0] == 200


def exchange(server, head):
    """Send a raw request head and read the whole answer."""
    method = head.split(b" ", 1)[0].decode()
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(head)
        response = http.client.HTTPResponse(sock, method=method)
        response.begin()
        return response, response.read()


class TestErrorBodies:
    """Requests the stdlib refuses itself get the same JSON error bodies as
    the services' errors, and close the connection."""

    @pytest.mark.parametrize("head,status,code", [
        (b"PATCH /svc/a HTTP/1.1\r\n\r\n", 501, "not_implemented"),
        (b"OPTIONS /svc/a HTTP/1.1\r\n\r\n", 501, "not_implemented"),
        (b"HEAD /svc/a HTTP/1.1\r\n\r\n", 501, "not_implemented"),
        (b"GET /svc/a HTTP/9.9\r\n\r\n", 505, "http_version_not_supported"),
        (b"GET /svc/" + b"a" * 70 * 1024 + b" HTTP/1.1\r\n\r\n", 414, "request_uri_too_long"),
        (b"GET /svc/a HTTP/1.1\r\n" + b"".join(b"X-%d: 1\r\n" % i for i in range(101))
         + b"\r\n", 431, "request_header_fields_too_large"),
    ], ids=["patch", "options", "head", "http-9.9", "70-kb-uri", "101-headers"])
    def test_refused_requests_get_a_json_error(self, served, head, status, code):
        response, body = exchange(served[0], head)
        assert response.status == status
        assert response.getheader("Content-Type") == "application/json"
        assert response.getheader("Connection") == "close"
        if head.startswith(b"HEAD "):
            assert body == b""
        else:
            payload = json.loads(body)
            assert set(payload) == {"code", "message"} and payload["code"] == code
            assert isinstance(payload["message"], str) and payload["message"]
        assert http_json("GET", f"{served[2]}/after")[0] == 200


def sorted_scan(mounts, path):
    """The former resolve: every mount, longest first."""
    for prefix in sorted(mounts, key=len, reverse=True):
        if path == prefix or path.startswith(prefix + "/"):
            return prefix
    return None


segments = st.lists(st.sampled_from(["a", "b", "ab", "sdt", ""]), max_size=4)
prefixes = segments.filter(lambda s: s and s[-1]).map(lambda s: "/" + "/".join(s))
paths = segments.map(lambda s: "/" + "/".join(s))


class TestRouting:
    @settings(max_examples=200, deadline=None)
    @given(mounts=st.sets(prefixes, max_size=8), path=paths)
    def test_longest_prefix_matches_the_sorted_scan(self, mounts, path):
        server = TestRouting.server
        for prefix in mounts:
            server.mount(prefix, Echo())
        try:
            found = server.resolve(path)
            assert (found[0] if found else None) == sorted_scan(mounts, path)
        finally:
            for prefix in mounts:
                server.unmount(prefix)

    @classmethod
    def setup_class(cls):
        cls.server = SharedJsonServer()

    @classmethod
    def teardown_class(cls):
        cls.server.stop()


def test_imports_without_requests():
    code = ("import sys; sys.modules['requests'] = None\n"
            "import twinaudit.cli, twinaudit.jsonhttp, twinaudit.manager")
    src = str(Path(twinaudit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
