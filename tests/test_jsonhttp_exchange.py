"""The lean HTTP/1.1 exchange against the stdlib: the server's answers
against the former BaseHTTPRequestHandler framing (tests/http_oracle.py), the
client's readings against http.client, and the client over TLS."""

import datetime
import http.client
import ipaddress
import json
import re
import socket
import ssl
import threading
from dataclasses import dataclass
from typing import Optional

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twinaudit import jsonhttp
from twinaudit.jsonhttp import JsonApi, SharedJsonServer, TransportUnavailable, http_json

from .http_oracle import stdlib_server


class Echo(JsonApi):
    def dispatch(self, request):
        return 200, {"method": request.method, "path": request.path, "body": request.body}


# -- server: the same request bytes to both handlers ---------------------------

FOLLOW_UP = b"GET /svc/after HTTP/1.1\r\n\r\n"
LONG = 64 * 1024 + 10  # one byte more than a request or header line may have


@dataclass(frozen=True)
class Outcome:
    status: Optional[int]  # None: no answer at all
    code: Optional[str]  # the JSON error code, if the answer has one
    close: bool  # the answer names `Connection: close`
    follow_up: bool  # a request sent next on the socket is answered


def read_answer(sock, method):
    """The next final answer on sock as (status, body, close), or None if
    the connection ends without one."""
    response = http.client.HTTPResponse(sock, method=method)
    try:
        response.begin()  # skips a 100 Continue
        body = response.read()
    except (http.client.HTTPException, OSError):
        return None
    return response.status, body, (response.getheader("Connection") or "").lower() == "close"


def outcome(server, request, method):
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(request)
        first = read_answer(sock, method)
        try:
            sock.sendall(FOLLOW_UP)
            follow_up = read_answer(sock, "GET") is not None
        except OSError:
            follow_up = False
    if first is None:
        return Outcome(None, None, False, follow_up)
    status, body, close = first
    try:
        code = json.loads(body).get("code")
    except ValueError:
        code = None
    return Outcome(status, code, close, follow_up)


# Field lines by name: the framing and connection fields a client sends,
# then the malformed and over-long ones.
FIELD_LINES = {
    "length": None,  # Content-Length: the body's own length
    "short length": None,  # Content-Length: one byte less than the body
    "bad length": b"Content-Length: abc",
    "negative length": b"Content-Length: -1",
    "two lengths": None,  # the body's length twice
    "conflicting lengths": b"Content-Length: 1\r\nContent-Length: 2",
    "too long a length": b"Content-Length: %d" % (jsonhttp.MAX_BODY_BYTES + 1),
    "chunked": b"Transfer-Encoding: chunked",
    "close": b"Connection: close",
    "Close": b"Connection: Close",
    "keep-alive": b"Connection: keep-alive",
    "keep-alive, close": b"Connection: keep-alive, close",
    "continue": b"Expect: 100-continue",
    "other expectation": b"Expect: something",
    "auth": b"Authorization: Bearer t",
}
BAD_FIELD_LINES = {
    "obs-fold": b"X-Folded: a\r\n  b",
    "no colon": b"NoColonHere",
    "space before colon": b"X-Name : v",
    "empty name": b": v",
    "long line": b"X-Long: " + b"a" * LONG,
}

METHODS = ["GET", "POST", "PUT", "DELETE"] * 2 + ["HEAD", "PATCH", "OPTIONS", "get"]
TARGETS = ["/svc/a", "//svc/a", "/svc/a?x=1&y=", "/nowhere"]
VERSIONS = ["HTTP/1.1"] * 6 + ["HTTP/1.0"] * 2 + ["HTTP/1.10", "HTTP/2.0", "HTTP/9.9", "HTTP/1.x",
            "HTTP/1", "HTTP/0.9", "HTTP/11.0", None]
BODIES = [b"", b'{"a": 1}', b"{not json", b"[" + b"1," * 3000 + b"1]"]


@st.composite
def requests(draw):
    """One request's bytes: a request line, field lines and a body."""
    method = draw(st.sampled_from(METHODS))
    shape = draw(st.sampled_from(["line"] * 10 + ["no version", "one word", "four words",
                                               "empty", "too long"]))
    version = draw(st.sampled_from(VERSIONS))
    target = draw(st.sampled_from(TARGETS))
    if shape == "too long":
        target = "/svc/" + "a" * LONG
    words = {"line": [method, target, version], "no version": [method, target],
             "one word": [method], "four words": [method, target, "x", version],
             "empty": [], "too long": [method, target, version]}[shape]
    line = " ".join(word for word in words if word is not None).encode("latin-1")
    body = draw(st.sampled_from(BODIES))
    fields = []
    names = st.sampled_from(sorted(FIELD_LINES) * 3 + sorted(BAD_FIELD_LINES))
    for name in draw(st.lists(names, max_size=5)):
        if name == "length":
            fields.append(b"Content-Length: %d" % len(body))
        elif name == "short length":
            fields.append(b"Content-Length: %d" % max(len(body) - 1, 0))
        elif name == "two lengths":
            fields += [b"Content-Length: %d" % len(body)] * 2
        else:
            fields.append(FIELD_LINES.get(name) or BAD_FIELD_LINES[name])
    if draw(st.integers(0, 7)) == 0:
        fields += [b"X-%d: 1" % index for index in range(jsonhttp.MAX_HEADERS + 1)]
    end = draw(st.sampled_from([b"\r\n", b"\n"]))
    return (line + end + b"".join(field + end for field in fields) + end + body), method


def normalised(lean: Outcome, stdlib: Outcome, request: bytes) -> Outcome:
    """The lean server's outcome with its intentional differences from the
    stdlib handler undone, for comparison with the stdlib's outcome."""
    line, _, rest = request.partition(b"\n")
    fields = []
    for field in rest.split(b"\n"):
        if not field.removesuffix(b"\r"):
            break
        fields.append(field.removesuffix(b"\r"))
    words = line.split()
    # RFC 9112 section 2.3: HTTP/0.9 has no request line with a version, so
    # "HTTP/0.9" names an unsupported major version, a 505; the stdlib
    # handler fails on it and sends nothing.
    if len(words) >= 3 and words[-1] == b"HTTP/0.9" and stdlib.status is None:
        assert (lean.status, lean.follow_up) == (505, False)
        return stdlib
    parsed = (len(words) == 2 and words[0] == b"GET" or len(words) == 3
              and words[0] in (b"GET", b"POST", b"PUT", b"DELETE")
              and re.fullmatch(rb"HTTP/1\.[0-9]{1,10}", words[2]))
    parsed = parsed and max(map(len, [line, *fields])) <= 64 * 1024 and len(fields) <= 100
    # RFC 9112 sections 5.1 and 5.2: a field line without a name and a
    # colon, with whitespace before the colon, or an obs-fold is refused
    # with a 400; the stdlib's email parser ends the header block there and
    # reads the rest of it as a body.
    if parsed and any(field[:1] in b" \t:" or b":" not in field or b" :" in field
                      for field in fields):
        assert (lean.status, lean.code, lean.close, lean.follow_up) == (
            400, "bad_request", True, False)
        return stdlib
    # RFC 9110 section 7.6.1: `Connection` is a list of options, so
    # "keep-alive, close" closes; the stdlib compares the whole value.
    connection = [field for field in fields if field.startswith(b"Connection: ")]
    if parsed and connection and connection[0] == b"Connection: keep-alive, close":
        assert lean.close and not lean.follow_up
        return Outcome(lean.status, lean.code, stdlib.close, stdlib.follow_up)
    # RFC 9112 section 9.6: a server names `close` in the answer after which
    # it closes; the stdlib handler names it only on its error answers.
    if stdlib.status is not None:
        assert lean.close == (stdlib.close or not stdlib.follow_up)
    return Outcome(lean.status, lean.code, stdlib.close, lean.follow_up)


class TestServerAgainstTheStdlibHandler:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=requests())
    def test_same_answers_to_the_same_bytes(self, drawn):
        request, method = drawn
        lean = outcome(self.lean, request, method)
        stdlib = outcome(self.stdlib, request, method)
        assert normalised(lean, stdlib, request) == stdlib

    def test_continue_is_sent_before_the_body_is_read(self):
        with socket.create_connection(self.lean.server_address[:2], timeout=5) as sock:
            sock.sendall(b"PUT /svc/a HTTP/1.1\r\nContent-Length: 2\r\n"
                         b"Expect: 100-continue\r\n\r\n")
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(b"[]")
            status, body, _ = read_answer(sock, "PUT")
        assert (status, json.loads(body)) == (200, {"method": "PUT", "path": "/a", "body": []})

    @classmethod
    def setup_class(cls):
        cls.lean = SharedJsonServer().start()
        cls.stdlib = stdlib_server().start()
        for server in (cls.lean, cls.stdlib):
            server.mount("/svc", Echo())

    @classmethod
    def teardown_class(cls):
        cls.lean.stop()
        cls.stdlib.stop()


# -- client: the same answer bytes to http_json and http.client ---------------

class Scripted:
    """A socket server that answers each request with the next scripted
    answer bytes, then closes the connection."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.answer = b""
        self.closing = False
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            if self.closing:
                sock.close()
                return
            with sock, sock.makefile("rb") as rfile:
                line = rfile.readline()
                while line not in (b"\r\n", b""):
                    line = rfile.readline()
                if line:
                    sock.sendall(self.answer)
                    sock.shutdown(socket.SHUT_WR)

    def close(self):
        # Closing the listener does not wake a thread blocked in accept() on
        # Linux; one connection does.
        self.closing = True
        socket.create_connection(("127.0.0.1", self.port), timeout=5).close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()
        self.listener.close()


def stdlib_reading(port):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", "/x", headers={"Accept": "application/json"})
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    try:
        return response.status, json.loads(raw) if raw else None
    except ValueError:
        return response.status, None


json_bodies = st.one_of(
    st.just(b""),
    st.just(b"not json"),
    st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=20),
                 lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(st.text(max_size=8), inner, max_size=4),
                 max_leaves=20).map(lambda value: json.dumps(value).encode("utf-8")),
)


@st.composite
def answers(draw):
    """One answer's bytes: a status, `Connection: close` or not, and its
    body framed by Content-Length, chunked coding or the connection's end."""
    status = draw(st.sampled_from([200, 201, 204, 400, 404, 500]))
    body = b"" if status == 204 else draw(json_bodies)  # a 204 has no content
    framings = ["length", "two lengths", "chunked", "chunked and length", "close"]
    framing = draw(st.sampled_from(framings[:2] if status == 204 else framings))
    fields = [b"Content-Type: application/json"]
    if draw(st.booleans()):
        fields.append(b"Connection: close")
    if draw(st.booleans()):
        fields.insert(0, b"HTTP/1.1 100 Continue\r\n")
    if framing in ("length", "two lengths"):
        fields += [b"Content-Length: %d" % len(body)] * (2 if framing == "two lengths" else 1)
        payload = body
    elif framing.startswith("chunked"):
        fields.append(b"Transfer-Encoding: chunked")
        if framing == "chunked and length":
            fields.append(b"Content-Length: 3")
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=3)))
        pieces = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)]) if body[a:b]]
        extension = draw(st.sampled_from([b"", b";name=value"]))
        payload = b"".join(b"%x%s\r\n%s\r\n" % (len(piece), extension, piece) for piece in pieces)
        payload += b"0\r\n" + draw(st.sampled_from([b"", b"X-Trailer: 1\r\n"])) + b"\r\n"
    else:
        payload = body
    head = b"HTTP/1.1 %d Reason\r\n" % status
    if fields[0].startswith(b"HTTP/"):
        head = fields.pop(0) + b"\r\n" + head
    return head + b"".join(field + b"\r\n" for field in fields) + b"\r\n" + payload


class TestClientAgainstHttpClient:
    @settings(max_examples=200, deadline=None)
    @given(answer=answers())
    def test_same_status_and_payload(self, answer):
        self.scripted.answer = answer
        expected = stdlib_reading(self.scripted.port)
        assert http_json("GET", f"http://127.0.0.1:{self.scripted.port}/x", timeout=5) == expected

    @pytest.mark.parametrize("answer", [
        b"HTTP/1.1 2OO OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\n{}",
    ], ids=["status", "length-not-a-number", "negative-length", "conflicting-lengths",
            "short-body", "chunk-size", "short-chunk"])
    def test_malformed_answer_is_transport_unavailable(self, answer):
        """http.client reads a bad status as an error too, but reads a body
        whose Content-Length is not one non-negative integer to the end of
        the connection; RFC 9112 section 6.3 makes that framing invalid, so
        http_json drops the connection and the answer."""
        self.scripted.answer = answer
        with pytest.raises(TransportUnavailable):
            http_json("GET", f"http://127.0.0.1:{self.scripted.port}/x", timeout=5)

    @classmethod
    def setup_class(cls):
        cls.scripted = Scripted()

    @classmethod
    def teardown_class(cls):
        cls.scripted.close()


# -- client over TLS ----------------------------------------------------------

@pytest.fixture(scope="module")
def certificate(tmp_path_factory):
    """A self-signed certificate for localhost and its key, as PEM files."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "localhost")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name).issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(days=1))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName([
            x509.DNSName("localhost"), x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
            critical=False)
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .sign(key, hashes.SHA256())
    )
    folder = tmp_path_factory.mktemp("tls")
    cert_file, key_file = folder / "cert.pem", folder / "key.pem"
    cert_file.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_file.write_bytes(key.private_bytes(serialization.Encoding.PEM,
                                           serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    return cert_file, key_file


@pytest.fixture
def tls_served(certificate):
    """A SharedJsonServer whose listening socket speaks TLS, and the number
    of connections it accepts."""
    cert_file, key_file = certificate
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_file, key_file)
    server = SharedJsonServer()
    server.socket = context.wrap_socket(server.socket, server_side=True)
    accepted = []
    accept = server.get_request

    def counting():
        request = accept()
        accepted.append(request[1])
        return request

    server.get_request = counting
    server.start()
    url = server.mount("/svc", Echo()).replace("http://127.0.0.1", "https://localhost")
    yield url, accepted
    server.stop()


class TestHttps:
    def test_trusted_certificate_serves_two_calls_on_one_connection(
            self, tls_served, certificate, monkeypatch):
        url, accepted = tls_served
        monkeypatch.setenv("SSL_CERT_FILE", str(certificate[0]))
        assert http_json("PUT", f"{url}/a", body={"i": 1}) == (
            200, {"method": "PUT", "path": "/a", "body": {"i": 1}})
        assert http_json("GET", f"{url}/b") == (
            200, {"method": "GET", "path": "/b", "body": None})
        assert len(accepted) == 1

    def test_untrusted_certificate_is_transport_unavailable(
            self, tls_served, tmp_path, monkeypatch):
        url, _ = tls_served
        empty = tmp_path / "none.pem"
        empty.write_text("")
        monkeypatch.setenv("SSL_CERT_FILE", str(empty))
        monkeypatch.setenv("SSL_CERT_DIR", str(tmp_path))
        with pytest.raises(TransportUnavailable):
            http_json("GET", f"{url}/a", timeout=5)
