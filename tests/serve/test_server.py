"""HTTP end-to-end: status mapping, stats observability, clean shutdown."""

import email.utils
import http.client
import json
import platform
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    InferenceService,
    ServeClient,
    ServeClientError,
    ServeServer,
    describe,
)
from repro.serve import server as server_module
from repro.serve.protocol import (
    ErrorReply,
    HealthReply,
    QueryRequest,
    QueryResponse,
    parse_message,
)

from .conftest import rename_bench


@pytest.fixture(scope="module")
def server(model):
    service = InferenceService(model, model_label="e2e")
    srv = ServeServer(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=10)
    srv.close()
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(f"http://{server.host}:{server.port}", timeout=30.0)


def http_error(req):
    """``(status, body)`` of the ``HTTPError`` that ``req`` raises; the
    error holds the response's socket, so it is closed here."""
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(req, timeout=10)
    with info.value as error:
        return error.code, error.read().decode()


class TestHappyPath:
    def test_health(self, client):
        assert client.health()

    def test_query_aiger(self, client, adder_aag):
        resp = client.query(adder_aag)
        assert len(resp.predictions) == resp.num_nodes
        assert resp.model == "e2e"

    def test_query_bench(self, client, adder_bench):
        resp = client.query(adder_bench, fmt="bench")
        assert len(resp.predictions) == resp.num_nodes

    def test_structural_resubmission_hits_cache(self, client, comparator_aag):
        before = client.stats()
        first = client.query(comparator_aag)
        again = client.query(comparator_aag)
        after = client.stats()
        assert again.cache_hit
        assert again.predictions == first.predictions
        # the hit is observable through the stats endpoint
        assert after.cache_hits >= before.cache_hits + 1

    def test_renamed_circuit_hits_cache(self, client, adder_bench):
        first = client.query(adder_bench, fmt="bench")
        renamed = client.query(rename_bench(adder_bench), fmt="bench")
        assert renamed.cache_hit
        assert renamed.predictions == first.predictions

    def test_stats_reply_shape(self, client):
        stats = client.stats()
        assert stats.model == "e2e"
        assert stats.requests >= 1
        assert stats.cache_capacity > 0


class TestErrorMapping:
    def test_malformed_aiger_is_400_with_line(self, client):
        with pytest.raises(ServeClientError) as info:
            client.query("aag 2 1 0 1\nnonsense\n")
        err = info.value
        assert err.status == 400
        assert err.kind == "parse_error"
        assert err.line == 1

    def test_non_topological_aiger_is_400_with_line(self, client):
        with pytest.raises(ServeClientError) as info:
            client.query("aag 3 1 0 1 2\n2\n6\n4 6 2\n6 2 2\n")
        err = info.value
        assert (err.status, err.kind, err.line) == (400, "parse_error", 4)
        assert "[parse_error/400] line 4: AND var 2" in str(err)

    def test_malformed_bench_is_400_with_line(self, client):
        with pytest.raises(ServeClientError) as info:
            client.query("INPUT(a)\nb = FROB(a)\n", fmt="bench")
        err = info.value
        assert err.status == 400
        assert err.kind == "parse_error"
        assert err.line == 2

    def test_malformed_verilog_is_400(self, client):
        with pytest.raises(ServeClientError) as info:
            client.query("module m; endmodule extra", fmt="verilog")
        assert info.value.status == 400
        assert info.value.kind == "parse_error"

    def test_all_constant_circuit_is_400_circuit_error(self, client):
        with pytest.raises(ServeClientError) as info:
            client.query("aag 0 0 0 1 0\n0\n")
        assert info.value.status == 400
        assert info.value.kind == "circuit_error"

    def test_lone_surrogate_is_400_parse_error(self, client):
        # JSON carries "\ud800" as a string no strict UTF-8 codec encodes;
        # the text memo's digest must not turn the parser's 400 into a 500
        with pytest.raises(ServeClientError) as info:
            client.query("\ud800", fmt="bench")
        error = info.value
        assert (error.status, error.kind, error.line) == (400, "parse_error", 1)
        assert error.detail == "line 1: cannot parse '\\ud800'"

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServeClientError) as info:
            client._request("/nope")
        assert info.value.status == 404
        assert info.value.kind == "not_found"

    def test_bad_json_body_is_400_protocol_error(self, server):
        req = urllib.request.Request(
            f"http://{server.host}:{server.port}/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        code, body = http_error(req)
        assert code == 400
        assert parse_message(body).error == "protocol_error"

    def test_wrong_message_type_is_400(self, server):
        body = HealthReply().to_json().encode()
        req = urllib.request.Request(
            f"http://{server.host}:{server.port}/query",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        code, _ = http_error(req)
        assert code == 400

    def test_missing_body_is_400(self, server):
        req = urllib.request.Request(
            f"http://{server.host}:{server.port}/query",
            data=b"",
            method="POST",
        )
        code, _ = http_error(req)
        assert code == 400

    def test_errors_count_in_stats(self, client):
        before = client.stats()
        with pytest.raises(ServeClientError):
            client.query("aag broken\n")
        after = client.stats()
        assert after.errors == before.errors + 1


def raw_exchange(server, data: bytes) -> bytes:
    """Send ``data`` on one connection and read until the server closes it."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(data)
        received = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            except socket.timeout:
                pytest.fail("the server left the connection open")
            if not chunk:
                break
            received.append(chunk)
    return b"".join(received)


SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def read_reply(rfile):
    """``(status, fields, body)`` of one reply read off ``rfile``, its
    field names lower-cased."""
    status = int(rfile.readline().split()[1])
    fields = {}
    for line in iter(rfile.readline, b""):
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        fields[name.lower()] = value.strip()
    return status, fields, rfile.read(int(fields["content-length"]))


def refusal(data: bytes):
    """``(status, ErrorReply)`` of the one reply in ``data``, which must
    end its connection."""
    assert data.count(b"HTTP/1.1 ") == 1, data[:200]
    head, _, body = data.partition(b"\r\n\r\n")
    assert b"\r\nConnection: close\r\n" in head + b"\r\n", head
    reply = parse_message(body.decode())
    assert isinstance(reply, ErrorReply), reply
    return int(head.split()[1]), reply


class TestUnreadBody:
    """A reply sent before the request body is read ends the connection,
    so the body is never parsed as a request of its own."""

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Length: many\r\n", 400),
            (b"POST /nope HTTP/1.1\r\nContent-Length: %d\r\n" % len(SMUGGLED),
             404),
            (b"GET /stats HTTP/1.1\r\nContent-Length: %d\r\n" % len(SMUGGLED),
             200),
        ],
        ids=["oversized_length", "bad_length", "unknown_path", "get_with_body"],
    )
    def test_one_reply_then_eof(self, server, head, status):
        data = raw_exchange(server, head + b"Host: x\r\n\r\n" + SMUGGLED)
        assert data.count(b"HTTP/1.1 ") == 1, data
        assert data.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\nConnection: close\r\n" in data

    @pytest.mark.parametrize(
        "framing",
        [
            b"Content-Length: +%d\r\n",
            b"Content-Length: %s\r\n",  # the length with "_" between digits
            b"Content-Length: 0%d\xb2\r\n",  # a superscript digit
            b"Content-Length: %d\r\nContent-Length: 1%d\r\n",
            b"Transfer-Encoding: chunked\r\nContent-Length: %d\r\n",
            b"Transfer-Encoding: identity\r\n",
        ],
        ids=["plus_sign", "underscores", "superscript", "differing_lengths",
             "chunked_and_length", "transfer_encoding"],
    )
    def test_unframeable_body_gets_one_400_then_eof(
        self, server, adder_aag, framing
    ):
        # a whole query follows the head: int() reads each of these
        # lengths, so a lenient server would answer it with a 200
        body = QueryRequest(circuit=adder_aag).to_json().encode()
        n = len(body)
        if b"%s" in framing:
            fields = framing % "_".join(str(n)).encode()
        else:
            fields = framing % ((n,) * framing.count(b"%d"))
        data = raw_exchange(
            server,
            b"POST /query HTTP/1.1\r\nHost: x\r\n" + fields + b"\r\n"
            + body + SMUGGLED,
        )
        status, reply = refusal(data)
        assert (status, reply.error) == (400, "protocol_error")

    def test_repeated_equal_lengths_are_one_length(self, server, adder_aag):
        body = QueryRequest(circuit=adder_aag).to_json().encode()
        data = raw_exchange(
            server,
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n"
            % (len(body), len(body)) + body,
        )
        head, _, reply = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert isinstance(parse_message(reply.decode()), QueryResponse)

    @pytest.mark.parametrize("valid", [True, False], ids=["query", "bad_json"])
    def test_reply_after_the_body_keeps_the_connection(
        self, server, adder_aag, valid
    ):
        body = QueryRequest(circuit=adder_aag).to_json() if valid else "{nope"
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("POST", "/query", body=body.encode())
            first = conn.getresponse()
            first.read()
            conn.request("GET", "/healthz")
            second = conn.getresponse()
            health = parse_message(second.read().decode())
        finally:
            conn.close()
        assert first.status == (200 if valid else 400)
        assert first.getheader("Connection") is None
        assert (second.status, health) == (200, HealthReply())


class TestWire:
    """What any HTTP/1.1 client may send, over raw sockets."""

    def test_http10_without_keep_alive_is_answered_then_closed(self, server):
        data = raw_exchange(server, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert data.count(b"HTTP/1.1 ") == 1
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert head.endswith(b"\r\nConnection: close")
        assert parse_message(body.decode()) == HealthReply()

    def test_http10_keep_alive_stays_open(self, server):
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with socket.create_connection((server.host, server.port), 5) as sock:
            with sock.makefile("rb") as rfile:
                for _ in range(2):
                    sock.sendall(request)
                    status, fields, body = read_reply(rfile)
                    assert (status, "connection" in fields) == (200, False)
                    assert parse_message(body.decode()) == HealthReply()

    def test_expect_100_continue_gets_the_interim_reply(
        self, server, adder_aag
    ):
        body = QueryRequest(circuit=adder_aag).to_json().encode()
        head = (
            b"POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        with socket.create_connection((server.host, server.port), 5) as sock:
            with sock.makefile("rb") as rfile:
                sock.sendall(head)
                # the body is sent only once the server has asked for it
                assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
                assert rfile.readline() == b"\r\n"
                sock.sendall(body)
                status, _, reply = read_reply(rfile)
        assert status == 200
        assert isinstance(parse_message(reply.decode()), QueryResponse)

    @pytest.mark.parametrize("path", [b"/query", b"//query"])
    def test_bare_lf_and_lower_case_names(self, server, adder_aag, path):
        body = QueryRequest(circuit=adder_aag).to_json().encode()
        data = raw_exchange(
            server,
            b"POST %s HTTP/1.1\nhost: x\ncontent-length: %d\n"
            b"connection: close\n\n" % (path, len(body)) + body,
        )
        head, _, reply = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert isinstance(parse_message(reply.decode()), QueryResponse)

    @pytest.mark.parametrize(
        "request_head, status",
        [
            (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n", 414),
            (b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 65536 + b"\r\n", 431),
            (b"GET /healthz HTTP/1.1\r\n"
             + b"".join(b"X-%d: y\r\n" % i for i in range(100)), 431),
            (b"GET /healthz HTTP/2.0\r\n", 505),
            (b"GET /healthz HTTP/1.x\r\n", 400),
            (b"GET /healthz\r\n", 400),
            (b"PUT /healthz HTTP/1.1\r\n", 501),
            (b"GET /healthz HTTP/1.1\r\nX-Folded: a\r\n b\r\n", 400),
        ],
        ids=["long_request_line", "long_header_line", "100_header_lines",
             "http2", "bad_version", "no_version", "put", "folded_header"],
    )
    def test_http_layer_refusals_are_error_replies(
        self, server, request_head, status
    ):
        got, reply = refusal(raw_exchange(server, request_head + b"\r\n"))
        assert (got, reply.error) == (status, "protocol_error")
        assert reply.detail

    def test_reply_head_fields_in_order(self, server):
        data = raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        head, _, body = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        fields = [line.split(": ", 1) for line in lines]
        assert status_line == "HTTP/1.1 200 OK"
        assert [name for name, _ in fields] == [
            "Server", "Date", "Content-Type", "Content-Length", "Connection"
        ]
        values = dict(fields)
        assert values["Server"] == "repro-serve/1 Python/" + platform.python_version()
        assert values["Content-Type"] == "application/json"
        assert values["Content-Length"] == str(len(body))
        assert values["Connection"] == "close"
        assert body == (HealthReply().to_json() + "\n").encode()

    @pytest.mark.parametrize(
        "second", [0, 951_782_400, 4_102_444_799, None], ids=str
    )
    def test_date_is_an_english_imf_fixdate(self, second):
        second = int(time.time()) if second is None else second
        assert server_module._imf_fixdate(second) == email.utils.formatdate(
            second, usegmt=True
        )

    def test_99_header_lines_are_read(self, server):
        data = raw_exchange(
            server,
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-%d: y\r\n" % i for i in range(98))
            + b"Connection: close\r\n\r\n",
        )
        assert data.startswith(b"HTTP/1.1 200 OK\r\n")


class TestStalledClient:
    """A client that stalls, sends a short body or resets mid-exchange
    loses its connection without a reply or a traceback, and its
    handler thread ends."""

    HEAD = b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"

    def test_short_bodies_get_eof_and_free_their_threads(
        self, server, adder_aag, monkeypatch, capsys
    ):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.5)
        baseline = threading.active_count()
        # 10 of 100 body bytes: one client stalls, one closes its side
        stalled = socket.create_connection((server.host, server.port), 5)
        stalled.sendall(self.HEAD + b"0123456789")
        closed = socket.create_connection((server.host, server.port), 5)
        closed.sendall(self.HEAD + b"0123456789")
        closed.shutdown(socket.SHUT_WR)
        # a client that sends a whole query, then resets the connection
        reset = socket.create_connection((server.host, server.port), 5)
        body = QueryRequest(circuit=adder_aag).to_json().encode()
        reset.sendall(
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            % len(body) + body
        )
        reset.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        reset.close()
        for sock in (stalled, closed):
            with sock:
                # a recv timeout (5 s) fails the test instead of hanging
                assert sock.recv(65536) == b""
        deadline = time.monotonic() + 5
        while (
            threading.active_count() > baseline
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert threading.active_count() <= baseline
        assert "Traceback" not in capsys.readouterr().err

        # a good connection still gets both of its keep-alive queries
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            statuses = []
            for _ in range(2):
                conn.request("POST", "/query", body=body)
                reply = conn.getresponse()
                reply.read()
                statuses.append(reply.status)
        finally:
            conn.close()
        assert statuses == [200, 200]


def test_banner_names_the_url_cache_and_queue(server):
    assert describe(server) == (
        f"serving e2e on http://{server.host}:{server.port} "
        "(cache 128, queue<= 128)"
    )


class TestClient:
    def test_connection_refused_is_transport_error(self):
        dead = ServeClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServeClientError) as info:
            dead.health()
        assert info.value.kind == "transport_error"
        assert info.value.status is None

    def test_raw_error_body_survives(self):
        err = ServeClientError("boom", kind="internal_error", status=500)
        assert "internal_error" in str(err)
        assert "500" in str(err)

    def test_responses_parse_as_protocol_messages(self, server):
        with urllib.request.urlopen(
            f"http://{server.host}:{server.port}/healthz", timeout=10
        ) as resp:
            payload = json.loads(resp.read().decode())
        assert parse_message(payload) == HealthReply()


class TestShutdown:
    def test_closed_batcher_maps_to_503(self, model, adder_aag):
        """A query racing shutdown gets 503 (retryable), not a 500."""
        service = InferenceService(model)
        srv = ServeServer(service, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            service.batcher.close()
            client = ServeClient(
                f"http://{srv.host}:{srv.port}", timeout=10.0
            )
            with pytest.raises(ServeClientError) as info:
                client.query(adder_aag)
            assert info.value.status == 503
            assert info.value.kind == "unavailable"
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.close()

    def test_close_stops_the_service(self, model):
        service = InferenceService(model)
        srv = ServeServer(service, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        with urllib.request.urlopen(
            f"http://{srv.host}:{srv.port}/healthz", timeout=10
        ) as resp:
            assert resp.status == 200
        srv.shutdown()
        thread.join(timeout=10)
        srv.close()
        assert not thread.is_alive()
        from repro.serve.batcher import BatcherClosed
        from repro.serve.service import _Job

        with pytest.raises(BatcherClosed):
            service.batcher.submit(_Job(None, None))
