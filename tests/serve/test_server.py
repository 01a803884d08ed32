"""HTTP end-to-end: status mapping, stats observability, clean shutdown."""

import http.client
import json
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
from repro.serve.protocol import HealthReply, QueryRequest, parse_message

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
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 400
        reply = parse_message(info.value.read().decode())
        assert reply.error == "protocol_error"

    def test_wrong_message_type_is_400(self, server):
        body = HealthReply().to_json().encode()
        req = urllib.request.Request(
            f"http://{server.host}:{server.port}/query",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 400

    def test_missing_body_is_400(self, server):
        req = urllib.request.Request(
            f"http://{server.host}:{server.port}/query",
            data=b"",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 400

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
