"""HTTP transport: kept-alive connections, one write per reply, and a
client shared across threads with one connection each."""

import http.client
import socket
import socketserver
import sys
import threading
import time

import pytest

from repro.aig import bench
from repro.datagen.generators import comparator, parity
from repro.serve import InferenceService, ServeClient, ServeClientError, ServeServer
from repro.serve import server as server_module
from repro.serve.protocol import QueryRequest

from .conftest import direct_forward, rename_bench


@pytest.fixture
def server(model):
    srv = ServeServer(InferenceService(model), host="127.0.0.1", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=10)
    srv.close()


def url(srv):
    return f"http://{srv.host}:{srv.port}"


@pytest.fixture
def handler_threads(monkeypatch):
    """The thread of every connection the server accepts, in order."""
    threads = []
    setup = server_module._Handler.setup

    def recording_setup(handler):
        threads.append(threading.current_thread())
        setup(handler)

    monkeypatch.setattr(server_module._Handler, "setup", recording_setup)
    return threads


@pytest.fixture
def client_connects(monkeypatch):
    """Counts the TCP connections the client side opens."""
    count = [0]
    connect = http.client.HTTPConnection.connect

    def counting_connect(conn):
        count[0] += 1
        connect(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting_connect)
    return count


class TestServerWrites:
    def test_keepalive_requests_do_not_stall(self, server):
        # headers and body written apart would hold each reply for the
        # client's delayed ACK, ~40 ms a request on a warm connection
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                reply = conn.getresponse()
                reply.read()
                assert reply.status == 200
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.5

    def test_each_reply_is_one_write(self, server, adder_aag, monkeypatch):
        writes = []
        write = socketserver._SocketWriter.write

        def recording_write(self, data):
            writes.append(bytes(data))
            return write(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", recording_write)
        query = QueryRequest(circuit=adder_aag).to_json().encode()
        exchanges = [
            ("GET", "/healthz", None, 200),
            ("GET", "/stats", None, 200),
            ("POST", "/query", query, 200),
            ("POST", "/query", b"{nope", 400),
            ("GET", "/nope", None, 404),
            ("POST", "/nope", b"{}", 404),  # answered with Connection: close
        ]
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for method, path, body, status in exchanges:
                conn.request(method, path, body=body)
                reply = conn.getresponse()
                payload = reply.read()
                assert reply.status == status
                # the whole reply (status line, headers, body) in one write
                assert len(writes) == 1, [w[:40] for w in writes]
                head, _, rest = writes.pop().partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 %d " % status)
                assert rest == payload
        finally:
            conn.close()


class TestSharedClient:
    def test_threads_share_one_client_with_one_connection_each(
        self, model, server, handler_threads, adder_bench
    ):
        comparator_bench = bench.dumps(comparator(3))
        texts = [
            adder_bench,
            rename_bench(adder_bench),
            comparator_bench,
            rename_bench(comparator_bench),
            bench.dumps(parity(5)),
        ]
        expected = [direct_forward(model, t, "bench", None) for t in texts]
        num_threads, per_thread = 4, 10
        answers = [[] for _ in range(num_threads)]
        errors = []
        client = ServeClient(url(server), timeout=30.0)

        def worker(t):
            try:
                for m in range(per_thread):
                    i = (t + m) % len(texts)
                    answers[t].append((i, client.query(texts[i], fmt="bench")))
            except Exception as exc:  # noqa: BLE001 - collected for asserts
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(num_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with client:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for per_worker in answers:
            assert len(per_worker) == per_thread
            for i, resp in per_worker:
                key, predictions = expected[i]
                assert resp.structural_hash == key
                assert resp.predictions == predictions
        # one connection, so one handler thread, per client thread
        assert len(handler_threads) == num_threads

    def test_close_ends_the_connections(self, server, handler_threads):
        with ServeClient(url(server), timeout=10.0) as client:
            assert client.health()
            assert client.health()
        # the handler saw EOF and ended, well before the read timeout
        (thread,) = handler_threads
        thread.join(timeout=5)
        assert not thread.is_alive()
        # a closed client connects again on its next request
        assert client.health()
        client.close()


class TestServerClose:
    def test_close_ends_idle_kept_alive_connections(
        self, model, handler_threads
    ):
        # without it, the handler thread of a connection the client keeps
        # open would wait out READ_TIMEOUT_S (30 s) after close()
        srv = ServeServer(InferenceService(model), host="127.0.0.1", port=0)
        loop = threading.Thread(target=srv.serve_forever, daemon=True)
        loop.start()
        with ServeClient(url(srv), timeout=10.0) as client:
            assert client.health()
            srv.shutdown()
            loop.join(timeout=10)
            srv.close()
            (thread,) = handler_threads
            thread.join(timeout=1.0)
            assert not thread.is_alive()


class TestReconnect:
    def test_idle_connection_dropped_by_the_server_is_resent_once(
        self, server, adder_aag, handler_threads, client_connects, monkeypatch
    ):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.3)
        with ServeClient(url(server), timeout=10.0) as client:
            first = client.query(adder_aag)
            client.query(adder_aag)
            assert client_connects[0] == 1
            # the server drops the idle connection after its read timeout
            handler_threads[0].join(timeout=5)
            assert not handler_threads[0].is_alive()
            again = client.query(adder_aag)
        assert again.predictions == first.predictions
        assert client_connects[0] == 2
        assert len(handler_threads) == 2

    def test_connection_close_reply_does_not_break_the_next_request(
        self, server, client_connects
    ):
        with ServeClient(url(server), timeout=10.0) as client:
            assert client.health()
            with pytest.raises(ServeClientError) as info:
                # a reply sent before the body is read ends the connection
                client._request("/nope", b"{}")
            assert (info.value.status, info.value.kind) == (404, "not_found")
            assert client.health()
            assert client.health()
        # the closed connection was replaced once, then kept
        assert client_connects[0] == 2

    def test_a_reply_that_never_comes_is_a_retryable_transport_error(self):
        # the listener accepts (via its backlog) but never answers
        with socket.create_server(("127.0.0.1", 0)) as silent:
            host, port = silent.getsockname()[:2]
            client = ServeClient(f"http://{host}:{port}", timeout=0.3)
            with pytest.raises(ServeClientError) as info:
                client.health()
            client.close()
        assert info.value.kind == "transport_error"
        assert info.value.status is None
        assert info.value.retryable


class TestClientUrl:
    def test_path_prefix_is_kept(self, server, monkeypatch):
        paths = []
        request = http.client.HTTPConnection.request

        def recording_request(conn, method, path, *args, **kwargs):
            paths.append(path)
            return request(conn, method, path, *args, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request", recording_request)
        with ServeClient(url(server) + "/api/", timeout=10.0) as client:
            with pytest.raises(ServeClientError) as info:
                client.health()
        assert paths == ["/api/healthz"]
        assert info.value.status == 404

    @pytest.mark.parametrize("bad", ["https://127.0.0.1:1", "127.0.0.1:1"])
    def test_only_plain_http_urls(self, bad):
        with pytest.raises(ValueError, match="http://"):
            ServeClient(bad)
