"""HTTP transport: kept-alive connections, one write per reply, and a
client shared across threads with one connection each."""

import contextlib
import http.client
import os
import socket
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.aig import bench
from repro.datagen.generators import comparator, parity
from repro.serve import InferenceService, ServeClient, ServeClientError, ServeServer
from repro.serve import client as client_module
from repro.serve import server as server_module
from repro.serve.protocol import HealthReply, QueryRequest

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
    connect = client_module._Connection.connect

    def counting_connect(conn):
        count[0] += 1
        connect(conn)

    monkeypatch.setattr(client_module._Connection, "connect", counting_connect)
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


@contextlib.contextmanager
def canned_server(*replies: bytes):
    """A server that answers its first connection's requests (heads
    without bodies) with ``replies`` in turn, then closes it."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as rfile:
            for reply in replies:
                while rfile.readline() not in (b"\r\n", b""):
                    pass
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        with listener:
            yield "http://%s:%d" % listener.getsockname()[:2]
    finally:
        thread.join(timeout=5)


HEALTH = HealthReply().to_json().encode() + b"\n"


class TestClientFraming:
    """A reply the client cannot frame is a transport error, never a
    misparse; interim replies are skipped."""

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"%x\r\n%s\r\n0\r\n\r\n" % (len(HEALTH), HEALTH),
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" + HEALTH,
            b"HTTP/1.1 200 OK\r\nContent-Length: +%d\r\n\r\n" % len(HEALTH)
            + HEALTH,
            b"HTTP/1.1 OK 200\r\nContent-Length: %d\r\n\r\n" % len(HEALTH)
            + HEALTH,
            b"<!DOCTYPE HTML>\n<p>Error code: 505</p>\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
            % (len(HEALTH) + 1) + HEALTH,
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n" % len(HEALTH),
        ],
        ids=["chunked", "no_length", "bad_length", "bad_status_line",
             "no_status_line", "short_body", "short_head"],
    )
    def test_unframeable_reply_is_a_transport_error(self, reply):
        with canned_server(reply) as base:
            with ServeClient(base, timeout=5.0) as client:
                with pytest.raises(ServeClientError) as info:
                    client.health()
        assert (info.value.kind, info.value.status) == ("transport_error", None)

    def test_interim_replies_are_skipped(self):
        final = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(HEALTH)
        interim = b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 102 Processing\r\n\r\n"
        with canned_server(interim + final + HEALTH, final + HEALTH) as base:
            with ServeClient(base, timeout=5.0) as client:
                assert client.health()
                # the same connection was left at the next reply's start
                assert client.health()

    def test_refusals_of_the_http_layer_are_structured(self, server):
        # a request line past 65,536 bytes: the server's 414 is an
        # ErrorReply, not an HTML page the client would quote as its detail
        with ServeClient(url(server) + "/" + "a" * 65536, timeout=10.0) as client:
            with pytest.raises(ServeClientError) as info:
                client.health()
        assert (info.value.status, info.value.kind) == (414, "protocol_error")
        assert info.value.detail == "a head line is longer than 65536 bytes"

    def test_serve_imports_neither_stdlib_http_layer(self):
        code = (
            "import sys, repro.serve\n"
            "loaded = {'http.server', 'http.client', 'email'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=60, env=env
        )


class TestClientUrl:
    def test_path_prefix_is_kept(self, server, monkeypatch):
        paths = []
        request = client_module._Connection.request

        def recording_request(conn, method, path, *args, **kwargs):
            paths.append(path)
            return request(conn, method, path, *args, **kwargs)

        monkeypatch.setattr(client_module._Connection, "request", recording_request)
        with ServeClient(url(server) + "/api/", timeout=10.0) as client:
            with pytest.raises(ServeClientError) as info:
                client.health()
        assert paths == ["/api/healthz"]
        assert info.value.status == 404

    @pytest.mark.parametrize("bad", ["https://127.0.0.1:1", "127.0.0.1:1"])
    def test_only_plain_http_urls(self, bad):
        with pytest.raises(ValueError, match="http://"):
            ServeClient(bad)
