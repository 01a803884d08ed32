"""Overload shedding end to end: 503 + Retry-After, client backoff."""

import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    BatcherSaturated,
    InferenceService,
    ServeClient,
    ServeClientError,
    ServeServer,
)
from repro.serve import client as client_module
from repro.serve.protocol import parse_message


@pytest.fixture
def saturated_server(model):
    """A live server whose batcher rejects everything as saturated."""
    service = InferenceService(model, max_queue=1)
    srv = ServeServer(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    real_submit = service.batcher.submit
    service.batcher.submit = lambda job: (_ for _ in ()).throw(
        BatcherSaturated("queue is full (1/1 jobs in flight)")
    )
    try:
        yield srv, service, real_submit
    finally:
        srv.shutdown()
        thread.join(timeout=10)
        srv.close()


class TestSaturatedServer:
    def test_maps_to_503_with_retry_after(self, saturated_server, adder_aag):
        srv, _, _ = saturated_server
        client = ServeClient(f"http://{srv.host}:{srv.port}", timeout=10.0)
        with pytest.raises(ServeClientError) as info:
            client.query(adder_aag)
        err = info.value
        assert err.status == 503
        assert err.kind == "saturated"
        assert err.retry_after == 1.0
        assert err.retryable

    def test_retry_after_header_on_the_wire(self, saturated_server, adder_aag):
        from repro.serve.protocol import QueryRequest

        srv, _, _ = saturated_server
        req = urllib.request.Request(
            f"http://{srv.host}:{srv.port}/query",
            data=QueryRequest(circuit=adder_aag).to_json().encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 503
        assert info.value.headers.get("Retry-After") == "1"
        reply = parse_message(info.value.read().decode())
        assert reply.error == "saturated"

    def test_retry_after_follows_the_length(self, saturated_server, adder_aag):
        from repro.serve.protocol import QueryRequest

        srv, _, _ = saturated_server
        body = QueryRequest(circuit=adder_aag).to_json().encode()
        with socket.create_connection((srv.host, srv.port), 5) as sock:
            with sock.makefile("rb") as rfile:
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                    % len(body) + body
                )
                status_line = rfile.readline()
                lines = [rfile.readline() for _ in range(5)]
                assert rfile.readline() == b"\r\n"
        assert status_line == b"HTTP/1.1 503 Service Unavailable\r\n"
        assert [line.split(b":")[0] for line in lines] == [
            b"Server", b"Date", b"Content-Type", b"Content-Length", b"Retry-After"
        ]
        assert lines[-1] == b"Retry-After: 1\r\n"

    def test_client_retries_through_transient_saturation(
        self, saturated_server, adder_aag, monkeypatch
    ):
        # first attempt bounces off the full queue; the saturation then
        # clears, and a retrying client succeeds without caller-side code
        srv, service, real_submit = saturated_server
        waits = []
        monkeypatch.setattr(
            client_module.time, "sleep", lambda s: waits.append(s)
        )
        attempts = {"n": 0}

        def flaky_submit(job):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise BatcherSaturated("momentarily full")
            return real_submit(job)

        service.batcher.submit = flaky_submit
        client = ServeClient(
            f"http://{srv.host}:{srv.port}", timeout=10.0, retries=2
        )
        resp = client.query(adder_aag)
        assert len(resp.predictions) == resp.num_nodes
        # one backoff wait, raised to the server's Retry-After hint
        assert waits == [1.0]

    def test_no_retries_raises_immediately(self, saturated_server, adder_aag):
        srv, _, _ = saturated_server
        client = ServeClient(f"http://{srv.host}:{srv.port}", timeout=10.0)
        assert client.retries == 0
        with pytest.raises(ServeClientError):
            client.query(adder_aag)


class TestClientBackoff:
    def make_client(self, fail_times, status=503, retry_after=None):
        client = ServeClient(
            "http://unused.invalid",
            retries=3,
            backoff_base=0.25,
            backoff_cap=5.0,
        )
        state = {"n": 0}

        def fake_request_once(path, body=None):
            state["n"] += 1
            if state["n"] <= fail_times:
                raise ServeClientError(
                    "transient", status=status, retry_after=retry_after
                )
            from repro.serve.protocol import HealthReply

            return HealthReply()

        client._request_once = fake_request_once
        return client, state

    def test_exponential_backoff_waits(self, monkeypatch):
        waits = []
        monkeypatch.setattr(
            client_module.time, "sleep", lambda s: waits.append(s)
        )
        client, state = self.make_client(fail_times=3)
        assert client.health()
        assert state["n"] == 4
        assert waits == [0.25, 0.5, 1.0]

    def test_retry_after_raises_the_wait(self, monkeypatch):
        waits = []
        monkeypatch.setattr(
            client_module.time, "sleep", lambda s: waits.append(s)
        )
        client, _ = self.make_client(fail_times=1, retry_after=2.5)
        assert client.health()
        assert waits == [2.5]

    def test_non_retryable_status_fails_fast(self, monkeypatch):
        monkeypatch.setattr(
            client_module.time,
            "sleep",
            lambda s: pytest.fail("must not sleep for a 400"),
        )
        client, state = self.make_client(fail_times=5, status=400)
        with pytest.raises(ServeClientError):
            client.health()
        assert state["n"] == 1

    def test_attempts_exhausted_reraises(self, monkeypatch):
        monkeypatch.setattr(client_module.time, "sleep", lambda s: None)
        client, state = self.make_client(fail_times=10)
        with pytest.raises(ServeClientError):
            client.health()
        assert state["n"] == 4  # 1 try + 3 retries

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ServeClient("http://unused.invalid", retries=-1)


class TestStatsExposure:
    def test_stats_carry_queue_bound_and_rejections(self, model):
        service = InferenceService(model, max_queue=7)
        srv = ServeServer(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(f"http://{srv.host}:{srv.port}", timeout=10.0)
            stats = client.stats()
            assert stats.max_queue == 7
            assert stats.rejected == 0
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.close()
