"""HTTP end-to-end: status mapping, stats observability, clean shutdown."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    InferenceService,
    ServeClient,
    ServeClientError,
    ServeServer,
)
from repro.serve.protocol import HealthReply, parse_message

from .conftest import rename_bench


@pytest.fixture(scope="module")
def server(model):
    service = InferenceService(model, model_label="e2e", max_wait_ms=1.0)
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
        service = InferenceService(model, max_wait_ms=0.0)
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
        service = InferenceService(model, max_wait_ms=0.0)
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
