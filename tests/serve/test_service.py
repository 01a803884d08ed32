"""InferenceService: strash-keyed reuse, batching determinism, errors."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.aig import bench
from repro.datagen.generators import comparator, parity
from repro.graphdata.dataset import PreparedBatch
from repro.graphdata.features import inference_graph
from repro.nn.tensor import no_grad
from repro.serve.batcher import BatcherClosed
from repro.serve.protocol import QueryRequest
from repro.serve.service import (
    CircuitRejected,
    InferenceService,
    canonicalize,
    parse_circuit,
)

from .conftest import rename_bench


@pytest.fixture
def service(model):
    svc = InferenceService(model, model_label="test", max_wait_ms=0.0)
    yield svc
    svc.close()


class GatedModel:
    """A model whose every pass blocks until ``release`` is set, then
    raises ``fail`` if one is given, else runs the wrapped model — so
    concurrent requests can pile up on one pass in flight."""

    def __init__(self, model):
        self.model = model
        self.num_iterations = model.num_iterations
        self.release = threading.Event()
        self.fail = None
        self.passes = 0

    def forward(self, prepared, num_iterations=None):
        self.passes += 1
        assert self.release.wait(timeout=30)
        if self.fail is not None:
            raise self.fail
        return self.model.forward(prepared, num_iterations=num_iterations)


class PassCounter:
    """A model that counts its passes per (prepared batch, iteration
    count); it keeps each batch alive so no id is reused."""

    def __init__(self, model):
        self.model = model
        self.num_iterations = model.num_iterations
        self.passes = {}
        self._batches = []

    def forward(self, prepared, num_iterations=None):
        key = (id(prepared), num_iterations)
        self.passes[key] = self.passes.get(key, 0) + 1
        self._batches.append(prepared)
        return self.model.forward(prepared, num_iterations=num_iterations)


def wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


def requests_on_passes(svc):
    """How many requests the queued or running passes will answer."""
    with svc._pass_lock:
        return sum(job.requests for job in svc._passes.values())


def start_queries(svc, requests):
    """One thread per request; returns (threads, outcomes), each outcome
    the response or the raised exception, in request order."""
    outcomes = [None] * len(requests)

    def worker(i, request):
        try:
            outcomes[i] = svc.query(request)
        except Exception as exc:  # noqa: BLE001 - collected for asserts
            outcomes[i] = exc

    threads = [
        threading.Thread(target=worker, args=(i, r))
        for i, r in enumerate(requests)
    ]
    for t in threads:
        t.start()
    return threads, outcomes


def join_all(threads):
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()


def concurrent_queries(svc, texts, fmt="aiger"):
    """Fire one query per text concurrently; responses in input order."""
    results = [None] * len(texts)
    errors = [None] * len(texts)
    barrier = threading.Barrier(len(texts))

    def worker(i, text):
        barrier.wait()
        try:
            results[i] = svc.query(QueryRequest(circuit=text, fmt=fmt))
        except Exception as exc:  # noqa: BLE001 - collected for asserts
            errors[i] = exc

    threads = [
        threading.Thread(target=worker, args=(i, t))
        for i, t in enumerate(texts)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == [None] * len(texts), errors
    return results


class TestCanonicalisation:
    def test_renamed_bench_circuits_share_a_key(self, adder_bench):
        key1, _ = canonicalize(parse_circuit(adder_bench, "bench"))
        key2, _ = canonicalize(
            parse_circuit(rename_bench(adder_bench), "bench")
        )
        assert key1 == key2

    def test_distinct_circuits_get_distinct_keys(
        self, adder_aag, comparator_aag
    ):
        key1, _ = canonicalize(parse_circuit(adder_aag, "aiger"))
        key2, _ = canonicalize(parse_circuit(comparator_aag, "aiger"))
        assert key1 != key2

    def test_unknown_format_rejected(self):
        with pytest.raises(CircuitRejected, match="format"):
            parse_circuit("x", "vhdl")

    def test_all_constant_circuit_rejected(self, service):
        with pytest.raises(CircuitRejected, match="constant"):
            service.query(QueryRequest(circuit="aag 0 0 0 1 0\n0\n"))


class TestCacheIntegration:
    def test_repeat_query_hits_and_matches(self, service, adder_aag):
        first = service.query(QueryRequest(circuit=adder_aag))
        second = service.query(QueryRequest(circuit=adder_aag))
        assert not first.cache_hit
        assert second.cache_hit
        assert second.predictions == first.predictions
        assert second.structural_hash == first.structural_hash

    def test_renamed_circuit_hits(self, service, adder_bench):
        first = service.query(QueryRequest(circuit=adder_bench, fmt="bench"))
        renamed = service.query(
            QueryRequest(circuit=rename_bench(adder_bench), fmt="bench")
        )
        assert renamed.cache_hit
        assert renamed.predictions == first.predictions

    def test_predictions_cover_every_node(self, service, adder_aag):
        resp = service.query(QueryRequest(circuit=adder_aag))
        assert len(resp.predictions) == resp.num_nodes
        assert resp.num_nodes > resp.num_pis + resp.num_ands  # NOT nodes too
        assert all(0.0 <= p <= 1.0 for p in resp.predictions)


class TestBatchingDeterminism:
    def test_concurrent_bitwise_identical_to_serial(
        self, model, adder_aag, comparator_aag
    ):
        serial = InferenceService(model, max_wait_ms=0.0)
        try:
            ref_a = serial.query(QueryRequest(circuit=adder_aag))
            ref_c = serial.query(QueryRequest(circuit=comparator_aag))
        finally:
            serial.close()

        svc = InferenceService(model, max_wait_ms=100.0, max_batch_size=32)
        try:
            texts = [adder_aag, comparator_aag] * 4
            responses = concurrent_queries(svc, texts)
        finally:
            svc.close()
        for text, resp in zip(texts, responses):
            ref = ref_a if text is adder_aag else ref_c
            assert resp.predictions == ref.predictions  # bitwise: floats equal
        # requests for one structure shared its pass
        assert max(r.coalesced for r in responses) >= 2

    def test_merged_mode_close_to_serial(
        self, model, adder_aag, comparator_aag
    ):
        serial = InferenceService(model, max_wait_ms=0.0)
        try:
            ref_a = serial.query(QueryRequest(circuit=adder_aag))
            ref_c = serial.query(QueryRequest(circuit=comparator_aag))
        finally:
            serial.close()

        svc = InferenceService(
            model, max_wait_ms=100.0, max_batch_size=32, batch_mode="merged"
        )
        try:
            texts = [adder_aag, comparator_aag] * 3
            responses = concurrent_queries(svc, texts)
            # a repeat gets the stored merged part, exactly as first answered
            repeats = [svc.query(QueryRequest(circuit=t)) for t in texts[:2]]
            stats = svc.stats()
        finally:
            svc.close()
        for text, resp in zip(texts, responses):
            ref = ref_a if text is adder_aag else ref_c
            diff = np.max(
                np.abs(
                    np.asarray(resp.predictions) - np.asarray(ref.predictions)
                )
            )
            assert diff < 1e-6
        for resp, again in zip(responses, repeats):
            assert again.predictions == resp.predictions
        # one pass per structure: the other four concurrent requests and
        # both repeats are answered without one of their own
        assert (stats.batched_requests, stats.memo_hits) == (2, 6)

    def test_unknown_batch_mode_rejected(self, model):
        with pytest.raises(ValueError, match="batch_mode"):
            InferenceService(model, batch_mode="magic")


class TestIterationOverride:
    def test_override_changes_predictions(self, service, adder_aag):
        default = service.query(QueryRequest(circuit=adder_aag))
        deep = service.query(
            QueryRequest(circuit=adder_aag, num_iterations=8)
        )
        assert deep.predictions != default.predictions

    def test_override_groups_separately_from_default(self, model, adder_aag):
        """Same circuit at different T must not share one fused pass."""
        svc = InferenceService(model, max_wait_ms=100.0, max_batch_size=8)
        try:
            serial = InferenceService(model, max_wait_ms=0.0)
            try:
                ref = serial.query(
                    QueryRequest(circuit=adder_aag, num_iterations=5)
                )
            finally:
                serial.close()

            results = [None, None]
            barrier = threading.Barrier(2)

            def q(i, iters):
                barrier.wait()
                results[i] = svc.query(
                    QueryRequest(circuit=adder_aag, num_iterations=iters)
                )

            threads = [
                threading.Thread(target=q, args=(0, 5)),
                threading.Thread(target=q, args=(1, 2)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results[0].predictions == ref.predictions
            assert results[1].predictions != ref.predictions
        finally:
            svc.close()

    def test_non_recurrent_model_rejects_override(self, adder_aag):
        from repro.models.baselines import GCN

        gcn = GCN(3, 8, 2, "conv_sum", np.random.default_rng(0))
        svc = InferenceService(gcn, model_label="gcn", max_wait_ms=0.0)
        try:
            svc.query(QueryRequest(circuit=adder_aag))  # plain query fine
            with pytest.raises(CircuitRejected, match="not recurrent"):
                svc.query(
                    QueryRequest(circuit=adder_aag, num_iterations=4)
                )
        finally:
            svc.close()


class TestStats:
    def test_counters_track_requests_and_cache(self, service, adder_aag):
        service.query(QueryRequest(circuit=adder_aag))
        service.query(QueryRequest(circuit=adder_aag))
        with pytest.raises(Exception):
            service.query(QueryRequest(circuit="aag broken"))
        stats = service.stats()
        assert stats.requests == 3
        assert stats.errors == 1
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.cache_entries == 1
        # the repeat is answered from the entry's stored predictions
        assert stats.batches == 1
        assert stats.memo_hits == 1
        assert stats.batch_mode == "exact"
        assert stats.model == "test"
        assert stats.uptime_s >= 0.0


def direct_forward(model, text, fmt, num_iterations):
    """Key and predictions of a plain single-circuit forward of ``text``."""
    key, canonical = canonicalize(parse_circuit(text, fmt))
    with no_grad():
        out = model.forward(
            PreparedBatch(inference_graph(canonical)),
            num_iterations=num_iterations,
        )
    return key, tuple(float(p) for p in np.asarray(out.data, dtype=np.float32))


class TestPredictionMemo:
    @pytest.mark.parametrize("iters", [None, 3])
    def test_hit_is_bitwise_a_fresh_services_answer(
        self, model, service, adder_aag, iters
    ):
        first = service.query(QueryRequest(circuit=adder_aag, num_iterations=iters))
        hit = service.query(QueryRequest(circuit=adder_aag, num_iterations=iters))
        fresh = InferenceService(model, max_wait_ms=0.0)
        try:
            ref = fresh.query(QueryRequest(circuit=adder_aag, num_iterations=iters))
        finally:
            fresh.close()
        assert hit.predictions == ref.predictions == first.predictions
        assert hit.cache_hit and hit.coalesced == 1
        stats = service.stats()
        assert (stats.memo_hits, stats.batches, stats.batched_requests) == (1, 1, 1)
        entry = service.cache.peek(hit.structural_hash)
        assert list(entry.predictions) == [iters]
        assert not entry.predictions[iters].flags.writeable

    def test_iteration_counts_take_separate_slots(self, service, adder_aag):
        default = service.query(QueryRequest(circuit=adder_aag))
        deep = service.query(QueryRequest(circuit=adder_aag, num_iterations=3))
        assert deep.predictions != default.predictions
        assert service.stats().memo_hits == 0
        again = service.query(QueryRequest(circuit=adder_aag, num_iterations=3))
        assert again.predictions == deep.predictions
        assert service.stats().memo_hits == 1

    def test_eviction_drops_the_stored_predictions(
        self, model, adder_aag, comparator_aag
    ):
        svc = InferenceService(model, cache_size=1, max_wait_ms=0.0)
        try:
            first = svc.query(QueryRequest(circuit=adder_aag))
            svc.query(QueryRequest(circuit=comparator_aag))  # evicts the adder
            rebuilt = svc.query(QueryRequest(circuit=adder_aag))
            stats = svc.stats()
        finally:
            svc.close()
        assert not rebuilt.cache_hit
        assert rebuilt.predictions == first.predictions
        assert (stats.memo_hits, stats.batches) == (0, 3)

    def test_closed_service_refuses_a_memoized_structure(
        self, model, adder_aag
    ):
        svc = InferenceService(model, max_wait_ms=0.0)
        svc.query(QueryRequest(circuit=adder_aag))
        svc.close()
        with pytest.raises(BatcherClosed):
            svc.query(QueryRequest(circuit=adder_aag))
        stats = svc.stats()
        assert (stats.errors, stats.memo_hits) == (1, 0)

    def test_explicit_default_iterations_share_a_batch_group(
        self, model, adder_aag
    ):
        """``num_iterations`` equal to the model's own count is the plain
        query: the second request waits on the first one's pass, and the
        entry gets one memo slot."""
        gated = GatedModel(model)
        svc = InferenceService(gated, max_wait_ms=0.0)
        threads, results = start_queries(svc, [
            QueryRequest(circuit=adder_aag),
            QueryRequest(circuit=adder_aag, num_iterations=model.num_iterations),
        ])
        try:
            wait_until(lambda: requests_on_passes(svc) == 2)
            gated.release.set()
            join_all(threads)
            stats = svc.stats()
            entry = svc.cache.peek(results[0].structural_hash)
        finally:
            gated.release.set()
            svc.close()
        assert (gated.passes, stats.batches, stats.batched_requests) == (1, 1, 1)
        assert stats.memo_hits == 1
        assert [r.coalesced for r in results] == [2, 2]
        assert results[0].predictions == results[1].predictions
        assert list(entry.predictions) == [None]


class TestSingleFlight:
    """A request for a structure whose pass is queued or running waits
    for that pass instead of submitting its own."""

    N = 6

    def test_one_pass_answers_every_concurrent_request(
        self, model, adder_bench
    ):
        texts = [adder_bench] + [
            rename_bench(adder_bench, f"r{i}_") for i in range(self.N - 1)
        ]
        gated = GatedModel(model)
        svc = InferenceService(gated, max_wait_ms=0.0)
        threads, responses = start_queries(
            svc, [QueryRequest(circuit=t, fmt="bench") for t in texts]
        )
        try:
            wait_until(lambda: requests_on_passes(svc) == self.N)
            gated.release.set()
            join_all(threads)
            stats = svc.stats()
            entry = svc.cache.peek(responses[0].structural_hash)
        finally:
            gated.release.set()
            svc.close()
        key, preds = direct_forward(model, adder_bench, "bench", None)
        for resp in responses:
            assert resp.structural_hash == key
            assert resp.predictions == preds
            assert resp.coalesced == self.N
        assert gated.passes == 1
        assert (stats.batches, stats.batched_requests) == (1, 1)
        assert stats.memo_hits == self.N - 1
        assert stats.requests == self.N == stats.memo_hits + stats.batched_requests
        assert (stats.errors, stats.cache_misses) == (0, 1)
        assert list(entry.predictions) == [None]
        assert svc._passes == {}

    def test_failed_pass_fails_its_waiters_and_the_next_query_retries(
        self, model, adder_aag
    ):
        gated = GatedModel(model)
        gated.fail = RuntimeError("pass failed")
        svc = InferenceService(gated, max_wait_ms=0.0)
        threads, outcomes = start_queries(
            svc, [QueryRequest(circuit=adder_aag)] * self.N
        )
        try:
            wait_until(lambda: requests_on_passes(svc) == self.N)
            gated.release.set()
            join_all(threads)
            assert gated.passes == 1
            assert all(isinstance(o, RuntimeError) for o in outcomes)
            assert svc._passes == {}
            gated.fail = None
            retry = svc.query(QueryRequest(circuit=adder_aag))
            stats = svc.stats()
        finally:
            gated.release.set()
            svc.close()
        assert gated.passes == 2
        assert retry.predictions == direct_forward(model, adder_aag, "aiger", None)[1]
        assert retry.coalesced == 1
        assert (stats.requests, stats.errors) == (self.N + 1, self.N)
        assert (stats.batched_requests, stats.memo_hits) == (2, 0)

    def test_close_fails_the_waiters(self, model, adder_aag):
        gated = GatedModel(model)
        svc = InferenceService(gated, max_wait_ms=0.0)
        threads, outcomes = start_queries(
            svc, [QueryRequest(circuit=adder_aag)] * self.N
        )
        closer = threading.Thread(target=svc.close)
        try:
            wait_until(lambda: requests_on_passes(svc) == self.N)
            closer.start()
            # the waiters fail while the pass is still running
            wait_until(
                lambda: sum(isinstance(o, BatcherClosed) for o in outcomes)
                == self.N - 1
            )
            assert gated.passes == 1
        finally:
            gated.release.set()
            join_all(threads)
            closer.join(timeout=30)
        answered = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(answered) == 1  # the submitter: the batcher finishes it
        assert answered[0].coalesced == self.N
        with pytest.raises(BatcherClosed):
            svc.query(QueryRequest(circuit=adder_aag))
        stats = svc.stats()
        assert (stats.errors, stats.batched_requests) == (self.N, 1)


class TestMemoStress:
    def test_concurrent_queries_with_evictions_match_serial(
        self, model, adder_bench
    ):
        """Eight threads over three structures through a two-entry cache:
        evictions and rebuilds race the memo's reads and writes.  The
        adder is queried most, as a popular structure would be, so it
        stays cached long enough to be answered from the memo."""
        comparator_bench = bench.dumps(comparator(3))
        parity_bench = bench.dumps(parity(5))
        texts = [
            (adder_bench, "bench"),
            (rename_bench(adder_bench), "bench"),
            (rename_bench(adder_bench, "w_"), "bench"),
            (comparator_bench, "bench"),
            (rename_bench(comparator_bench), "bench"),
            (parity_bench, "bench"),
            (rename_bench(parity_bench), "bench"),
        ]
        weights = np.array([2, 2, 2, 2, 2, 3, 3]) / 16
        overrides = (None, model.num_iterations, 3)
        reference = {
            (i, iters): direct_forward(model, text, fmt, iters)
            for i, (text, fmt) in enumerate(texts)
            for iters in overrides
        }
        assert len({key for key, _ in reference.values()}) == 3

        num_threads, per_thread = 8, 20
        rng = np.random.default_rng(7)
        plans = [
            [
                (
                    int(rng.choice(len(texts), p=weights)),
                    overrides[int(rng.integers(len(overrides)))],
                )
                for _ in range(per_thread)
            ]
            for _ in range(num_threads)
        ]
        answers = [[] for _ in range(num_threads)]
        errors = []
        counted = PassCounter(model)
        svc = InferenceService(counted, cache_size=2, max_wait_ms=0.5)

        def worker(t):
            try:
                for i, iters in plans[t]:
                    text, fmt = texts[i]
                    resp = svc.query(
                        QueryRequest(circuit=text, fmt=fmt, num_iterations=iters)
                    )
                    answers[t].append((i, iters, resp))
            except Exception as exc:  # noqa: BLE001 - collected for asserts
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(num_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        assert errors == []
        for t in range(num_threads):
            assert len(answers[t]) == per_thread
            for i, iters, resp in answers[t]:
                key, preds = reference[i, iters]
                assert resp.structural_hash == key
                assert resp.predictions == preds
        stats = svc.stats()
        assert stats.errors == 0
        assert stats.requests == num_threads * per_thread
        assert stats.requests == stats.memo_hits + stats.batched_requests
        assert stats.memo_hits > 0
        assert stats.cache_evictions > 0
        # single flight: no cache entry ran two passes for one iteration
        # count, however the requests for it raced
        assert max(counted.passes.values()) == 1
        assert sum(counted.passes.values()) == stats.batched_requests
