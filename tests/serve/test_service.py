"""InferenceService: strash-keyed reuse, batching determinism, errors."""

import dataclasses
import json
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.aig import bench
from repro.aig.errors import CircuitParseError
from repro.datagen.generators import comparator, parity
from repro.serve import service as service_module
from repro.serve.batcher import BatcherClosed
from repro.serve.protocol import QueryRequest, QueryResponse
from repro.serve.service import (
    TEXT_MEMO_PER_ENTRY,
    CircuitRejected,
    InferenceService,
    canonicalize,
    parse_circuit,
)

from .conftest import direct_forward, rename_bench


@pytest.fixture
def service(model):
    svc = InferenceService(model, model_label="test")
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


class NonFiniteModel:
    """A recurrent stand-in whose every pass predicts NaN, +inf, -inf
    and 0.5 in turn, over every node."""

    num_iterations = 2

    def forward(self, prepared, num_iterations=None):
        cycle = np.array([np.nan, np.inf, -np.inf, 0.5], dtype=np.float32)
        return SimpleNamespace(data=np.resize(cycle, prepared.num_nodes))


def generic_json(resp):
    """The reply a response must encode to: the whole payload through
    ``json.dumps``, every prediction formatted there."""
    return json.dumps(resp.to_payload(), sort_keys=True)


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


@pytest.fixture
def parses(monkeypatch):
    """The ``(text, fmt)`` of every ``parse_circuit`` call the service makes."""
    calls = []

    def counting(text, fmt):
        calls.append((text, fmt))
        return parse_circuit(text, fmt)

    monkeypatch.setattr(service_module, "parse_circuit", counting)
    return calls


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

    @pytest.mark.parametrize("repeat", [False, True])
    def test_response_json_is_the_stored_float32s_widened(
        self, service, adder_aag, repeat
    ):
        """Predictions go out as the doubles ``float(p)`` gives for each
        stored float32, so the reply is byte-identical to one built by
        converting element by element, for a pass and for a hit."""
        resp = service.query(QueryRequest(circuit=adder_aag))
        if repeat:
            resp = service.query(QueryRequest(circuit=adder_aag))
        stored = service.cache.peek(resp.structural_hash).predictions[None]
        widened = tuple(float(p) for p in stored)
        assert [p.hex() for p in resp.predictions] == [p.hex() for p in widened]
        reference = dataclasses.replace(resp, predictions=widened)
        assert resp.to_json().encode() == reference.to_json().encode()


class TestBatchingDeterminism:
    def test_concurrent_bitwise_identical_to_serial(
        self, model, adder_aag, comparator_aag
    ):
        serial = InferenceService(model)
        try:
            ref_a = serial.query(QueryRequest(circuit=adder_aag))
            ref_c = serial.query(QueryRequest(circuit=comparator_aag))
        finally:
            serial.close()

        # hold the first pass until every request is on a pass: one
        # running, one queued behind it
        gated = GatedModel(model)
        svc = InferenceService(gated)
        texts = [adder_aag, comparator_aag] * 4
        threads, responses = start_queries(
            svc, [QueryRequest(circuit=t) for t in texts]
        )
        try:
            wait_until(lambda: requests_on_passes(svc) == len(texts))
            gated.release.set()
            join_all(threads)
        finally:
            gated.release.set()
            svc.close()
        assert not any(isinstance(r, Exception) for r in responses), responses
        for text, resp in zip(texts, responses):
            ref = ref_a if text is adder_aag else ref_c
            assert resp.predictions == ref.predictions  # bitwise: floats equal
        # requests for one structure shared its pass
        assert max(r.coalesced for r in responses) >= 2
        assert gated.passes == 2


class TestIterationOverride:
    def test_override_changes_predictions(self, service, adder_aag):
        default = service.query(QueryRequest(circuit=adder_aag))
        deep = service.query(
            QueryRequest(circuit=adder_aag, num_iterations=8)
        )
        assert deep.predictions != default.predictions

    def test_override_groups_separately_from_default(self, model, adder_aag):
        """Same circuit at different T must not share one pass."""
        serial = InferenceService(model)
        try:
            ref = serial.query(QueryRequest(circuit=adder_aag, num_iterations=5))
        finally:
            serial.close()

        gated = GatedModel(model)
        svc = InferenceService(gated)
        threads, results = start_queries(svc, [
            QueryRequest(circuit=adder_aag, num_iterations=5),
            QueryRequest(circuit=adder_aag, num_iterations=2),
        ])
        try:
            # both requests are on a pass before either pass runs
            wait_until(lambda: requests_on_passes(svc) == 2)
            gated.release.set()
            join_all(threads)
        finally:
            gated.release.set()
            svc.close()
        assert results[0].predictions == ref.predictions
        assert results[1].predictions != ref.predictions
        assert gated.passes == 2

    def test_non_recurrent_model_rejects_override(self, adder_aag):
        from repro.models.baselines import GCN

        gcn = GCN(3, 8, 2, "conv_sum", np.random.default_rng(0))
        svc = InferenceService(gcn, model_label="gcn")
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
        assert stats.batches == stats.batched_requests == 1
        assert stats.memo_hits == 1
        assert stats.model == "test"
        assert stats.uptime_s >= 0.0


class TestPredictionMemo:
    @pytest.mark.parametrize("iters", [None, 3])
    def test_hit_is_bitwise_a_fresh_services_answer(
        self, model, service, adder_aag, iters
    ):
        first = service.query(QueryRequest(circuit=adder_aag, num_iterations=iters))
        hit = service.query(QueryRequest(circuit=adder_aag, num_iterations=iters))
        fresh = InferenceService(model)
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
        svc = InferenceService(model, cache_size=1)
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
        svc = InferenceService(model)
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
        svc = InferenceService(gated)
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


class TestTextMemo:
    """A byte-identical resubmission is answered without parsing."""

    def test_same_text_parses_once(self, service, adder_aag, parses):
        first = service.query(QueryRequest(circuit=adder_aag))
        again = [service.query(QueryRequest(circuit=adder_aag)) for _ in range(2)]
        assert len(parses) == 1
        assert all(r.cache_hit for r in again)
        assert all(r.predictions == first.predictions for r in again)
        assert all(r.structural_hash == first.structural_hash for r in again)
        stats = service.stats()
        assert (stats.text_hits, stats.cache_hits, stats.cache_misses) == (2, 2, 1)
        assert stats.memo_hits == 2

    def test_renamed_copy_parses(self, service, adder_bench, parses):
        first = service.query(QueryRequest(circuit=adder_bench, fmt="bench"))
        renamed = service.query(
            QueryRequest(circuit=rename_bench(adder_bench), fmt="bench")
        )
        assert len(parses) == 2
        assert renamed.cache_hit
        assert renamed.predictions == first.predictions
        stats = service.stats()
        assert (stats.text_hits, stats.cache_hits) == (0, 1)

    def test_another_format_does_not_share_a_slot(
        self, service, adder_aag, parses
    ):
        service.query(QueryRequest(circuit=adder_aag, fmt="aiger"))
        with pytest.raises(CircuitParseError):
            service.query(QueryRequest(circuit=adder_aag, fmt="bench"))
        assert [fmt for _, fmt in parses] == ["aiger", "bench"]
        assert service.stats().text_hits == 0

    def test_evicted_entry_parses_and_rebuilds(
        self, model, adder_aag, comparator_aag, parses
    ):
        svc = InferenceService(model, cache_size=1)
        try:
            first = svc.query(QueryRequest(circuit=adder_aag))
            svc.query(QueryRequest(circuit=comparator_aag))  # evicts the adder
            before = svc.stats()
            rebuilt = svc.query(QueryRequest(circuit=adder_aag))
            after = svc.stats()
        finally:
            svc.close()
        assert [text for text, _ in parses] == [adder_aag, comparator_aag, adder_aag]
        assert not rebuilt.cache_hit
        assert rebuilt.predictions == first.predictions
        # the digest's lookup found no entry and counted nothing; the
        # rebuild counted the one miss
        assert after.cache_misses - before.cache_misses == 1
        assert after.cache_hits == before.cache_hits == 0
        assert after.text_hits == 0
        assert after.batches == 3

    @pytest.mark.parametrize("text, error", [
        ("aag broken\n", CircuitParseError),
        ("aag 0 0 0 1 0\n0\n", CircuitRejected),  # every output constant
    ])
    def test_refused_text_is_parsed_again(self, service, parses, text, error):
        messages = []
        for _ in range(2):
            with pytest.raises(error) as info:
                service.query(QueryRequest(circuit=text))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert len(parses) == 2
        assert len(service.text_memo) == 0
        stats = service.stats()
        assert (stats.errors, stats.text_hits, stats.cache_misses) == (2, 0, 0)

    def test_lone_surrogates_reach_the_parser(self, service, parses):
        """Any string JSON can carry gets a digest: a lone surrogate the
        parser rejects is the parser's error, and one in a comment of a
        valid circuit is remembered like any other text."""
        with pytest.raises(CircuitParseError, match="line 1: cannot parse"):
            service.query(QueryRequest(circuit="\ud800", fmt="bench"))
        text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n# \ud800\ny = AND(a, b)\n"
        first = service.query(QueryRequest(circuit=text, fmt="bench"))
        again = service.query(QueryRequest(circuit=text, fmt="bench"))
        assert again.predictions == first.predictions
        assert len(parses) == 2
        assert service.stats().text_hits == 1

    def test_memo_never_exceeds_its_bound(self, model, adder_bench, parses):
        svc = InferenceService(model, cache_size=1)
        bound = TEXT_MEMO_PER_ENTRY
        try:
            assert svc.text_memo.capacity == bound
            texts = [rename_bench(adder_bench, f"n{i}_") for i in range(3 * bound)]
            for text in texts:
                svc.query(QueryRequest(circuit=text, fmt="bench"))
                assert len(svc.text_memo) <= bound
            assert len(svc.text_memo) == bound
            # the most recent texts are remembered, the oldest aged out
            svc.query(QueryRequest(circuit=texts[-1], fmt="bench"))
            svc.query(QueryRequest(circuit=texts[0], fmt="bench"))
            stats = svc.stats()
        finally:
            svc.close()
        assert len(parses) == 3 * bound + 1
        assert stats.text_hits == 1


@pytest.fixture
def encodes(monkeypatch):
    """The values of every ``QueryResponse.encode_predictions`` call, by
    the service's pass or by a reply's ``to_json``."""
    calls = []
    encode = QueryResponse.encode_predictions

    def counting(predictions):
        calls.append(tuple(predictions))
        return encode(predictions)

    monkeypatch.setattr(QueryResponse, "encode_predictions", staticmethod(counting))
    return calls


class TestEncodedAnswer:
    """A reply splices the JSON its pass encoded from the stored array,
    and is byte for byte the generic encoding of its payload."""

    @pytest.mark.parametrize("iters", [None, 3])
    def test_miss_and_hits_encode_like_the_payload(
        self, model, service, adder_bench, iters
    ):
        miss = service.query(
            QueryRequest(circuit=adder_bench, fmt="bench", num_iterations=iters)
        )
        text_hit = service.query(
            QueryRequest(circuit=adder_bench, fmt="bench", num_iterations=iters)
        )
        stored_hit = service.query(QueryRequest(
            circuit=rename_bench(adder_bench), fmt="bench", num_iterations=iters
        ))
        stats = service.stats()
        assert (stats.cache_misses, stats.text_hits, stats.memo_hits) == (1, 1, 2)
        _, preds = direct_forward(model, adder_bench, "bench", iters)
        for resp in (miss, text_hit, stored_hit):
            assert resp._predictions_json is not None
            assert resp.to_json() == generic_json(resp)
            assert resp.predictions == preds

    @pytest.mark.parametrize("iters", [None, 3])
    def test_coalesced_waiters_encode_like_the_payload(
        self, model, adder_bench, iters
    ):
        texts = [adder_bench, adder_bench, rename_bench(adder_bench)]
        gated = GatedModel(model)
        svc = InferenceService(gated)
        threads, responses = start_queries(svc, [
            QueryRequest(circuit=t, fmt="bench", num_iterations=iters)
            for t in texts
        ])
        try:
            wait_until(lambda: requests_on_passes(svc) == len(texts))
            gated.release.set()
            join_all(threads)
        finally:
            gated.release.set()
            svc.close()
        _, preds = direct_forward(model, adder_bench, "bench", iters)
        assert gated.passes == 1
        for resp in responses:
            assert resp.coalesced == len(texts)
            assert resp.to_json() == generic_json(resp)
            assert resp.predictions == preds

    def test_non_finite_predictions_encode_like_the_payload(self, adder_aag):
        svc = InferenceService(NonFiniteModel())
        try:
            replies = [svc.query(QueryRequest(circuit=adder_aag)) for _ in range(2)]
        finally:
            svc.close()
        for resp in replies:
            text = resp.to_json()
            assert text == generic_json(resp)
            assert '"predictions": [NaN, Infinity, -Infinity, 0.5, NaN' in text

    @pytest.mark.parametrize("label", [
        'say "hi"',
        "back\\slash",
        "DeepGate(dim=64) — naïve ✓",
        '"predictions": null',
    ])
    def test_model_label_is_encoded_around_the_predictions(
        self, model, adder_aag, label
    ):
        svc = InferenceService(model, model_label=label)
        try:
            replies = [svc.query(QueryRequest(circuit=adder_aag)) for _ in range(2)]
        finally:
            svc.close()
        for resp in replies:
            assert resp.to_json() == generic_json(resp)
            payload = json.loads(resp.to_json())
            assert payload["model"] == label
            assert tuple(payload["predictions"]) == resp.predictions

    def test_a_copy_encodes_its_own_predictions(self, service, adder_aag):
        resp = service.query(QueryRequest(circuit=adder_aag))
        copy = dataclasses.replace(resp)
        assert copy._predictions_json is None
        assert copy == resp and hash(copy) == hash(resp)
        assert copy.to_json() == resp.to_json() == generic_json(resp)
        assert "_predictions_json" not in resp.to_payload()

    def test_hits_encode_the_predictions_once(
        self, service, adder_bench, encodes
    ):
        texts = [adder_bench, rename_bench(adder_bench)] * 3
        replies = [
            service.query(QueryRequest(circuit=t, fmt="bench")) for t in texts
        ]
        for resp in replies:
            resp.to_json()
        assert encodes == [replies[0].predictions]
        deep = service.query(
            QueryRequest(circuit=adder_bench, fmt="bench", num_iterations=3)
        )
        deep.to_json()
        assert encodes == [replies[0].predictions, deep.predictions]

    def test_an_evicted_answer_is_encoded_again_once(
        self, model, adder_aag, comparator_aag, encodes
    ):
        svc = InferenceService(model, cache_size=1)
        try:
            replies = [
                svc.query(QueryRequest(circuit=text))
                for text in (adder_aag, comparator_aag, adder_aag, adder_aag)
            ]
        finally:
            svc.close()
        for resp in replies:
            assert resp.to_json() == generic_json(resp)
        adder, comparator = replies[0].predictions, replies[1].predictions
        assert adder != comparator
        assert encodes == [adder, comparator, adder]
        assert [r.cache_hit for r in replies] == [False, False, False, True]

    def test_entry_keeps_the_canonical_counts(self, service, adder_aag):
        resp = service.query(QueryRequest(circuit=adder_aag))
        _, canonical = canonicalize(parse_circuit(adder_aag, "aiger"))
        entry = service.cache.peek(resp.structural_hash)
        assert (entry.num_pis, entry.num_ands) == (
            canonical.num_pis, canonical.num_ands
        )
        assert (resp.num_pis, resp.num_ands) == (entry.num_pis, entry.num_ands)
        assert not hasattr(entry, "aig")
        assert list(entry.predictions_json) == list(entry.predictions) == [None]


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
        svc = InferenceService(gated)
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
        svc = InferenceService(gated)
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
        svc = InferenceService(gated)
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
        svc = InferenceService(counted, cache_size=2)

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


class TestTextMemoStress:
    def test_concurrent_exact_and_renamed_texts_match_serial(
        self, model, adder_bench, adder_aag
    ):
        """Eight threads resend exact and renamed texts of four
        structures through a two-entry cache: text-memo hits, memo
        lookups whose entry was evicted or is still being built, and
        rebuilds race one another.  Every answer is bitwise a direct
        forward, and every request counts exactly one cache hit or miss."""
        comparator_bench = bench.dumps(comparator(3))
        parity_bench = bench.dumps(parity(5))
        texts = [
            (adder_bench, "bench"),
            (rename_bench(adder_bench), "bench"),
            (adder_aag, "aiger"),
            (comparator_bench, "bench"),
            (rename_bench(comparator_bench, "w_"), "bench"),
            (parity_bench, "bench"),
            (rename_bench(parity_bench), "bench"),
        ]
        weights = np.array([4, 1, 3, 2, 1, 3, 2]) / 16
        reference = {
            i: direct_forward(model, text, fmt, None)
            for i, (text, fmt) in enumerate(texts)
        }
        assert len({key for key, _ in reference.values()}) == 4

        num_threads, per_thread = 8, 25
        rng = np.random.default_rng(11)
        plans = [
            rng.choice(len(texts), size=per_thread, p=weights).tolist()
            for _ in range(num_threads)
        ]
        answers = [[] for _ in range(num_threads)]
        errors = []
        svc = InferenceService(model, cache_size=2)

        def worker(t):
            try:
                for i in plans[t]:
                    text, fmt = texts[i]
                    answers[t].append(
                        (i, svc.query(QueryRequest(circuit=text, fmt=fmt)))
                    )
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
            for i, resp in answers[t]:
                key, preds = reference[i]
                assert resp.structural_hash == key
                assert resp.predictions == preds
        stats = svc.stats()
        assert stats.requests == num_threads * per_thread
        assert stats.requests == stats.cache_hits + stats.cache_misses
        assert stats.requests == stats.memo_hits + stats.batched_requests
        assert 0 < stats.text_hits <= stats.cache_hits
        assert stats.cache_evictions > 0
        assert len(svc.text_memo) <= svc.text_memo.capacity


class TestEncodedAnswerStress:
    def test_concurrent_replies_encode_their_own_predictions(
        self, model, adder_bench, adder_aag
    ):
        """Eight threads over four structures and three iteration
        overrides through a three-entry cache: passes, stored answers,
        evictions and rebuilds race.  Every reply's JSON is the generic
        encoding of its payload, and its predictions are a direct
        forward's bits, so no reply carries text encoded for another
        iteration count or for an entry since rebuilt."""
        comparator_bench = bench.dumps(comparator(3))
        parity_bench = bench.dumps(parity(5))
        texts = [
            (adder_bench, "bench"),
            (rename_bench(adder_bench), "bench"),
            (adder_aag, "aiger"),
            (comparator_bench, "bench"),
            (rename_bench(comparator_bench), "bench"),
            (parity_bench, "bench"),
        ]
        weights = np.array([3, 2, 3, 3, 2, 3]) / 16
        overrides = (None, model.num_iterations, 3)
        reference = {
            (i, iters): direct_forward(model, text, fmt, iters)
            for i, (text, fmt) in enumerate(texts)
            for iters in overrides
        }
        assert len({key for key, _ in reference.values()}) == 4

        num_threads, per_thread = 8, 20
        rng = np.random.default_rng(13)
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
        svc = InferenceService(model, cache_size=3)

        def worker(t):
            try:
                for i, iters in plans[t]:
                    text, fmt = texts[i]
                    resp = svc.query(
                        QueryRequest(circuit=text, fmt=fmt, num_iterations=iters)
                    )
                    answers[t].append((i, iters, resp, resp.to_json()))
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
            for i, iters, resp, text in answers[t]:
                key, preds = reference[i, iters]
                assert resp.structural_hash == key
                assert resp.predictions == preds
                assert resp._predictions_json is not None
                assert text == generic_json(resp)
        stats = svc.stats()
        assert stats.memo_hits > 0
        assert stats.cache_evictions > 0
