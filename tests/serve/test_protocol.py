"""Message round-trips, validation, and forward-compatibility rules."""

import dataclasses
import json

import numpy as np
import pytest

from repro.serve.protocol import (
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    ErrorReply,
    HealthReply,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    StatsReply,
    parse_message,
)

SAMPLES = [
    QueryRequest(circuit="aag 0 0 0 0 0\n"),
    QueryRequest(circuit="INPUT(a)\n", fmt="bench", num_iterations=7),
    QueryResponse(
        structural_hash="ab" * 32,
        num_nodes=3,
        num_pis=2,
        num_ands=1,
        predictions=(0.5, 0.25, 0.125),
        cache_hit=True,
        coalesced=4,
        model="DeepGate(dim=12)",
        elapsed_ms=1.5,
    ),
    ErrorReply(error="parse_error", detail="line 3: bad literal", line=3),
    ErrorReply(error="internal_error", detail="boom"),
    StatsReply(
        model="m", requests=10, cache_hits=7, memo_hits=5, text_hits=4,
        batches=2, batched_requests=2, rejected=1,
    ),
    HealthReply(),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "msg", SAMPLES, ids=lambda m: type(m).__name__
    )
    def test_json_roundtrip_equal(self, msg):
        back = parse_message(msg.to_json())
        assert back == msg
        assert type(back) is type(msg)

    def test_payload_is_self_describing(self):
        payload = QueryRequest(circuit="x").to_payload()
        assert payload["type_name"] == QueryRequest.TYPE_NAME
        assert payload["version"] == PROTOCOL_VERSION

    def test_tuples_serialise_as_lists(self):
        msg = QueryResponse(num_nodes=1, predictions=(0.5,))
        assert json.loads(msg.to_json())["predictions"] == [0.5]

    def test_type_names_unique(self):
        assert len(MESSAGE_TYPES) == 5


def sample_response(**changes):
    fields = dict(
        structural_hash="cd" * 32, num_nodes=5, num_pis=2, num_ands=1,
        predictions=(0.1, float("nan"), float("inf"), -float("inf"), 1e-7),
        cache_hit=True, coalesced=3, model="m", elapsed_ms=0.25,
    )
    fields.update(changes)
    return QueryResponse(**fields)


class TestResponseEncoding:
    """``QueryResponse.to_json`` joins its fields around the predictions'
    JSON text; the reply is the generic encoding of its payload."""

    @pytest.mark.parametrize("label", [
        "m",
        'say "hi"',
        "back\\slash",
        "naïve ✓ — 模型",
        '"predictions": null',
        '", "predictions": [1.0], "zz": "',
        "",
    ])
    def test_is_the_generic_encoding(self, label):
        resp = sample_response(model=label)
        text = resp.to_json()
        assert text == json.dumps(resp.to_payload(), sort_keys=True)
        assert parse_message(text).model == label
        assert parse_message(text).to_json() == text

    def test_no_predictions(self):
        resp = sample_response(num_nodes=0, predictions=())
        assert resp.to_json() == json.dumps(resp.to_payload(), sort_keys=True)

    def test_attached_text_is_not_a_field(self):
        finite = dict(num_nodes=3, predictions=(0.1, 0.5, 1e-7))
        plain = sample_response(**finite)
        text = QueryResponse.encode_predictions(plain.predictions)
        spliced = sample_response(**finite)._with_predictions_json(text)
        assert spliced == plain and hash(spliced) == hash(plain)
        assert spliced.to_payload() == plain.to_payload()
        assert spliced.to_json() == plain.to_json()
        assert [f.name for f in dataclasses.fields(spliced)] == [
            f.name for f in dataclasses.fields(plain)
        ]
        assert "_predictions_json" not in repr(spliced)
        assert dataclasses.replace(spliced)._predictions_json is None


#: a ``StatsReply`` payload from a server that still had the coalescing
#: window, ``--max-batch-size`` and the ``merged`` batch mode
OLD_STATS_FIELDS = {
    "max_batch_observed": 3,
    "max_batch_size": 16,
    "max_wait_ms": 2.0,
    "batch_mode": "merged",
}


class TestForwardCompat:
    @pytest.mark.parametrize(
        "msg, extra",
        [
            (QueryRequest(circuit="x"), {"wholly_new_field": {"nested": True}}),
            (StatsReply(model="m", requests=4, batches=2), OLD_STATS_FIELDS),
        ],
        ids=["new_field", "old_stats_fields"],
    )
    def test_unknown_payload_fields_ignored(self, msg, extra):
        payload = msg.to_payload()
        payload.update(extra)
        assert parse_message(payload) == msg

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            parse_message({"type_name": "repro.serve.nope", "version": 1})

    def test_newer_version_rejected(self):
        payload = HealthReply().to_payload()
        payload["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="newer than this server"):
            parse_message(payload)

    def test_stats_without_memo_hits_parse_as_zero(self):
        payload = StatsReply(model="m", requests=3).to_payload()
        del payload["memo_hits"]
        assert parse_message(payload) == StatsReply(model="m", requests=3)
        assert parse_message(payload).memo_hits == 0

    def test_stats_without_text_hits_parse_as_zero(self):
        payload = StatsReply(model="m", requests=3).to_payload()
        del payload["text_hits"]
        assert parse_message(payload) == StatsReply(model="m", requests=3)
        assert parse_message(payload).text_hits == 0

    def test_missing_version_defaults_to_current(self):
        payload = HealthReply().to_payload()
        del payload["version"]
        assert parse_message(payload) == HealthReply()


class TestValidation:
    def test_not_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_message("{nope")

    def test_non_object_payload(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_message("[1, 2]")

    def test_no_type_name(self):
        with pytest.raises(ProtocolError, match="no type_name"):
            parse_message({"version": 1})

    def test_payload_without_circuit_rejected(self):
        with pytest.raises(ProtocolError, match="circuit"):
            parse_message({"type_name": QueryRequest.TYPE_NAME, "version": 1})

    def test_empty_circuit_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            QueryRequest(circuit="   ")

    def test_unknown_format_rejected(self):
        with pytest.raises(ProtocolError, match="unknown circuit format"):
            QueryRequest(circuit="x", fmt="vhdl")

    def test_format_aliases_normalise(self):
        assert QueryRequest(circuit="x", fmt="aag").fmt == "aiger"
        assert QueryRequest(circuit="x", fmt="V").fmt == "verilog"

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, "ten"])
    def test_bad_num_iterations_rejected(self, bad):
        with pytest.raises(ProtocolError, match="num_iterations"):
            QueryRequest(circuit="x", num_iterations=bad)

    def test_prediction_length_must_match(self):
        with pytest.raises(ProtocolError, match="predictions for"):
            QueryResponse(num_nodes=2, predictions=(0.5,))

    def test_non_numeric_predictions_rejected(self):
        with pytest.raises(ProtocolError, match="numbers"):
            QueryResponse(num_nodes=1, predictions=("high",))

    @pytest.mark.parametrize("values", [
        (0, 1, -3, 2**53 + 1),
        (True, False),
        (np.float32(0.1), np.float32(1 / 3), np.float32("nan")),
        ("0.5", " 1e-3 ", "inf", "-0"),
        [0.25, 7, np.float32(2.5), "0.75"],
    ], ids=["ints", "bools", "float32", "strings", "mixed"])
    def test_numeric_predictions_become_doubles(self, values):
        resp = QueryResponse(num_nodes=len(values), predictions=values)
        assert all(type(p) is float for p in resp.predictions)
        assert [p.hex() for p in resp.predictions] == [
            float(v).hex() for v in values
        ]

    @pytest.mark.parametrize("bad", [None, "x", [0.5], (0.5, 0.25), []])
    def test_predictions_that_are_not_numbers_rejected(self, bad):
        with pytest.raises(ProtocolError, match="numbers"):
            QueryResponse(num_nodes=2, predictions=(0.5, bad))

    def test_bad_error_line_rejected(self):
        with pytest.raises(ProtocolError, match="line"):
            ErrorReply(error="parse_error", detail="x", line=0)
