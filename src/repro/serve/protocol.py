"""Typed request/response messages for the inference server.

The wire format follows the frozen, versioned named-message pattern of
gridworks-scada's ``gwsproto`` (and mirrors this repo's frozen experiment
spec dataclasses): every message is a frozen dataclass with a dotted
``type_name`` and a protocol ``version`` carried in its JSON payload, so
payloads are self-describing, hashable in memory, and forward-compatible
(unknown payload fields are ignored; unknown type names and versions are
rejected loudly).

JSON round trip: ``msg.to_json()`` → text → :func:`parse_message` →
an equal message.  Malformed payloads raise :class:`ProtocolError`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple, Type, Union

__all__ = [
    "PROTOCOL_VERSION",
    "CIRCUIT_FORMATS",
    "ProtocolError",
    "Message",
    "QueryRequest",
    "QueryResponse",
    "ErrorReply",
    "StatsReply",
    "HealthReply",
    "MESSAGE_TYPES",
    "parse_message",
]

PROTOCOL_VERSION = 1

#: accepted circuit formats (aliases normalise to the first three)
CIRCUIT_FORMATS = ("aiger", "bench", "verilog")

_FORMAT_ALIASES = {
    "aag": "aiger",
    "v": "verilog",
}


class ProtocolError(ValueError):
    """A payload that does not parse as a valid protocol message."""


@dataclass(frozen=True)
class Message:
    """Base for all protocol messages: frozen, named, versioned."""

    TYPE_NAME: ClassVar[str] = ""

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "type_name": self.TYPE_NAME,
            "version": PROTOCOL_VERSION,
        }
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[f.name] = value
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Message":
        if not isinstance(payload, dict):
            raise ProtocolError(f"payload must be an object, got {type(payload).__name__}")
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name in payload:
                kwargs[f.name] = payload[f.name]
            elif (
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ):
                raise ProtocolError(
                    f"{cls.TYPE_NAME} payload missing required field {f.name!r}"
                )
        try:
            return cls(**kwargs)
        except ProtocolError:
            raise
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad {cls.TYPE_NAME} payload: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _freeze(msg: Message, name: str, value: object) -> None:
    object.__setattr__(msg, name, value)


@dataclass(frozen=True)
class QueryRequest(Message):
    """Ask for per-node predictions on one circuit.

    ``circuit`` is the full source text in ``fmt`` (``aiger`` ``.aag``,
    ``bench``, or structural ``verilog``); ``num_iterations`` optionally
    overrides the recurrent model's propagation depth.
    """

    TYPE_NAME: ClassVar[str] = "repro.serve.query.request"

    circuit: str = ""
    fmt: str = "aiger"
    num_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.circuit, str) and bool(self.circuit.strip()),
            "circuit must be non-empty text",
        )
        _require(isinstance(self.fmt, str), "fmt must be a string")
        fmt = _FORMAT_ALIASES.get(self.fmt.lower(), self.fmt.lower())
        _require(
            fmt in CIRCUIT_FORMATS,
            f"unknown circuit format {self.fmt!r}; expected one of "
            f"{CIRCUIT_FORMATS} (or aliases {tuple(_FORMAT_ALIASES)})",
        )
        _freeze(self, "fmt", fmt)
        if self.num_iterations is not None:
            _require(
                isinstance(self.num_iterations, int)
                and not isinstance(self.num_iterations, bool)
                and self.num_iterations >= 1,
                "num_iterations must be a positive integer",
            )


@dataclass(frozen=True)
class QueryResponse(Message):
    """Per-node predictions over the canonical (strashed) circuit.

    ``predictions[k]`` is the predicted signal probability of node ``k``
    of the canonical AIG's gate graph (PIs, then AND/NOT gates in
    topological order).  ``structural_hash`` is the compilation-cache
    key; ``cache_hit`` says the compiled circuit was reused, and
    ``coalesced`` how many requests the propagation pass that computed
    the predictions answered: the request that submitted it, every
    request that waited on it while it was queued or running, and (in
    ``merged`` batch mode) the requests of the circuits fused into it;
    1 = this request alone.  A request whose structure and iteration
    count the cache entry has already answered gets the stored
    predictions back without a pass, with ``coalesced=1``.
    """

    TYPE_NAME: ClassVar[str] = "repro.serve.query.response"

    structural_hash: str = ""
    num_nodes: int = 0
    num_pis: int = 0
    num_ands: int = 0
    predictions: Tuple[float, ...] = ()
    cache_hit: bool = False
    coalesced: int = 1
    model: str = ""
    elapsed_ms: float = 0.0

    def __post_init__(self) -> None:
        _require(
            isinstance(self.predictions, (list, tuple)),
            "predictions must be a sequence",
        )
        try:
            preds = tuple(float(p) for p in self.predictions)
        except (TypeError, ValueError):
            raise ProtocolError("predictions must be numbers")
        _freeze(self, "predictions", preds)
        _require(
            isinstance(self.num_nodes, int) and self.num_nodes >= 0,
            "num_nodes must be a non-negative integer",
        )
        _require(
            len(preds) == self.num_nodes,
            f"{len(preds)} predictions for {self.num_nodes} nodes",
        )


@dataclass(frozen=True)
class ErrorReply(Message):
    """Structured rejection: a machine-readable kind plus diagnostics.

    ``error`` is one of ``protocol_error`` / ``parse_error`` /
    ``circuit_error`` / ``not_found`` / ``internal_error``; ``line`` is
    the offending source line for parse errors when known.
    """

    TYPE_NAME: ClassVar[str] = "repro.serve.error"

    error: str = "internal_error"
    detail: str = ""
    line: Optional[int] = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.error, str) and bool(self.error),
            "error kind must be a non-empty string",
        )
        _require(isinstance(self.detail, str), "detail must be a string")
        _require(
            self.line is None
            or (isinstance(self.line, int) and self.line >= 1),
            "line must be a positive integer or null",
        )


@dataclass(frozen=True)
class StatsReply(Message):
    """Server counters: the cache-hit observability surface.

    ``memo_hits`` counts requests answered without submitting a pass of
    their own: from a cache entry's stored predictions, or by waiting on
    the pass another request submitted for the same structure and
    iteration count.  Every other answered request went through the
    batcher (``batched_requests``), one pass each.
    """

    TYPE_NAME: ClassVar[str] = "repro.serve.stats"

    model: str = ""
    uptime_s: float = 0.0
    requests: int = 0
    errors: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_entries: int = 0
    cache_capacity: int = 0
    memo_hits: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch_observed: int = 0
    max_batch_size: int = 0
    max_wait_ms: float = 0.0
    max_queue: int = 0
    rejected: int = 0
    batch_mode: str = "exact"


@dataclass(frozen=True)
class HealthReply(Message):
    """Liveness probe response."""

    TYPE_NAME: ClassVar[str] = "repro.serve.health"

    status: str = "ok"


MESSAGE_TYPES: Dict[str, Type[Message]] = {
    cls.TYPE_NAME: cls
    for cls in (QueryRequest, QueryResponse, ErrorReply, StatsReply, HealthReply)
}


def parse_message(data: Union[str, bytes, Dict[str, object]]) -> Message:
    """Parse JSON text (or an already-decoded payload) into a message.

    Rejects non-object payloads, unknown ``type_name`` values and
    protocol versions newer than this build with :class:`ProtocolError`.
    """
    if isinstance(data, (str, bytes)):
        try:
            payload = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"payload is not valid JSON: {exc}") from exc
    else:
        payload = data
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"payload must be a JSON object, got {type(payload).__name__}"
        )
    type_name = payload.get("type_name")
    if not isinstance(type_name, str):
        raise ProtocolError("payload has no type_name")
    cls = MESSAGE_TYPES.get(type_name)
    if cls is None:
        raise ProtocolError(
            f"unknown message type {type_name!r}; expected one of "
            f"{sorted(MESSAGE_TYPES)}"
        )
    version = payload.get("version", PROTOCOL_VERSION)
    if not isinstance(version, int) or version < 1:
        raise ProtocolError(f"bad protocol version {version!r}")
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            f"message version {version} is newer than this server "
            f"(protocol {PROTOCOL_VERSION})"
        )
    return cls.from_payload(payload)
