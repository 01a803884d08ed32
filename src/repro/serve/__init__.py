"""Persistent inference serving: HTTP server, strash-keyed compilation
cache, and one model thread over a trained checkpoint."""

from .batcher import BatcherClosed, BatcherSaturated, MicroBatcher
from .cache import CacheStats, CompilationCache
from .checkpoints import CheckpointNotFound, resolve_checkpoint
from .client import ServeClient, ServeClientError
from .protocol import (
    CIRCUIT_FORMATS,
    PROTOCOL_VERSION,
    ErrorReply,
    HealthReply,
    Message,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    StatsReply,
    parse_message,
)
from .server import ServeServer, describe
from .service import (
    CircuitRejected,
    CompiledCircuit,
    InferenceService,
    service_from_checkpoint,
)

__all__ = [
    "BatcherClosed",
    "BatcherSaturated",
    "CIRCUIT_FORMATS",
    "CacheStats",
    "CheckpointNotFound",
    "CircuitRejected",
    "CompilationCache",
    "CompiledCircuit",
    "ErrorReply",
    "HealthReply",
    "InferenceService",
    "Message",
    "MicroBatcher",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryRequest",
    "QueryResponse",
    "ServeClient",
    "ServeClientError",
    "ServeServer",
    "StatsReply",
    "describe",
    "parse_message",
    "resolve_checkpoint",
    "service_from_checkpoint",
]
