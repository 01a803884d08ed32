"""Where the traced run puts its spans: the layers' public entry points.

Span names are ``<layer>.<operation>``, with layers named after the
package's modules (aig, synth, sim, graphdata, models, nn, serve).
:func:`install` wraps every entry point any workload reaches; wrapping a
function a workload never calls costs nothing.  Serve-only spans sit on
the in-process service instance and are installed by the serve workload.
"""

from __future__ import annotations

import math

from repro.aig import aiger, bench
from repro.aig.graph import AIG
from repro.graphdata import batching, dataset, features
from repro.graphdata.dataset import PreparedBatch
from repro.models.deepgate import DeepGate
from repro.models.regressor import PerTypeRegressor
from repro.nn import optim
from repro.nn.tensor import Tensor
from repro.serve import service
from repro.synth import pipeline as synth_pipeline
from repro.train import trainer

from .tracing import Tracer

__all__ = ["LAYERS", "install"]

#: layer names in pipeline order (first component of every span name)
LAYERS = ("aig", "synth", "sim", "graphdata", "models", "nn", "serve")


def _count_bytes(tracer, span, args, kwargs, result):
    tracer.count("aig.bytes", len(args[0]))


def _count_ands(tracer, span, args, kwargs, result):
    tracer.count("synth.ands_out", result.num_ands)


def _count_pattern_words(tracer, span, args, kwargs, result):
    graph = args[0]
    patterns = kwargs.get("num_patterns", args[1] if len(args) > 1 else 100_000)
    exact = kwargs.get("exact_below_pis", 0)
    if exact and graph.num_pis <= exact:
        words = max(1, (1 << graph.num_pis) // 64)
    else:
        words = math.ceil(max(64, patterns) / 64)
    tracer.count("sim.pattern_words", graph.num_nodes * words)


def _count_compile(tracer, span, args, kwargs, result):
    tracer.count("graphdata.compile_calls")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point in a span (undo with ``restore``)."""
    wrap = tracer.wrap
    wrap(bench, "loads", "aig.parse", _count_bytes)
    wrap(aiger, "loads", "aig.parse", _count_bytes)
    wrap(AIG, "to_gate_graph", "aig.gate_graph")
    wrap(synth_pipeline, "synthesize", "synth.synthesize", _count_ands)
    wrap(service, "canonicalize", "synth.canonicalize")
    wrap(features, "gate_graph_probabilities", "sim.label", _count_pattern_words)
    wrap(features, "find_reconvergences", "sim.reconv")
    wrap(dataset, "prepare", "graphdata.prepare")
    wrap(PreparedBatch, "__init__", "graphdata.prepare")
    wrap(batching.LevelSchedule, "forward", "graphdata.schedule")
    wrap(batching.LevelSchedule, "reverse", "graphdata.schedule")
    wrap(batching.CompiledSchedule, "compile", "graphdata.compile", _count_compile)
    wrap(batching.WindowedSchedule, "build", "graphdata.window_build")
    wrap(DeepGate, "forward", "models.forward")
    wrap(DeepGate, "embeddings", "models.embed")
    wrap(PerTypeRegressor, "forward", "models.regressor")
    wrap(Tensor, "backward", "models.backward")
    wrap(optim.Adam, "step", "nn.optim")
    wrap(optim.Adam, "zero_grad", "nn.optim")
    wrap(optim, "clip_grad_norm", "nn.clip")
    wrap(trainer, "clip_grad_norm", "nn.clip")
