"""stream: Adam steps on a 10^5-gate circuit through the windowed runner.

The only workload that exercises ``WindowedSchedule``, the frontier
``StateStore`` and the windowed pass runner: attention DeepGate, dim 32,
T=1, under ``use_window_budget`` with a budget far below the circuit
size, so each pass streams through hundreds of windows.  Levels are wide
(512 nodes), so kernels dominate rather than per-level overhead, and peak
memory is what users of this path care about.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.graphdata import dataset
from repro.graphdata.dataset import PreparedBatch
from repro.models.deepgate import DeepGate
from repro.models.propagation import get_window_stats, use_window_budget
from repro.nn import optim
from repro.nn.functional import l1_loss
from repro.nn.tensor import no_grad

from .harness import Metric, Phase, peak_rss_mb
from .inputs import sha256_arrays, stream_graph

NUM_GATES = 100_000
WINDOW_BUDGET = 512  # one 512-wide level per window: ~200 windows per pass
DIM, ITERATIONS, LR, GRAD_CLIP, PE_LEVELS = 32, 1, 1e-3, 5.0, 8


@dataclass
class Inputs:
    graph: object  # CircuitGraph

    @property
    def sha256(self) -> str:
        g = self.graph
        return sha256_arrays([g.node_type, g.edges, g.levels, g.labels])


@dataclass
class State:
    batch: PreparedBatch
    model: DeepGate
    optimizer: optim.Adam


def make_inputs(seed: int) -> Inputs:
    return Inputs(stream_graph(seed, NUM_GATES))


def setup(inputs: Inputs, seed: int) -> State:
    """Prepare, build both windowed schedules, warm up with one forward."""
    batch = dataset.prepare([inputs.graph])
    model = DeepGate(
        dim=DIM, num_iterations=ITERATIONS, aggregator="attention",
        rng=np.random.default_rng(seed),
    )
    with use_window_budget(WINDOW_BUDGET):
        batch.windowed_forward_schedule(WINDOW_BUDGET, model.use_skip, PE_LEVELS)
        batch.windowed_reverse_schedule(WINDOW_BUDGET)
        with no_grad():
            model(batch)
    return State(batch, model, optim.Adam(model.parameters(), lr=LR))


def teardown(state: State) -> None:
    pass


_STATS = {
    "windows": "graphdata.windows",
    "frontier_rows": "graphdata.frontier_rows",
}


def drive(state: State, seconds: float, tracer=None) -> Phase:
    phase = Phase()
    model, batch, opt = state.model, state.batch, state.optimizer
    before = get_window_stats()
    start = time.perf_counter()
    deadline = start + seconds
    with use_window_budget(WINDOW_BUDGET):
        while time.perf_counter() < deadline:
            if tracer is not None:
                tracer.set_op(phase.attempted)
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                opt.zero_grad()
                loss = l1_loss(model(batch), batch.labels)
                loss.backward()
                optim.clip_grad_norm(model.parameters(), GRAD_CLIP)
                opt.step()
                value = loss.item()
            except MemoryError:
                phase.failed += 1
                continue
            if not math.isfinite(value):
                phase.failed += 1
                continue
            phase.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            phase.nodes += batch.num_nodes
    phase.seconds = time.perf_counter() - start
    after = get_window_stats()
    counters = {name: after[key] - before[key] for key, name in _STATS.items()}
    counters["models.store_peak_bytes"] = after["store_peak_bytes"]
    phase.extra["layer_counters"] = counters
    phase.extra["windows_per_pass"] = (
        (after["windows"] - before["windows"])
        / max(1, after["passes"] - before["passes"])
    )
    return phase


def check(state: State, phases: List[Phase]) -> List[str]:
    """Windowed forward predictions are bitwise those of the full path."""
    with no_grad():
        with use_window_budget(WINDOW_BUDGET):
            windowed = state.model(state.batch).data
        with use_window_budget(None):
            full = state.model(state.batch).data
    if not np.array_equal(windowed, full):
        diff = float(np.max(np.abs(windowed - full)))
        return [f"windowed forward differs from the full path (max {diff:g})"]
    return []


def report(phase: Phase) -> Dict[str, Metric]:
    lat = phase.latency()
    out = {
        "stream_nodes_per_s": Metric(phase.nodes_per_s, "nodes/s", lat["samples"]),
        "stream_step_ms_p50": Metric(lat["p50"], "ms", lat["samples"]),
    }
    if lat["tail"]:
        out[f"stream_step_ms_{lat['tail']}"] = Metric(
            lat["tail_value"], "ms", lat["samples"]
        )
    return out


def peak_rss(state: State) -> float:
    return peak_rss_mb()
