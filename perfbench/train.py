"""train: ``Trainer.fit`` on pool circuits labelled during set-up.

The ``default`` experiment config: DeepGate with attention, skip and
reverse passes, dim 32, T=5, batch 8, Adam lr 1e-3, shuffled, prefetch 2.
Models and nn do most of the work.  Epochs are shuffled, so every step
compiles a fresh schedule on the main thread; the circuits are small and
deep, so per-level overhead and the per-step optimizer cost show.

A step is timed from the moment the trainer asks the loader for its batch
to the moment it asks for the next one, so loader wait is included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.aig import bench
from repro.graphdata import features
from repro.graphdata.dataset import CircuitDataset
from repro.graphdata.loader import DataLoader
from repro.models.deepgate import DeepGate
from repro.nn.functional import l1_loss
from repro.synth import pipeline as synth_pipeline
from repro.train.callbacks import Callback
from repro.train.trainer import TrainConfig, Trainer

from .harness import Metric, Phase, peak_rss_mb
from .ingest import NUM_PATTERNS, label_seed
from .inputs import sha256_texts, train_texts

TRAIN_CIRCUITS = 48
DIM, ITERATIONS, BATCH_SIZE, LR, PREFETCH = 32, 5, 8, 1e-3, 2


@dataclass
class Inputs:
    texts: List[str]

    @property
    def sha256(self) -> str:
        return sha256_texts(self.texts)


@dataclass
class State:
    dataset: CircuitDataset
    trainer: Trainer
    seed: int


def make_inputs(seed: int) -> Inputs:
    return Inputs(train_texts(seed, TRAIN_CIRCUITS))


def _model(seed: int, compiled: bool = True) -> DeepGate:
    return DeepGate(
        dim=DIM, num_iterations=ITERATIONS, rng=np.random.default_rng(seed),
        compiled=compiled,
    )


def setup(inputs: Inputs, seed: int) -> State:
    """Label the train set from its texts and build model and trainer.

    Circuits the pipeline skips (every output constant, no AND left) are
    replaced by the spares that follow the stratified picks.
    """
    graphs = []
    for index, text in enumerate(inputs.texts):
        if len(graphs) == TRAIN_CIRCUITS:
            break
        aig = synth_pipeline.synthesize(bench.loads(text, name=f"t{index}"))
        if synth_pipeline.has_constant_outputs(aig):
            try:
                aig = synth_pipeline.strip_constant_outputs(aig)
            except ValueError:
                continue
        if aig.num_ands == 0:
            continue
        graphs.append(features.from_aig(
            aig, num_patterns=NUM_PATTERNS, seed=label_seed(seed, index)
        ))
    if len(graphs) < TRAIN_CIRCUITS:
        raise RuntimeError(
            f"only {len(graphs)} of {len(inputs.texts)} texts survived "
            f"synthesis; need {TRAIN_CIRCUITS}"
        )
    config = TrainConfig(
        epochs=10**9, batch_size=BATCH_SIZE, lr=LR, seed=seed, shuffle=True,
        prefetch=PREFETCH,
    )
    return State(CircuitDataset(graphs, name="train"), Trainer(_model(seed), config), seed)


def teardown(state: State) -> None:
    pass


class _StepClock(DataLoader):
    """The trainer's loader, with a clock on every batch request."""

    def __init__(self, dataset, seed: int, tracer=None):
        super().__init__(
            dataset, BATCH_SIZE, shuffle=True, seed=seed, prefetch=PREFETCH
        )
        self.tracer = tracer
        self.steps_s: List[float] = []
        self.nodes: List[int] = []

    def epoch(self, epoch: int = 0):
        return _Clocked(super().epoch(epoch), self)


class _Clocked:
    def __init__(self, inner, clock: _StepClock):
        self.inner = inner
        self.clock = clock
        self.opened = None

    def __iter__(self):
        return self

    def _close_step(self, now: float) -> None:
        if self.opened is not None:
            self.clock.steps_s.append(now - self.opened)
            self.opened = None

    def __next__(self):
        now = time.perf_counter()
        self._close_step(now)
        tracer = self.clock.tracer
        if tracer is not None:
            tracer.set_op(len(self.clock.steps_s))
            with tracer.span("graphdata.loader_wait"):
                batch = next(self.inner)
        else:
            batch = next(self.inner)
        self.opened = now
        self.clock.nodes.append(batch.num_nodes)
        return batch

    def close(self) -> None:
        self._close_step(time.perf_counter())
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


class _StopAt(Callback):
    """Stop after the epoch that crosses the deadline; note epoch losses."""

    def __init__(self, deadline: float, clock: _StepClock):
        self.deadline = deadline
        self.clock = clock
        self.epochs: List[tuple] = []  # (steps so far, epoch loss)

    def on_epoch_end(self, trainer, epoch, train_loss, eval_error) -> None:
        self.epochs.append((len(self.clock.steps_s), train_loss))
        if time.perf_counter() >= self.deadline:
            trainer.request_stop()


def drive(state: State, seconds: float, tracer=None) -> Phase:
    clock = _StepClock(state.dataset, state.seed, tracer)
    start = time.perf_counter()
    stop = _StopAt(start + seconds, clock)
    state.trainer.fit(clock, callbacks=[stop])
    phase = Phase(seconds=time.perf_counter() - start)
    first = 0
    for last, loss in stop.epochs:
        steps = clock.steps_s[first:last]
        phase.attempted += len(steps)
        if math.isfinite(loss):
            phase.latencies_ms.extend(s * 1e3 for s in steps)
            phase.nodes += sum(clock.nodes[first:last])
        else:
            phase.failed += len(steps)
        first = last
    phase.extra["epochs"] = phase.extra.get("epochs", 0) + len(stop.epochs)
    return phase


def check(state: State, phases: List[Phase]) -> List[str]:
    """Losses finite; the first step's loss matches the reference path."""
    problems = []
    losses = state.trainer.history.train_loss
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"non-finite epoch loss in {losses}")
    loader = DataLoader(
        state.dataset, BATCH_SIZE, shuffle=True, seed=state.seed, prefetch=0
    )
    batch = next(iter(loader.epoch(0)))
    compiled = l1_loss(_model(state.seed)(batch), batch.labels).item()
    reference = l1_loss(
        _model(state.seed, compiled=False)(batch), batch.labels
    ).item()
    if not np.isclose(compiled, reference, rtol=1e-5, atol=1e-6):
        problems.append(
            f"first-step loss {compiled!r} differs from the compiled=False "
            f"reference {reference!r}"
        )
    for phase in phases:
        phase.extra["first_step_loss"] = compiled
    return problems


def report(phase: Phase) -> Dict[str, Metric]:
    lat = phase.latency()
    out = {
        "train_nodes_per_s": Metric(phase.nodes_per_s, "nodes/s", lat["samples"]),
        "train_step_ms_p50": Metric(lat["p50"], "ms", lat["samples"]),
    }
    if lat["tail"]:
        out[f"train_step_ms_{lat['tail']}"] = Metric(
            lat["tail_value"], "ms", lat["samples"]
        )
    return out


def peak_rss(state: State) -> float:
    return peak_rss_mb()
