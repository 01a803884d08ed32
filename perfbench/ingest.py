"""ingest: BENCH text -> labelled, compiled gate graph, one circuit at a time.

The only workload where aig, synth and sim do most of the work and the
model none.  Each operation runs single-process through ``bench.loads``
-> ``synthesize`` -> constant-output strip -> ``from_aig`` (15 000
patterns, the ``default`` scale) -> ``prepare`` -> compiled forward and
reverse schedules.  A circuit whose every output is constant (or that has
no AND left) is the documented skip, not a failure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.aig import bench
from repro.aig.graph import AIG
from repro.graphdata import features
from repro.graphdata import dataset
from repro.sim import probability
from repro.synth import pipeline as synth_pipeline

from .harness import Metric, Phase, peak_rss_mb
from .inputs import bench_texts, sha256_texts

CATALOG_SIZE = 400
NUM_PATTERNS = 15_000  # the `default` experiment scale
EXACT_BELOW_PIS = 12
PE_LEVELS = 8
WARMUP_CIRCUITS = 4


@dataclass
class Inputs:
    texts: List[str]

    @property
    def sha256(self) -> str:
        return sha256_texts(self.texts)


@dataclass
class State:
    inputs: Inputs
    seed: int
    #: catalog index -> (stripped AIG, labelled graph), first ingest only
    kept: Dict[int, Tuple[AIG, features.CircuitGraph]] = field(default_factory=dict)


def make_inputs(seed: int) -> Inputs:
    return Inputs(bench_texts(seed, CATALOG_SIZE))


def label_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def ingest_one(
    text: str, index: int, seed: int
) -> Optional[Tuple[AIG, features.CircuitGraph]]:
    """Run one circuit through the pipeline; ``None`` is the documented skip."""
    netlist = bench.loads(text, name=f"c{index}")
    aig = synth_pipeline.synthesize(netlist)
    if synth_pipeline.has_constant_outputs(aig):
        try:
            aig = synth_pipeline.strip_constant_outputs(aig)
        except ValueError:
            return None
    if aig.num_ands == 0:
        return None
    graph = features.from_aig(
        aig, num_patterns=NUM_PATTERNS, seed=label_seed(seed, index)
    )
    batch = dataset.prepare([graph])
    batch.compiled_forward_schedule(True, PE_LEVELS)
    batch.compiled_reverse_schedule()
    return aig, graph


def setup(inputs: Inputs, seed: int) -> State:
    """Warm up on the first few circuits (first-call numpy paths)."""
    for index in range(WARMUP_CIRCUITS):
        ingest_one(inputs.texts[index], index, seed)
    return State(inputs, seed)


def teardown(state: State) -> None:
    pass


def drive(state: State, seconds: float, tracer=None) -> Phase:
    phase = Phase()
    texts = state.inputs.texts
    start = time.perf_counter()
    deadline = start + seconds
    op = 0
    while time.perf_counter() < deadline:
        index = op % len(texts)
        if tracer is not None:
            tracer.set_op(op)
        op += 1
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            result = ingest_one(texts[index], index, state.seed)
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            phase.failed += 1
            phase.extra.setdefault("errors", []).append(f"{type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t0
        if result is None:
            phase.skipped += 1
            continue
        phase.latencies_ms.append(elapsed * 1e3)
        phase.nodes += result[1].num_nodes
        state.kept.setdefault(index, result)
    phase.seconds = time.perf_counter() - start
    return phase


def check(state: State, phases: List[Phase]) -> List[str]:
    """Every graph validates; small circuits match exact enumeration."""
    problems = []
    patterns = max(64, math.ceil(NUM_PATTERNS / 64) * 64)
    # six standard deviations of a Bernoulli(1/2) mean over the patterns
    bound = 6.0 * 0.5 / math.sqrt(patterns)
    exact_checked = 0
    for index, (aig, graph) in sorted(state.kept.items()):
        try:
            graph.validate()
        except AssertionError as exc:
            problems.append(f"circuit {index}: validate() failed: {exc}")
            continue
        if aig.num_pis <= EXACT_BELOW_PIS:
            exact = probability.gate_graph_probabilities(
                aig.to_gate_graph(), exact_below_pis=EXACT_BELOW_PIS
            )
            worst = float(np.max(np.abs(graph.labels - exact)))
            exact_checked += 1
            if worst > bound:
                problems.append(
                    f"circuit {index}: label error {worst:.4f} > {bound:.4f} "
                    "against exact enumeration"
                )
    if not state.kept:
        problems.append("no circuit was ingested")
    for phase in phases:
        phase.extra["exact_checked"] = exact_checked
    return problems


def report(phase: Phase) -> Dict[str, Metric]:
    lat = phase.latency()
    out = {
        "ingest_nodes_per_s": Metric(phase.nodes_per_s, "nodes/s", len(phase.latencies_ms)),
        "ingest_circuit_ms_p50": Metric(lat["p50"], "ms", lat["samples"]),
    }
    if lat["tail"]:
        out[f"ingest_circuit_ms_{lat['tail']}"] = Metric(
            lat["tail_value"], "ms", lat["samples"]
        )
    return out


def peak_rss(state: State) -> float:
    return peak_rss_mb()
