"""Shared experiment infrastructure: scales, dataset caching, formatting.

Every experiment runs at a named *scale*:

``smoke``    seconds; used by the pytest benchmarks so the whole harness
             regenerates every table in one CI run
``default``  minutes on a laptop CPU; big enough for the paper's relative
             orderings to emerge
``paper``    the paper's hyper-parameters (10,824 circuits, d=64, T=10,
             60 epochs, 100k simulation patterns) — hours to days on CPU;
             provided for completeness

Numbers will not match the paper exactly (different circuits, from-scratch
substrate, smaller budgets) — the *shape* of each table (who wins, by what
rough factor) is the reproduction target.  EXPERIMENTS.md records both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..datagen.pipeline import PipelineConfig, build_shards, generate_suite
from ..graphdata.dataset import CircuitDataset, ShardedCircuitDataset
from ..utils import default_workers

__all__ = [
    "Scale",
    "SCALES",
    "get_scale",
    "resolve_scale",
    "cached_suites",
    "merged_dataset",
    "format_rows",
    "design_netlist",
    "design_aig",
    "as_gate_graph",
    "safe_corrcoef",
    "spearman",
    "stable_hash",
    "design_seed",
    "pretrained_backbone",
]


@dataclass(frozen=True)
class Scale:
    """All knobs that trade fidelity for runtime."""

    name: str
    circuits_per_suite: Tuple[Tuple[str, int], ...]
    num_patterns: int
    dim: int
    num_iterations: int  # T for recurrent models
    num_layers: int  # L for layered baselines
    epochs: int
    batch_size: int
    lr: float
    min_nodes: int = 30
    max_nodes: int = 3000
    max_levels: int = 80
    seed: int = 0

    def suite_counts(self) -> Dict[str, int]:
        return dict(self.circuits_per_suite)


SCALES: Dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        circuits_per_suite=(("EPFL", 3), ("ITC99", 4), ("IWLS", 3), ("OpenCores", 3)),
        num_patterns=4096,
        dim=24,
        num_iterations=4,
        num_layers=2,
        epochs=24,
        batch_size=4,
        lr=2e-3,
        max_nodes=400,
        max_levels=50,
    ),
    "default": Scale(
        name="default",
        circuits_per_suite=(
            ("EPFL", 10),
            ("ITC99", 14),
            ("IWLS", 10),
            ("OpenCores", 10),
        ),
        num_patterns=15_000,
        dim=32,
        num_iterations=5,
        num_layers=3,
        epochs=40,
        batch_size=8,
        lr=1e-3,
        max_nodes=1200,
        max_levels=70,
    ),
    "paper": Scale(
        name="paper",
        circuits_per_suite=(
            ("EPFL", 828),
            ("ITC99", 7560),
            ("IWLS", 1281),
            ("OpenCores", 1155),
        ),
        num_patterns=100_000,
        dim=64,
        num_iterations=10,
        num_layers=4,
        epochs=60,
        batch_size=32,
        lr=1e-4,
    ),
}


def get_scale(scale: Union[str, Scale]) -> Scale:
    """Look a scale up by name; a :class:`Scale` passes through unchanged
    (so experiment ``run`` functions accept either)."""
    if isinstance(scale, Scale):
        return scale
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    return SCALES[scale]


def resolve_scale(spec) -> Scale:
    """The :class:`Scale` for an experiment spec, with overrides applied.

    ``spec`` is any :class:`repro.runtime.ExperimentSpec`: its ``seed`` and
    ``epochs`` fields, when not ``None``, replace the scale's values.
    """
    cfg = get_scale(spec.scale)
    overrides = {}
    if spec.seed is not None:
        overrides["seed"] = spec.seed
    if spec.epochs is not None:
        overrides["epochs"] = spec.epochs
    return replace(cfg, **overrides) if overrides else cfg


# one dataset build per (scale, seed, data_dir) per process: experiments
# share it; the resolved data_dir is part of the key so an explicit
# data_dir is never shadowed by an earlier in-memory build
_SUITE_CACHE: Dict[
    Tuple[str, int, Optional[str]], Dict[str, CircuitDataset]
] = {}


def cached_suites(
    scale: Scale,
    data_dir: Optional[Union[str, Path]] = None,
    workers: Optional[int] = None,
) -> Dict[str, CircuitDataset]:
    """Build (or fetch) the per-suite datasets for a scale.

    All experiment data now flows through the sharded pipeline
    (:mod:`repro.datagen.pipeline`), so the circuits are identical to what
    ``python -m repro dataset build --scale <name>`` writes to disk.  When
    ``data_dir`` (or the ``REPRO_DATA_DIR`` environment variable) is set,
    shards are built there — in parallel, once — and reused across
    processes; otherwise generation happens serially in-process, memoised
    per ``(scale, seed)``.
    """
    data_dir = data_dir or os.environ.get("REPRO_DATA_DIR")
    key = (scale.name, scale.seed, str(data_dir) if data_dir else None)
    if key not in _SUITE_CACHE:
        config = PipelineConfig.from_scale(scale)
        if data_dir:
            out_dir = Path(data_dir) / f"{scale.name}-seed{scale.seed}"
            result = build_shards(
                config, out_dir, workers=workers or default_workers()
            )
            suites = ShardedCircuitDataset(result.out_dir).by_suite()
        else:
            suites = {
                name: CircuitDataset(generate_suite(config, name), name=name)
                for name, _ in config.suites
            }
        _SUITE_CACHE[key] = suites
    return _SUITE_CACHE[key]


def merged_dataset(scale: Scale) -> CircuitDataset:
    """All suites merged into one dataset (the paper's training pool)."""
    suites = cached_suites(scale)
    graphs = [g for name in sorted(suites) for g in suites[name]]
    return CircuitDataset(graphs, name=f"all[{scale.name}]")


def format_rows(
    headers: List[str], rows: List[List[object]], title: str = ""
) -> str:
    """Plain-text table formatting for experiment reports."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


# ---------------------------------------------------------------------------
# downstream-workload helpers (shared by the example-derived experiments)
# ---------------------------------------------------------------------------


def design_netlist(design: str):
    """Build a catalog design from a ``"name"`` or ``"name:param"`` string.

    The single integer after the colon overrides the generator's (only)
    default parameter — ``"priority_arbiter:12"`` is a 12-request
    arbiter.  Keeping designs as strings keeps experiment specs JSON-able
    and hashable.
    """
    from ..datagen.generators import GENERATOR_CATALOG

    name, _, raw = design.partition(":")
    if name not in GENERATOR_CATALOG:
        raise ValueError(
            f"unknown design {name!r}; choose from {sorted(GENERATOR_CATALOG)}"
        )
    factory, defaults = GENERATOR_CATALOG[name]
    params = dict(defaults)
    if raw:
        (key,) = params.keys()
        params[key] = int(raw)
    return factory(**params)


def design_aig(design: str, optimize: bool = True):
    """A catalog design as a constant-free AIG (optionally synthesised)."""
    from ..synth.pipeline import (
        has_constant_outputs,
        strip_constant_outputs,
        synthesize,
    )
    from ..synth.transform import netlist_to_aig

    netlist = design_netlist(design)
    aig = synthesize(netlist) if optimize else netlist_to_aig(netlist)
    if has_constant_outputs(aig):
        aig = strip_constant_outputs(aig)
    return aig


def as_gate_graph(circuit_graph):
    """Rebuild the :class:`GateGraph` view the testability oracles need.

    A featurised :class:`CircuitGraph` drops the output list, so nodes
    with no fanout act as the observable outputs.
    """
    from ..aig.graph import GateGraph

    has_fanout = np.zeros(circuit_graph.num_nodes, dtype=bool)
    if circuit_graph.num_edges:
        has_fanout[circuit_graph.edges[:, 0]] = True
    return GateGraph(
        node_type=circuit_graph.node_type.astype(np.int8),
        edges=circuit_graph.edges,
        outputs=np.nonzero(~has_fanout)[0],
        name=circuit_graph.name,
    )


def safe_corrcoef(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation that degrades to 0.0 instead of NaN.

    ``np.corrcoef`` returns NaN when either array is (near-)constant —
    parity circuits have every signal probability at exactly 0.5 — and a
    NaN would poison JSON artifacts and golden comparisons.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.std() < 1e-12 or b.std() < 1e-12:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (Pearson over argsort ranks)."""
    ra = np.argsort(np.argsort(a)).astype(np.float64)
    rb = np.argsort(np.argsort(b)).astype(np.float64)
    return safe_corrcoef(ra, rb)


def stable_hash(text: str) -> int:
    """FNV-1a string hash: process-independent, unlike ``hash()``.

    Seeds derived from design names must not depend on
    ``PYTHONHASHSEED``, or worker processes would label circuits
    differently than the serial path.
    """
    h = 2166136261
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 16777619) % (2**32)
    return h


def design_seed(cfg: Scale, design: str, salt: int = 0) -> int:
    """Simulation seed derived from (scale seed, design name, salt)."""
    return (cfg.seed * 1009 + stable_hash(design) + salt) % (2**31)


# one pre-trained probability backbone per resolved scale per process:
# serial unit execution trains it once and every unit shares it; worker
# processes retrain their own copy, which is bitwise identical because
# dataset generation, model init and training are all seeded from the
# scale (the same scheme table4's pre-trained arm uses)
_BACKBONE_CACHE: Dict[Scale, object] = {}


def pretrained_backbone(cfg: Scale):
    """DeepGate pre-trained on the merged all-suite pool (memoised)."""
    if cfg not in _BACKBONE_CACHE:
        from ..models.deepgate import DeepGate
        from ..train.trainer import TrainConfig, Trainer

        train, _ = merged_dataset(cfg).split(0.9, seed=cfg.seed)
        model = DeepGate(
            dim=cfg.dim,
            num_iterations=cfg.num_iterations,
            rng=np.random.default_rng(cfg.seed),
        )
        Trainer(
            model,
            TrainConfig(
                epochs=cfg.epochs,
                batch_size=cfg.batch_size,
                lr=cfg.lr,
                seed=cfg.seed,
            ),
        ).fit(train)
        _BACKBONE_CACHE[cfg] = model
    return _BACKBONE_CACHE[cfg]
