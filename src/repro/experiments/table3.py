"""Table III — generalisation to circuits far larger than training.

Trains DeepGate (w/ skip connections) and the best baseline (DAG-RecGNN
with the DeepSet aggregator) on small sub-circuits, then evaluates both on
five large designs: an arbiter, a squarer, a multiplier and two
processor-like datapaths — the same families the paper uses (its Arbiter /
Squarer / Multiplier come from EPFL, plus 80386 and Viper processors).

Expected shape: DeepGate's error stays near its small-circuit level and
beats DeepSet on every design, most on the reconvergence-dense arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

from ..datagen import generators as gen
from ..graphdata.dataset import CircuitDataset
from ..graphdata.features import from_aig
from ..models.registry import ModelConfig, build_model
from ..runtime.registry import (
    ExperimentResult,
    ExperimentSpec,
    UnitSpec,
    experiment,
)
from ..synth.pipeline import has_constant_outputs, strip_constant_outputs, synthesize
from ..train.trainer import TrainConfig, Trainer, evaluate_model
from .common import (
    Scale,
    format_rows,
    get_scale,
    merged_dataset,
    resolve_scale,
)

__all__ = ["Table3Row", "Table3Spec", "PAPER_ROWS", "run", "format_table", "main"]

#: design -> (paper #nodes, paper levels, DeepSet err, DeepGate err)
PAPER_ROWS: Dict[str, Tuple[float, int, float, float]] = {
    "Arbiter": (23_700, 173, 0.0277, 0.0073),
    "Squarer": (36_000, 373, 0.0495, 0.0346),
    "Multiplier": (47_300, 521, 0.0220, 0.0159),
    "Processor-A": (13_200, 122, 0.0534, 0.0387),  # 80386 in the paper
    "Processor-B": (40_500, 133, 0.0520, 0.0389),  # Viper in the paper
}

#: generator parameters per scale for the five large designs
_DESIGN_PARAMS: Dict[str, Dict[str, int]] = {
    "smoke": {"arbiter": 8, "squarer": 8, "multiplier": 8, "proc_a": 8, "proc_b": 10},
    "default": {
        "arbiter": 16,
        "squarer": 12,
        "multiplier": 12,
        "proc_a": 12,
        "proc_b": 16,
    },
    "paper": {
        "arbiter": 64,
        "squarer": 64,
        "multiplier": 64,
        "proc_a": 48,
        "proc_b": 64,
    },
}


@dataclass
class Table3Row:
    design: str
    nodes: int
    levels: int
    deepset_error: float
    deepgate_error: float

    @property
    def reduction(self) -> float:
        """Relative error reduction of DeepGate over DeepSet (percent)."""
        if self.deepset_error == 0:
            return 0.0
        return 100.0 * (1.0 - self.deepgate_error / self.deepset_error)


def large_designs(scale: Scale, num_patterns: int = None) -> CircuitDataset:
    """Build the five large evaluation circuits for a scale."""
    p = _DESIGN_PARAMS[scale.name]
    rng = np.random.default_rng(scale.seed + 77)
    # the paper's Arbiter is the EPFL round-robin design, whose rotating
    # scan logic is reconvergence-dense (fixed-priority arbiters synthesise
    # into reconvergence-free trees and would not exercise skip connections)
    netlists = {
        "Arbiter": gen.round_robin_arbiter(p["arbiter"]),
        "Squarer": gen.squarer(p["squarer"]),
        "Multiplier": gen.multiplier(p["multiplier"]),
        "Processor-A": gen.processor_like(p["proc_a"], rng),
        "Processor-B": gen.processor_like(p["proc_b"], rng),
    }
    graphs = []
    patterns = num_patterns or scale.num_patterns
    for name, nl in netlists.items():
        aig = synthesize(nl)
        if has_constant_outputs(aig):
            aig = strip_constant_outputs(aig)
        graph = from_aig(aig, num_patterns=patterns, seed=scale.seed)
        graph.name = name
        graphs.append(graph)
    return CircuitDataset(graphs, name=f"large[{scale.name}]")


def run(scale: Union[str, Scale] = "default") -> List[Table3Row]:
    cfg = get_scale(scale)
    dataset = merged_dataset(cfg)
    train, _ = dataset.split(0.9, seed=cfg.seed)
    large = large_designs(cfg)

    def train_model(config: ModelConfig):
        model = build_model(
            config,
            dim=cfg.dim,
            num_iterations=cfg.num_iterations,
            num_layers=cfg.num_layers,
            seed=cfg.seed,
        )
        Trainer(
            model,
            TrainConfig(
                epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, seed=cfg.seed
            ),
        ).fit(train)
        return model

    deepset = train_model(ModelConfig("dag_rec", "deepset"))
    deepgate = train_model(ModelConfig("deepgate", "attention", use_skip=True))

    rows: List[Table3Row] = []
    for graph in large:
        batch_ds = CircuitDataset([graph]).prepared_batches(1)
        rows.append(
            Table3Row(
                design=graph.name,
                nodes=graph.num_nodes,
                levels=graph.depth,
                deepset_error=evaluate_model(deepset, batch_ds),
                deepgate_error=evaluate_model(deepgate, batch_ds),
            )
        )
    return rows


def format_table(rows: List[Table3Row]) -> str:
    body = []
    for r in rows:
        paper = PAPER_ROWS[r.design]
        body.append(
            [
                r.design,
                r.nodes,
                r.levels,
                r.deepset_error,
                r.deepgate_error,
                f"{r.reduction:.1f}%",
                paper[2],
                paper[3],
            ]
        )
    return format_rows(
        [
            "Design",
            "#Nodes",
            "Levels",
            "DeepSet",
            "DeepGate",
            "Reduction",
            "paperDeepSet",
            "paperDeepGate",
        ],
        body,
        title="Table III: generalisation to large circuits",
    )


@dataclass(frozen=True)
class Table3Spec(ExperimentSpec):
    """Large-design generalisation needs no knobs beyond the base spec."""


#: unit key -> the model arm it trains and evaluates
_ARM_CONFIGS: Dict[str, ModelConfig] = {
    "deepset": ModelConfig("dag_rec", "deepset"),
    "deepgate": ModelConfig("deepgate", "attention", use_skip=True),
}


def _units(spec: Table3Spec) -> List[UnitSpec]:
    """One unit per model arm; each trains once and sweeps all designs."""
    return [
        UnitSpec(key=key, title=cfg.label)
        for key, cfg in _ARM_CONFIGS.items()
    ]


def _run_unit(spec: Table3Spec, unit: UnitSpec) -> dict:
    """Train one arm on the small pool, evaluate every large design."""
    cfg = resolve_scale(spec)
    train, _ = merged_dataset(cfg).split(0.9, seed=cfg.seed)
    model = build_model(
        _ARM_CONFIGS[unit.key],
        dim=cfg.dim,
        num_iterations=cfg.num_iterations,
        num_layers=cfg.num_layers,
        seed=cfg.seed,
    )
    Trainer(
        model,
        TrainConfig(
            epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, seed=cfg.seed
        ),
    ).fit(train)
    designs = []
    for graph in large_designs(cfg):
        batch_ds = CircuitDataset([graph]).prepared_batches(1)
        designs.append(
            {
                "design": graph.name,
                "nodes": graph.num_nodes,
                "levels": graph.depth,
                "error": evaluate_model(model, batch_ds),
            }
        )
    return {"arm": unit.key, "designs": designs}


@experiment(
    "table3",
    spec=Table3Spec,
    title="Table III: generalisation to large circuits",
    description="Train on small sub-circuits, evaluate on five large designs.",
    units=_units,
    run_unit=_run_unit,
)
def _merge(spec: Table3Spec, unit_results: List[dict]) -> ExperimentResult:
    by_arm = {r["arm"]: r["designs"] for r in unit_results}
    rows = [
        Table3Row(
            design=deepset["design"],
            nodes=deepset["nodes"],
            levels=deepset["levels"],
            deepset_error=deepset["error"],
            deepgate_error=deepgate["error"],
        )
        for deepset, deepgate in zip(by_arm["deepset"], by_arm["deepgate"])
    ]
    return ExperimentResult(
        experiment="table3",
        rows=[
            {
                "design": r.design,
                "nodes": r.nodes,
                "levels": r.levels,
                "deepset_error": r.deepset_error,
                "deepgate_error": r.deepgate_error,
                "reduction_pct": r.reduction,
            }
            for r in rows
        ],
        table=format_table(rows),
    )
