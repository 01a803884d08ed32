"""Ablations of DeepGate's design choices (beyond the paper's tables).

DESIGN.md calls out four load-bearing choices; each gets a controlled
comparison:

* **reverse layer** — forward-only vs forward+reverse propagation (§III-C
  motivates reverse layers with logic implication);
* **fixed x_v input** — gate-type one-hot fed into every GRU update vs the
  previous-DAG-GNN convention of using it only as the initial state;
* **attention on reconvergence** — attention vs Conv. Sum aggregation on an
  arbiter-family dataset where controlling values dominate;
* **COP baseline** — the classical analytic probability estimator against
  a trained DeepGate, quantifying how much reconvergence-aware learning
  buys over independence-assuming propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

from ..datagen import generators as gen
from ..graphdata.dataset import CircuitDataset
from ..graphdata.features import from_aig
from ..models.deepgate import DeepGate
from ..runtime.registry import (
    ExperimentResult,
    ExperimentSpec,
    UnitSpec,
    experiment,
)
from ..synth.pipeline import has_constant_outputs, strip_constant_outputs, synthesize
from ..train.metrics import ErrorAccumulator
from ..train.trainer import TrainConfig, Trainer
from .common import (
    Scale,
    format_rows,
    get_scale,
    merged_dataset,
    resolve_scale,
)

__all__ = ["AblationRow", "AblationsSpec", "SECTIONS", "run", "format_table", "main"]


@dataclass
class AblationRow:
    name: str
    variant: str
    error: float


def _train(model: DeepGate, train: CircuitDataset, cfg: Scale) -> DeepGate:
    Trainer(
        model,
        TrainConfig(
            epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, seed=cfg.seed
        ),
    ).fit(train)
    return model


def _eval(model: DeepGate, test: CircuitDataset, cfg: Scale) -> float:
    from ..train.trainer import evaluate_model

    return evaluate_model(model, test.prepared_batches(cfg.batch_size))


def _deepgate(cfg: Scale, **kwargs) -> DeepGate:
    params = dict(
        dim=cfg.dim,
        num_iterations=cfg.num_iterations,
        rng=np.random.default_rng(cfg.seed),
    )
    params.update(kwargs)
    return DeepGate(**params)


def reverse_layer_ablation(cfg: Scale) -> List[AblationRow]:
    dataset = merged_dataset(cfg)
    train, test = dataset.split(0.9, seed=cfg.seed)
    rows = []
    for variant, use_reverse in (("forward+reverse", True), ("forward only", False)):
        model = _train(_deepgate(cfg, use_reverse=use_reverse), train, cfg)
        rows.append(AblationRow("reverse layer", variant, _eval(model, test, cfg)))
    return rows


def input_mode_ablation(cfg: Scale) -> List[AblationRow]:
    dataset = merged_dataset(cfg)
    train, test = dataset.split(0.9, seed=cfg.seed)
    rows = []
    for variant, mode in (("fixed x_v input", "fixed_x"), ("x_v as h0 only", "init_only")):
        model = _train(_deepgate(cfg, input_mode=mode), train, cfg)
        rows.append(AblationRow("gate-type input", variant, _eval(model, test, cfg)))
    return rows


def _arbiter_dataset(cfg: Scale) -> CircuitDataset:
    """Reconvergence-dense round-robin arbiters of varying size."""
    graphs = []
    rng = np.random.default_rng(cfg.seed + 5)
    sizes = [3, 4, 5, 6, 7, 8, 9, 10]
    for k, n in enumerate(sizes):
        aig = synthesize(gen.round_robin_arbiter(n))
        if has_constant_outputs(aig):
            aig = strip_constant_outputs(aig)
        graphs.append(
            from_aig(
                aig,
                num_patterns=cfg.num_patterns,
                seed=int(rng.integers(0, 2**31)),
            )
        )
    return CircuitDataset(graphs, "arbiters")


def attention_on_reconvergence_ablation(cfg: Scale) -> List[AblationRow]:
    dataset = _arbiter_dataset(cfg)
    train, test = dataset.split(0.75, seed=cfg.seed)
    rows = []
    variants = (
        ("attention w/ SC", dict(aggregator="attention", use_skip=True)),
        ("attention w/o SC", dict(aggregator="attention", use_skip=False)),
        ("conv. sum", dict(aggregator="conv_sum", use_skip=False)),
    )
    for variant, kwargs in variants:
        model = _train(_deepgate(cfg, **kwargs), train, cfg)
        rows.append(
            AblationRow("arbiter aggregation", variant, _eval(model, test, cfg))
        )
    return rows


def cop_baseline(cfg: Scale) -> List[AblationRow]:
    """COP analytic estimator vs trained DeepGate on the same test split."""
    dataset = merged_dataset(cfg)
    train, test = dataset.split(0.9, seed=cfg.seed)
    model = _train(_deepgate(cfg), train, cfg)
    deepgate_err = _eval(model, test, cfg)
    # COP needs AIG structure; labels live on the gate graph, so map them
    acc = ErrorAccumulator()
    for graph in test:
        cop = _cop_on_graph(graph)
        acc.add(cop, graph.labels)
    return [
        AblationRow("vs analytic", "COP (no learning)", acc.value),
        AblationRow("vs analytic", "DeepGate", deepgate_err),
    ]


def _cop_on_graph(graph) -> np.ndarray:
    """COP probabilities computed level-wise directly on a gate graph."""
    from ..aig.graph import AND, NOT

    probs = np.full(graph.num_nodes, 0.5, dtype=np.float64)
    fanins: Dict[int, List[int]] = {v: [] for v in range(graph.num_nodes)}
    for u, v in graph.edges:
        fanins[int(v)].append(int(u))
    for v in range(graph.num_nodes):
        t = int(graph.node_type[v])
        if t == AND:
            p, q = fanins[v]
            probs[v] = probs[p] * probs[q]
        elif t == NOT:
            probs[v] = 1.0 - probs[fanins[v][0]]
    return probs


#: section name -> controlled comparison (``run``'s ``which`` filter)
SECTIONS = {
    "reverse_layer": reverse_layer_ablation,
    "input_mode": input_mode_ablation,
    "attention": attention_on_reconvergence_ablation,
    "cop": cop_baseline,
}


def run(
    scale: Union[str, Scale] = "default",
    which: Tuple[str, ...] = (),
) -> List[AblationRow]:
    """Run the requested ablation sections (all of them by default)."""
    cfg = get_scale(scale)
    names = which or tuple(SECTIONS)
    unknown = [n for n in names if n not in SECTIONS]
    if unknown:
        raise ValueError(
            f"unknown ablation sections {unknown}; choose from {sorted(SECTIONS)}"
        )
    rows: List[AblationRow] = []
    for name in names:
        rows.extend(SECTIONS[name](cfg))
    return rows


def format_table(rows: List[AblationRow]) -> str:
    body = [[r.name, r.variant, r.error] for r in rows]
    return format_rows(
        ["Ablation", "Variant", "Avg. Pred. Error"],
        body,
        title="Design-choice ablations",
    )


@dataclass(frozen=True)
class AblationsSpec(ExperimentSpec):
    """Design-choice ablations; ``which`` selects sections (empty = all)."""

    which: Tuple[str, ...] = ()


def _units(spec: AblationsSpec) -> List[UnitSpec]:
    """One unit per requested ablation section (all four by default)."""
    names = spec.which or tuple(SECTIONS)
    unknown = [n for n in names if n not in SECTIONS]
    if unknown:
        raise ValueError(
            f"unknown ablation sections {unknown}; choose from {sorted(SECTIONS)}"
        )
    return [UnitSpec(key=name) for name in names]


def _run_unit(spec: AblationsSpec, unit: UnitSpec) -> dict:
    """Run one section's controlled comparison."""
    rows = SECTIONS[unit.key](resolve_scale(spec))
    return {
        "section": unit.key,
        "rows": [
            {"ablation": r.name, "variant": r.variant, "error": r.error}
            for r in rows
        ],
    }


@experiment(
    "ablations",
    spec=AblationsSpec,
    title="Design-choice ablations",
    description="Controlled comparisons of DeepGate's load-bearing choices.",
    units=_units,
    run_unit=_run_unit,
)
def _merge(spec: AblationsSpec, unit_results: List[dict]) -> ExperimentResult:
    row_dicts = [row for r in unit_results for row in r["rows"]]
    rows = [
        AblationRow(r["ablation"], r["variant"], r["error"]) for r in row_dicts
    ]
    return ExperimentResult(
        experiment="ablations",
        rows=row_dicts,
        table=format_table(rows),
    )
