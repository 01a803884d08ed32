"""Table II — DeepGate versus baseline GNNs for probability prediction.

Trains all 13 configurations of the paper's grid (GCN and DAG-ConvGNN with
four aggregators each, DAG-RecGNN with three, DeepGate with and without
skip connections) on the merged suite dataset with a 90/10 split, and
reports the average prediction error of each next to the published value.

Expected shape (the reproduction target): GCN and DAG-ConvGNN errors are
several times larger than any recurrent model; DeepGate beats DAG-RecGNN;
skip connections improve DeepGate further.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..models.registry import (
    ModelConfig,
    build_model,
    config_from_code,
    table2_configs,
)
from ..runtime.registry import (
    ExperimentResult,
    ExperimentSpec,
    UnitSpec,
    experiment,
)
from ..train.trainer import TrainConfig, Trainer
from .common import (
    Scale,
    format_rows,
    get_scale,
    merged_dataset,
    resolve_scale,
)

__all__ = [
    "Table2Row",
    "Table2Spec",
    "PAPER_ERRORS",
    "run",
    "format_table",
    "main",
]

#: published Avg. Prediction Error for every grid row
PAPER_ERRORS: Dict[str, float] = {
    "GCN / Conv. Sum": 0.1386,
    "GCN / Attention": 0.1840,
    "GCN / DeepSet": 0.2541,
    "GCN / GatedSum": 0.1995,
    "DAG-ConvGNN / Conv. Sum": 0.2215,
    "DAG-ConvGNN / Attention": 0.2398,
    "DAG-ConvGNN / DeepSet": 0.2431,
    "DAG-ConvGNN / GatedSum": 0.2333,
    "DAG-RecGNN / Conv. Sum": 0.0328,
    "DAG-RecGNN / DeepSet": 0.0302,
    "DAG-RecGNN / GatedSum": 0.0329,
    "DeepGate / Attention w/o SC": 0.0234,
    "DeepGate / Attention w/ SC": 0.0204,
}


@dataclass
class Table2Row:
    config: ModelConfig
    error: float
    paper_error: float

    @property
    def label(self) -> str:
        return self.config.label


def run(
    scale: Union[str, Scale] = "default",
    configs: Optional[List[ModelConfig]] = None,
    train_fraction: float = 0.9,
) -> List[Table2Row]:
    """Train every configuration and evaluate on the held-out split."""
    cfg = get_scale(scale)
    dataset = merged_dataset(cfg)
    train, test = dataset.split(train_fraction, seed=cfg.seed)
    rows: List[Table2Row] = []
    for config in configs or table2_configs():
        model = build_model(
            config,
            dim=cfg.dim,
            num_iterations=cfg.num_iterations,
            num_layers=cfg.num_layers,
            seed=cfg.seed,
        )
        trainer = Trainer(
            model,
            TrainConfig(
                epochs=cfg.epochs,
                batch_size=cfg.batch_size,
                lr=cfg.lr,
                seed=cfg.seed,
            ),
        )
        trainer.fit(train)
        error = trainer.evaluate(test)
        rows.append(
            Table2Row(config, error, PAPER_ERRORS.get(config.label, float("nan")))
        )
    return rows


def format_table(rows: List[Table2Row]) -> str:
    body = [[r.label, r.error, r.paper_error] for r in rows]
    return format_rows(
        ["Model / Aggregator", "Avg. Pred. Error (ours)", "paper"],
        body,
        title="Table II: model comparison for logic probability prediction",
    )


@dataclass(frozen=True)
class Table2Spec(ExperimentSpec):
    """Model-comparison grid; ``models`` narrows it to named configs.

    Model codes are ``kind/aggregator[/sc]`` (see
    :func:`repro.models.registry.config_from_code`); an empty tuple means
    the full 13-row grid.
    """

    train_fraction: float = 0.9
    models: Tuple[str, ...] = ()

    def model_configs(self) -> Optional[List[ModelConfig]]:
        if not self.models:
            return None
        return [config_from_code(code) for code in self.models]


def _units(spec: Table2Spec) -> List[UnitSpec]:
    """One unit per grid row (model configuration), in paper order."""
    configs = spec.model_configs() or table2_configs()
    return [UnitSpec(key=c.code, title=c.label) for c in configs]


def _run_unit(spec: Table2Spec, unit: UnitSpec) -> dict:
    """Train and evaluate a single model configuration."""
    row = run(
        resolve_scale(spec),
        configs=[config_from_code(unit.key)],
        train_fraction=spec.train_fraction,
    )[0]
    return {
        "model": row.label,
        "code": row.config.code,
        "error": row.error,
        "paper_error": row.paper_error,
    }


@experiment(
    "table2",
    spec=Table2Spec,
    title="Table II: model comparison for logic probability prediction",
    description="Train the model grid and report held-out prediction error.",
    units=_units,
    run_unit=_run_unit,
)
def _merge(spec: Table2Spec, unit_results: List[dict]) -> ExperimentResult:
    rows = [
        Table2Row(
            config=config_from_code(r["code"]),
            error=r["error"],
            paper_error=r["paper_error"],
        )
        for r in unit_results
    ]
    return ExperimentResult(
        experiment="table2",
        rows=list(unit_results),
        table=format_table(rows),
    )
