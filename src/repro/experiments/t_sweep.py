"""Figure (§IV-D.2) — impact of the number of recurrence iterations T.

The paper trains DeepGate with T=10 and sweeps inference-time T from 1 to
50, observing that prediction error drops with T and converges around
T = 10 regardless of circuit size.  This harness trains once and evaluates
the same trained model at every requested T, producing the error-vs-T
series (the "figure" as data rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..models.deepgate import DeepGate
from ..runtime.registry import (
    ExperimentResult,
    ExperimentSpec,
    UnitSpec,
    experiment,
)
from ..train.trainer import TrainConfig, Trainer, evaluate_model
from .common import (
    Scale,
    format_rows,
    get_scale,
    merged_dataset,
    resolve_scale,
)

__all__ = [
    "TSweepPoint",
    "TSweepSpec",
    "run",
    "format_table",
    "main",
    "DEFAULT_T_VALUES",
]

DEFAULT_T_VALUES = (1, 2, 3, 5, 8, 10, 15, 20, 30, 50)


@dataclass
class TSweepPoint:
    num_iterations: int
    error: float


# one trained model per (scale, T_train) per process: the serial unit
# path trains once and sweeps every T from the memo (same cost as the
# old train-once runner); a worker process retraining for its own sweep
# point reproduces bitwise the same model because training is fully
# seeded (model init, shuffle, updates)
_TRAINED_CACHE: dict = {}


def _trained_model_and_batches(cfg: Scale, train_iterations: Optional[int]):
    """The swept model plus its held-out eval batches (memoised)."""
    key = (cfg, train_iterations)
    if key not in _TRAINED_CACHE:
        _TRAINED_CACHE[key] = _train_for_sweep(cfg, train_iterations)
    return _TRAINED_CACHE[key]


def _train_for_sweep(cfg: Scale, train_iterations: Optional[int]):
    dataset = merged_dataset(cfg)
    train, test = dataset.split(0.9, seed=cfg.seed)
    model = DeepGate(
        dim=cfg.dim,
        num_iterations=train_iterations or max(cfg.num_iterations, 8),
        rng=np.random.default_rng(cfg.seed),
    )
    Trainer(
        model,
        TrainConfig(
            epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, seed=cfg.seed
        ),
    ).fit(train)
    return model, test.prepared_batches(cfg.batch_size)


def run(
    scale: Union[str, Scale] = "default",
    t_values: Optional[Sequence[int]] = None,
    train_iterations: Optional[int] = None,
) -> List[TSweepPoint]:
    """Train once (at ``train_iterations``, default 8+) and sweep inference T.

    The paper trains at T=10; sweeping a model trained with very small T
    diverges beyond the trained horizon, so the sweep trains with at least
    8 iterations regardless of the scale's default.
    """
    cfg = get_scale(scale)
    model, batches = _trained_model_and_batches(cfg, train_iterations)
    values = list(t_values) if t_values is not None else list(DEFAULT_T_VALUES)
    return [
        TSweepPoint(t, evaluate_model(model, batches, num_iterations=t))
        for t in values
    ]


def convergence_iteration(
    points: List[TSweepPoint], tolerance: float = 0.002
) -> int:
    """Smallest T whose error is within ``tolerance`` of the best error."""
    best = min(p.error for p in points)
    for p in sorted(points, key=lambda q: q.num_iterations):
        if p.error <= best + tolerance:
            return p.num_iterations
    return points[-1].num_iterations  # pragma: no cover - unreachable


def format_table(points: List[TSweepPoint]) -> str:
    body = [[p.num_iterations, p.error] for p in points]
    table = format_rows(
        ["T", "Avg. Pred. Error"],
        body,
        title="Figure (T-sweep): prediction error vs recurrence iterations",
    )
    conv = convergence_iteration(points)
    return table + f"\nconverges by T = {conv} (paper: around T = 10)"


@dataclass(frozen=True)
class TSweepSpec(ExperimentSpec):
    """Inference-time T sweep of one trained model."""

    t_values: Tuple[int, ...] = DEFAULT_T_VALUES
    train_iterations: Optional[int] = None


def _units(spec: TSweepSpec) -> List[UnitSpec]:
    """One unit per sweep point T."""
    return [
        UnitSpec(key=f"T={t}", params=(("t", int(t)),)) for t in spec.t_values
    ]


def _run_unit(spec: TSweepSpec, unit: UnitSpec) -> dict:
    """Evaluate the (deterministically retrained) model at one T."""
    cfg = resolve_scale(spec)
    model, batches = _trained_model_and_batches(cfg, spec.train_iterations)
    t = int(unit.params_dict()["t"])
    return {"T": t, "error": evaluate_model(model, batches, num_iterations=t)}


@experiment(
    "tsweep",
    spec=TSweepSpec,
    title="Figure (T-sweep): prediction error vs recurrence iterations",
    description="Train once, evaluate at every requested iteration count T.",
    units=_units,
    run_unit=_run_unit,
)
def _merge(spec: TSweepSpec, unit_results: List[dict]) -> ExperimentResult:
    points = [TSweepPoint(r["T"], r["error"]) for r in unit_results]
    return ExperimentResult(
        experiment="tsweep",
        rows=[
            {"T": p.num_iterations, "error": p.error} for p in points
        ],
        table=format_table(points),
        meta={"convergence_T": convergence_iteration(points)},
    )
