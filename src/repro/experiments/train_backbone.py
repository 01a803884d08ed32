"""Train the DeepGate probability backbone and publish its checkpoint.

Unlike the table experiments — which train models as a *means* to a
metrics table — this experiment's product is the trained model itself:
the run directory gains a ``checkpoint.npz`` artifact (written with
:func:`repro.nn.serialization.save_model_checkpoint`, so it embeds the
model architecture) and the run manifest records it under
``checkpoint`` together with the ``model_config``.  That makes trained
models first-class, cacheable run artifacts that ``repro serve --run
train_backbone`` resolves without a hand-given path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..models.deepgate import DeepGate
from ..runtime.registry import ExperimentResult, ExperimentSpec, experiment
from ..train.trainer import TrainConfig, Trainer, evaluate_model
from .common import format_rows, merged_dataset, resolve_scale

__all__ = ["TrainBackboneSpec", "run"]


@dataclass(frozen=True)
class TrainBackboneSpec(ExperimentSpec):
    """Backbone training knobs beyond the scale's defaults.

    ``eval_fraction`` is the held-out share used for the reported
    prediction error; ``aggregator`` picks the neighbourhood aggregator.
    """

    eval_fraction: float = 0.1
    aggregator: str = "attention"


def run(spec: TrainBackboneSpec) -> ExperimentResult:
    cfg = resolve_scale(spec)
    train, test = merged_dataset(cfg).split(
        1.0 - spec.eval_fraction, seed=cfg.seed
    )
    model = DeepGate(
        dim=cfg.dim,
        num_iterations=cfg.num_iterations,
        aggregator=spec.aggregator,
        rng=np.random.default_rng(cfg.seed),
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
    history = trainer.fit(train)
    eval_error = evaluate_model(model, test.prepared_batches(cfg.batch_size))
    num_params = sum(int(np.prod(p.data.shape)) for p in model.parameters())

    config = model.config()
    row: Dict[str, object] = {
        "model": "DeepGate",
        "dim": cfg.dim,
        "T": cfg.num_iterations,
        "epochs": cfg.epochs,
        "train_circuits": len(train),
        "eval_circuits": len(test),
        "params": num_params,
        "final_train_loss": history.final_train_loss,
        "eval_error": eval_error,
    }
    result = ExperimentResult(
        experiment="train_backbone",
        rows=[row],
        table=format_rows(
            list(row.keys()),
            [list(row.values())],
            title="Trained probability backbone",
        ),
        meta={
            "model_config": config,
            "train_loss": history.train_loss,
        },
    )

    checkpoint_meta = {
        "experiment": "train_backbone",
        "scale": cfg.name,
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "eval_error": eval_error,
    }

    def write_checkpoint(path) -> None:
        from ..nn.serialization import save_model_checkpoint

        save_model_checkpoint(model, path, meta=checkpoint_meta)

    result.extra_artifacts = {"checkpoint.npz": write_checkpoint}
    result.manifest_extra = {
        "checkpoint": "checkpoint.npz",
        "model_config": config,
    }
    return result


@experiment(
    "train_backbone",
    spec=TrainBackboneSpec,
    title="Trained probability backbone (servable checkpoint)",
    description=(
        "Train DeepGate on the merged all-suite pool and publish the "
        "checkpoint as a run artifact that `repro serve --run` resolves."
    ),
)
def _run(spec: TrainBackboneSpec) -> ExperimentResult:
    return run(spec)
