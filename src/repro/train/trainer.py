"""Training loop: Adam + L1 loss on signal probabilities (paper §III-C).

The :class:`Trainer` streams batches through a
:class:`~repro.graphdata.loader.DataLoader`: nothing is materialised up
front, every epoch reshuffles deterministically (seeded by
``SeedSequence([seed, epoch])``), and a background thread prefetches the
next batch — so the same loop trains from an in-memory
:class:`CircuitDataset` or straight from on-disk shards.  Checkpoints
capture model parameters, optimizer slots and the loss history; a resumed
run continues bitwise-identically to an uninterrupted one because the
per-epoch shuffle depends only on ``(seed, epoch)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..graphdata.dataset import (
    CircuitDataset,
    PreparedBatch,
    ShardedCircuitDataset,
)
from ..graphdata.loader import DataLoader, as_loader
from ..models.deepgate import DeepGate
from ..nn.functional import l1_loss
from ..nn.modules import Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.serialization import load_checkpoint, save_checkpoint
from ..nn.tensor import no_grad
from .callbacks import Callback
from .metrics import ErrorAccumulator

__all__ = [
    "NonFiniteTrainingError",
    "TrainConfig",
    "TrainHistory",
    "Trainer",
    "evaluate_model",
]

TrainData = Union[CircuitDataset, ShardedCircuitDataset, DataLoader]


class NonFiniteTrainingError(FloatingPointError):
    """A training step produced a NaN or infinite loss or gradient norm.

    Raised before the optimizer step, so the parameters are still those
    the step started from.  ``epoch`` and ``step`` (0-based, the batch
    index within the epoch) locate the batch.
    """

    def __init__(self, epoch: int, step: int, loss: float, grad_norm: float):
        super().__init__(
            f"non-finite training step at epoch {epoch}, step {step}: "
            f"loss={loss}, gradient norm={grad_norm}"
        )
        self.epoch = epoch
        self.step = step
        self.loss = loss
        self.grad_norm = grad_norm


@dataclass
class TrainConfig:
    """Hyper-parameters; paper defaults are lr=1e-4 Adam for 60 epochs.

    ``shuffle`` reshuffles the training batches every epoch (seeded, so
    runs stay reproducible); ``prefetch`` is how many prepared batches the
    loader's background thread may run ahead (0 disables the thread).
    """

    epochs: int = 60
    batch_size: int = 16
    lr: float = 1e-4
    grad_clip: float = 5.0
    seed: int = 0
    verbose: bool = False
    shuffle: bool = True
    prefetch: int = 2


@dataclass
class TrainHistory:
    train_loss: List[float] = field(default_factory=list)
    eval_error: List[float] = field(default_factory=list)

    @property
    def final_train_loss(self) -> Optional[float]:
        """Last epoch's training loss; ``None`` before any epoch has run."""
        return self.train_loss[-1] if self.train_loss else None

    @property
    def best_eval_error(self) -> Optional[float]:
        """Best evaluation error seen; ``None`` if never evaluated."""
        return min(self.eval_error) if self.eval_error else None

    def to_dict(self) -> Dict[str, List[float]]:
        return {
            "train_loss": list(self.train_loss),
            "eval_error": list(self.eval_error),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, List[float]]) -> "TrainHistory":
        return cls(
            train_loss=[float(x) for x in data.get("train_loss", [])],
            eval_error=[float(x) for x in data.get("eval_error", [])],
        )


def evaluate_model(
    model: Module,
    batches: Iterable[PreparedBatch],
    num_iterations: Optional[int] = None,
) -> float:
    """Average prediction error (Eq. 8) of ``model`` over ``batches``."""
    acc = ErrorAccumulator()
    with no_grad():
        for batch in batches:
            if num_iterations is not None and isinstance(model, DeepGate):
                pred = model(batch, num_iterations=num_iterations)
            else:
                pred = model(batch)
            acc.add(pred.numpy(), batch.labels)
    return acc.value


class Trainer:
    """Streaming fit/evaluate loop shared by every experiment."""

    def __init__(self, model: Module, config: Optional[TrainConfig] = None):
        self.model = model
        self.config = config or TrainConfig()
        self.optimizer = Adam(model.parameters(), lr=self.config.lr)
        self.history = TrainHistory()
        self._stop_requested = False

    def request_stop(self) -> None:
        """Stop after the current epoch (early-stopping callbacks)."""
        self._stop_requested = True

    def fit(
        self,
        train_data: TrainData,
        eval_data: Optional[TrainData] = None,
        callbacks: Sequence[Callback] = (),
        resume_from: Optional[Union[str, Path]] = None,
    ) -> TrainHistory:
        """Train for ``config.epochs`` epochs; returns loss/error history.

        ``train_data`` may be a dataset (in-memory or sharded) or a
        pre-configured :class:`DataLoader`.  ``callbacks`` are
        :class:`~repro.train.callbacks.Callback` objects.
        ``resume_from`` restores a checkpoint written by
        :meth:`save_checkpoint` and continues from its next epoch.
        """
        cfg = self.config
        loader = as_loader(
            train_data,
            cfg.batch_size,
            shuffle=cfg.shuffle,
            seed=cfg.seed,
            prefetch=cfg.prefetch,
        )
        eval_batches: Optional[Iterable[PreparedBatch]] = None
        eval_loader: Optional[DataLoader] = None
        if eval_data is not None:
            eval_loader = as_loader(
                eval_data, cfg.batch_size, shuffle=False, prefetch=0
            )
            if isinstance(eval_loader.dataset, CircuitDataset):
                # in-memory eval sets are small: prepare once, reuse the
                # cached level schedules across every epoch's evaluation
                eval_batches = eval_loader.materialize()

        start_epoch = 0
        if resume_from is not None:
            start_epoch = self.load_checkpoint(resume_from)

        self._stop_requested = False
        for cb in callbacks:
            cb.on_fit_start(self, start_epoch)
        for epoch in range(start_epoch, cfg.epochs):
            for cb in callbacks:
                cb.on_epoch_start(self, epoch)
            epoch_loss = self._run_epoch(loader.epoch(epoch), epoch)
            self.history.train_loss.append(epoch_loss)
            eval_error = None
            if eval_loader is not None:
                batches = (
                    eval_batches
                    if eval_batches is not None
                    else eval_loader.epoch(0)
                )
                eval_error = evaluate_model(self.model, batches)
                self.history.eval_error.append(eval_error)
            if cfg.verbose:  # pragma: no cover - console side effect
                msg = f"epoch {epoch + 1}/{cfg.epochs} loss={epoch_loss:.4f}"
                if eval_error is not None:
                    msg += f" eval={eval_error:.4f}"
                print(msg)
            for cb in callbacks:
                cb.on_epoch_end(self, epoch, epoch_loss, eval_error)
            if self._stop_requested:
                break
        for cb in callbacks:
            cb.on_fit_end(self)
        return self.history

    def _run_epoch(self, batches: Iterable[PreparedBatch], epoch: int) -> float:
        total, count = 0.0, 0
        try:
            for step, batch in enumerate(batches):
                self.optimizer.zero_grad()
                pred = self.model(batch)
                loss = l1_loss(pred, batch.labels)
                loss.backward()
                value = loss.item()
                # an infinite max_norm measures the norm without clipping
                norm = clip_grad_norm(
                    self.model.parameters(), self.config.grad_clip or math.inf
                )
                if not (math.isfinite(value) and math.isfinite(norm)):
                    raise NonFiniteTrainingError(epoch, step, value, norm)
                self.optimizer.step()
                total += value * batch.num_nodes
                count += batch.num_nodes
        finally:
            close = getattr(batches, "close", None)
            if close is not None:
                close()
        return total / max(count, 1)

    def evaluate(
        self,
        data: TrainData,
        num_iterations: Optional[int] = None,
    ) -> float:
        loader = as_loader(
            data, self.config.batch_size, shuffle=False, prefetch=0
        )
        return evaluate_model(self.model, loader.epoch(0), num_iterations)

    # -- checkpointing --------------------------------------------------
    def save_checkpoint(self, path: Union[str, Path], epoch: int) -> None:
        """Write everything needed to resume after ``epoch`` completed."""
        arrays: Dict[str, np.ndarray] = {
            f"model/{k}": v for k, v in self.model.state_dict().items()
        }
        arrays.update(
            {f"optim/{k}": v for k, v in self.optimizer.state_dict().items()}
        )
        meta = {
            "next_epoch": epoch + 1,
            "history": self.history.to_dict(),
            "config": dataclasses.asdict(self.config),
            "model_class": type(self.model).__name__,
        }
        config_fn = getattr(self.model, "config", None)
        if callable(config_fn):
            # lets tools reconstruct the architecture without the script
            # that built it (model_from_config / repro serve)
            meta["model_config"] = config_fn()
        save_checkpoint(path, arrays, meta)

    #: TrainConfig fields that determine the data order and update math; a
    #: resumed run must match them or the bitwise-continuation guarantee
    #: is silently void (epochs may grow, verbose/prefetch don't matter)
    _RESUME_CRITICAL = ("batch_size", "lr", "grad_clip", "seed", "shuffle")

    def load_checkpoint(self, path: Union[str, Path]) -> int:
        """Restore model/optimizer/history; returns the epoch to resume at."""
        arrays, meta = load_checkpoint(path)
        model_class = meta.get("model_class")
        if model_class not in (None, type(self.model).__name__):
            raise ValueError(
                f"checkpoint {path} was written for a {model_class}, "
                f"not a {type(self.model).__name__}"
            )
        saved_config = meta.get("config")
        if saved_config:
            mismatched = {
                key: (saved_config[key], getattr(self.config, key))
                for key in self._RESUME_CRITICAL
                if key in saved_config
                and saved_config[key] != getattr(self.config, key)
            }
            if mismatched:
                raise ValueError(
                    f"checkpoint {path} was written with a different train "
                    f"config; resuming would not continue the same run: "
                    f"{mismatched} (saved vs current)"
                )
        self.model.load_state_dict(
            {
                k[len("model/"):]: v
                for k, v in arrays.items()
                if k.startswith("model/")
            }
        )
        self.optimizer.load_state_dict(
            {
                k[len("optim/"):]: v
                for k, v in arrays.items()
                if k.startswith("optim/")
            }
        )
        self.history = TrainHistory.from_dict(meta.get("history", {}))
        return int(meta.get("next_epoch", len(self.history.train_loss)))
