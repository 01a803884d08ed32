"""Training and evaluation harness."""

from .callbacks import (
    Callback,
    Checkpoint,
    EarlyStopping,
    LRSchedule,
    cosine_schedule,
    step_decay,
)
from .metrics import ErrorAccumulator, average_prediction_error
from .trainer import (
    NonFiniteTrainingError,
    TrainConfig,
    TrainHistory,
    Trainer,
    evaluate_model,
)

__all__ = [
    "Callback",
    "Checkpoint",
    "EarlyStopping",
    "LRSchedule",
    "cosine_schedule",
    "step_decay",
    "ErrorAccumulator",
    "average_prediction_error",
    "NonFiniteTrainingError",
    "TrainConfig",
    "TrainHistory",
    "Trainer",
    "evaluate_model",
]
