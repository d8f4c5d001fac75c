"""Per-sample losses, the regularized local objective, analytic gradients,
and the local gradient-descent loop each benign device runs per round."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import RngStream, as_params, ensure_finite, sigmoid
from .data import Dataset, LocalDataset, Sample


class LossKind(str, Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class TrainSettings:
    """Local training hyperparameters, fixed for an entire run."""

    alpha: float = 0.001
    learning_rate: float = 0.1
    local_iterations: int = 5
    batch_size: int | None = None  # None trains full-batch

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"training.alpha must be in [0, 1], got {self.alpha}")
        if not self.learning_rate > 0:
            raise ValueError(
                f"training.learning_rate must be positive, got {self.learning_rate}"
            )
        if self.local_iterations < 1:
            raise ValueError(
                f"training.local_iterations must be >= 1, got {self.local_iterations}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(
                f"training.batch_size must be >= 1 or null, got {self.batch_size}"
            )


def _as_dataset(ds) -> Dataset:
    return ds.data if isinstance(ds, LocalDataset) else ds


def _margin_losses(kind: LossKind, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    if kind == LossKind.LINEAR:
        return 0.5 * (z - y) ** 2
    # Stable rearrangement of the logistic loss
    #   y*log(1 + exp(-z)) - (1-y)*log(1 - 1/(1 + exp(-z)))
    # via softplus: y*softplus(-z) + (1-y)*softplus(z).
    return y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)


def sample_loss(kind: LossKind, w, s: Sample) -> float:
    """Loss of one sample under the given model."""
    w = as_params(w)
    x = as_params(s.x)
    if w.shape[0] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {w.shape[0]} vs {x.shape[0]}")
    z = np.array([w @ x])
    return float(_margin_losses(kind, z, np.array([s.y]))[0])


def local_loss(kind: LossKind, w, ds, alpha: float) -> float:
    """Mean sample loss plus the L2 regularizer alpha/2 * ||w||^2."""
    data = _as_dataset(ds)
    if len(data) < 1:
        raise ValueError("local loss over an empty dataset")
    w = as_params(w)
    z = data.x @ w
    mean = float(np.mean(_margin_losses(kind, z, data.y)))
    return mean + alpha * 0.5 * float(w @ w)


def local_gradient(kind: LossKind, w, ds, alpha: float) -> np.ndarray:
    """Analytic gradient of :func:`local_loss` at w."""
    data = _as_dataset(ds)
    if len(data) < 1:
        raise ValueError("local gradient over an empty dataset")
    w = as_params(w)
    z = data.x @ w
    if kind == LossKind.LINEAR:
        residual = z - data.y
    else:
        residual = sigmoid(z) - data.y
    return data.x.T @ residual / len(data) + alpha * w


def train_local(
    kind: LossKind,
    w_init,
    ds,
    settings: TrainSettings,
    rng: RngStream,
) -> np.ndarray:
    """Run local_iterations steps of gradient descent from w_init.

    Full-batch by default; when settings.batch_size is set, each step
    samples that many examples without replacement from rng. w_init is
    never mutated.
    """
    data = _as_dataset(ds)
    w = as_params(w_init).copy()
    for t in range(settings.local_iterations):
        if settings.batch_size is None or settings.batch_size >= len(data):
            batch = data
        else:
            idx = rng.gen.choice(len(data), size=settings.batch_size, replace=False)
            batch = data.subset(idx)
        grad = local_gradient(kind, w, batch, settings.alpha)
        w = w - settings.learning_rate * grad
        loss = local_loss(kind, w, batch, settings.alpha)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"non-finite local loss at iteration {t} (learning rate too large?)"
            )
    return ensure_finite("trained local model", w)
