"""Per-sample losses, the regularized local objective, analytic gradients,
and the local gradient-descent loop, run for every benign device of a
round at once over a zero-padded :class:`ShardStack`."""

from enum import Enum
from typing import Sequence

import numpy as np

from .numerics import RngStream, as_params, sigmoid
from .data import ShardStack
from .record import Record


class LossKind(str, Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"


class TrainSettings(Record):
    """Local training hyperparameters, fixed for an entire run."""

    alpha: float = 0.001
    learning_rate: float = 0.1
    local_iterations: int = 5
    batch_size: int | None = None  # None trains full-batch

    def _check(self):
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


def require_binary_labels(y: np.ndarray, what: str) -> None:
    """Raise ValueError unless every label is 0 or 1, the only labels
    the logistic loss below is defined for."""
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError(f"{what}: labels must be 0 or 1 for the logistic loss")


def _margin_losses(kind: LossKind, z: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-sample losses of margins z against labels y, written into out;
    z may be overwritten. Returns out."""
    if kind == LossKind.LINEAR:
        np.subtract(z, y, out=out)
        np.square(out, out=out)
        out *= 0.5
        return out
    # Stable rearrangement of the logistic loss
    #   y*log(1 + exp(-z)) - (1-y)*log(1 - 1/(1 + exp(-z)))
    # via softplus: y*softplus(-z) + (1-y)*softplus(z). Labels are 0 or 1
    # (synth_logistic and binarize make them so; a run checks them once
    # at setup and local_loss on every call), so one term is exactly
    # 0*finite and the loss is one softplus of the signed margin
    # v = (1-2y)*z; any other label silently gets softplus((1-2y)*z).
    # softplus(v) = max(v, 0) + log1p(exp(-|v|)) runs on numpy's
    # vectorized exp and log1p, in two buffers: 1-2y is built in out and
    # v is written over z. It is within 2 ulp of np.logaddexp(0, v)
    # (measured on an AVX-512 x86-64), at a third of its cost. A margin
    # that is not finite gets a NaN loss, as the 0*inf of the two-term
    # form gives: on the matching label one softplus pass alone would
    # give a finite 0 and hide the overflow from the round's check.
    finite = np.isfinite(z)
    np.multiply(y, 2.0, out=out)
    np.subtract(1.0, out, out=out)
    v = np.multiply(z, out, out=z)
    np.abs(v, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(v, 0.0, out=v)
    if not finite.all():
        out[~finite] = np.nan
    return out


# The stacked forms below take one model per device, W of shape (n, d).
# Devices are grouped by sample count, and each group runs one BLAS call
# per device on exactly that device's rows: matmul against the
# transposed view, never a contiguous copy or einsum. Each device thus
# gets the same bits as the 2-D product on its own rows; padding is
# never summed, so it needs no mask.

def _by_count(counts: np.ndarray) -> list[tuple[slice | np.ndarray, int]]:
    if (counts == counts[0]).all():
        return [(slice(None), int(counts[0]))]
    # Runs of equal counts in a stable sort, not np.unique, whose first
    # call imports numpy.ma: each group's rows stay ascending.
    order = np.argsort(counts, kind="stable")
    edges = [0, *(np.flatnonzero(np.diff(counts[order])) + 1).tolist(), len(counts)]
    return [(order[a:b], int(counts[order[a]])) for a, b in zip(edges, edges[1:])]


def _margins(x: np.ndarray, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Every device's margins x @ w, written into out (devices x rows)."""
    np.matmul(x, W[:, :, None], out=out[:, :, None])
    return out


def _gradients(kind, x, y, W, z, alpha: float, out: np.ndarray) -> np.ndarray:
    """Every device's gradient, written into out (W's shape); the
    residual is written over the margins z."""
    if kind == LossKind.LOGISTIC:
        sigmoid(z, out=z)
    residual = np.subtract(z, y, out=z)
    np.matmul(x.transpose(0, 2, 1), residual[:, :, None], out=out[:, :, None])
    out /= x.shape[1]
    out += alpha * W
    return out


def stack_loss(kind: LossKind, W, stack: ShardStack, alpha: float) -> np.ndarray:
    """:func:`local_loss` of every device at once: row k of W on device
    k's shard. The logistic loss of a sample is softplus((1-2y)*z), one
    pass in numpy's vectorized exp and log1p, within 2 ulp of the
    two-term form. It equals that form only for labels 0 and 1, which
    are not checked here: this runs every round, on labels the run
    checked at setup. It holds two (devices x widest shard) buffers, the
    margins and the losses, and each group of devices works in its
    corner of them."""
    mean = np.empty(len(stack))
    z_held = np.empty((len(stack), int(stack.counts.max())))
    loss_held = np.empty_like(z_held)
    for rows, c in _by_count(stack.counts):
        Ws = W[rows]
        k = len(Ws)
        z = _margins(stack.x[rows, :c], Ws, z_held[:k, :c])
        losses = _margin_losses(kind, z, stack.y[rows, :c], loss_held[:k, :c])
        mean[rows] = losses.sum(axis=1) / c
    return mean + alpha * 0.5 * np.matmul(W[:, None, :], W[:, :, None])[:, 0, 0]


def _single(w, ds, what: str) -> tuple[np.ndarray, ShardStack]:
    stack = ShardStack.of(ds)
    if stack.counts[0] < 1:
        raise ValueError(f"{what} over an empty dataset")
    return as_params(w)[None], stack


def local_loss(kind: LossKind, w, ds, alpha: float) -> float:
    """Mean sample loss plus the L2 regularizer alpha/2 * ||w||^2.

    The logistic loss takes labels 0 and 1 only; others raise ValueError.
    """
    W, stack = _single(w, ds, "local loss")
    if kind == LossKind.LOGISTIC:
        require_binary_labels(stack.y, "local loss")
    return float(stack_loss(kind, W, stack, alpha)[0])


def local_gradient(kind: LossKind, w, ds, alpha: float) -> np.ndarray:
    """Analytic gradient of :func:`local_loss` at w."""
    W, stack = _single(w, ds, "local gradient")
    z = _margins(stack.x, W, np.empty(stack.y.shape))
    return _gradients(kind, stack.x, stack.y, W, z, alpha, np.empty_like(W))[0]


class Diverged(FloatingPointError):
    """A device's margins or model went non-finite in local training."""

    def __init__(self, device_id: int, what: str, iteration: int):
        super().__init__(
            f"device {device_id}: non-finite {what} at iteration {iteration} "
            f"(learning rate too large?)"
        )
        # Margins are checked before models within an iteration.
        self.order = (iteration, what == "model")


def _require_finite(finite: np.ndarray, what: str, t: int, device_ids) -> None:
    if not finite.all():
        raise Diverged(device_ids[int(np.argmin(finite))], what, t)


def _minibatch(stack: ShardStack, batch_size: int, rngs: Sequence[RngStream]):
    """Each device's batch for one step: batch_size rows drawn without
    replacement from its own stream, or all its rows when it has no
    more than batch_size."""
    rows = np.tile(np.arange(batch_size), (len(stack), 1))
    for k, count in enumerate(stack.counts):
        if batch_size < count:
            rows[k] = rngs[k].gen.choice(int(count), size=batch_size, replace=False)
    block = np.arange(len(stack))[:, None]
    return stack.x[block, rows], stack.y[block, rows], np.minimum(stack.counts, batch_size)


def _descend(kind, w_init, stack: ShardStack, settings: TrainSettings, rngs) -> np.ndarray:
    W = np.repeat(w_init[None], len(stack), axis=0)
    sampled = settings.batch_size is not None and settings.batch_size < stack.counts.max()
    x, y, counts = stack.x, stack.y, stack.counts
    groups = _by_count(counts)
    # Held for the whole call: each step writes a group's margins, then
    # its residual, into the group's corner of z_held, and its gradients
    # into grad_held, before scattering them to grad.
    z_held = np.empty((len(stack), settings.batch_size if sampled else int(counts.max())))
    grad_held = np.empty_like(W)
    grad = np.empty_like(W)
    z_finite = np.empty(len(stack), dtype=bool)
    for t in range(settings.local_iterations):
        if sampled:
            x, y, counts = _minibatch(stack, settings.batch_size, rngs)
            groups = _by_count(counts)
        for rows, c in groups:
            xs, Ws = x[rows, :c], W[rows]
            k = len(Ws)
            z = _margins(xs, Ws, z_held[:k, :c])
            z_finite[rows] = np.isfinite(z).all(axis=1)
            grad[rows] = _gradients(kind, xs, y[rows, :c], Ws, z, settings.alpha, grad_held[:k])
        _require_finite(z_finite, "margins", t, stack.device_ids)
        W = W - settings.learning_rate * grad
        _require_finite(np.isfinite(W).all(axis=1), "model", t, stack.device_ids)
    return W


def train_stack(
    kind: LossKind,
    w_init,
    stack: ShardStack,
    settings: TrainSettings,
    rngs: Sequence[RngStream],
    workers: int = 1,
) -> np.ndarray:
    """Run local_iterations steps of gradient descent on every device of
    the stack at once, each from w_init, which is never mutated; row k of
    the result is device stack.device_ids[k]'s model.

    Full-batch by default; when settings.batch_size is set, each step
    draws each device's batch from its own stream rngs[k]. A non-finite
    margin or model raises :class:`Diverged` naming the device and the
    iteration. workers > 1 trains contiguous chunks of the stack on that
    many threads; every device gets the same bits at any chunking.
    """
    w_init = as_params(w_init)
    chunks = min(workers, len(stack))
    if chunks <= 1:
        return _descend(kind, w_init, stack, settings, rngs)
    bounds = [len(stack) * c // chunks for c in range(chunks + 1)]

    def chunk(c: int) -> np.ndarray:
        a, b = bounds[c], bounds[c + 1]
        return _descend(kind, w_init, stack.rows(a, b), settings, rngs[a:b])

    # Imported here: a single-worker run never needs the thread machinery.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=chunks) as pool:
        futures = [pool.submit(chunk, c) for c in range(chunks)]
    # Raise what a single pass would have hit first: the earliest check
    # of the earliest iteration, then the lowest device.
    failures = [e for e in (f.exception() for f in futures) if e is not None]
    if failures:
        raise min(failures, key=lambda e: getattr(e, "order", (-1, False)))
    return np.concatenate([f.result() for f in futures])

