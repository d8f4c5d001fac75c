"""Per-sample losses, the regularized local objective, analytic gradients,
and the local gradient-descent loop, run for every benign device of a
round at once over a zero-padded :class:`ShardStack`."""

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .numerics import RngStream, as_params, sigmoid
from .data import ShardStack
from .record import Record


# Feature bytes per block of devices in a single-threaded train_stack,
# so that a block's features stay in a 2 MiB L2 across all its steps and
# its loss. On crowd_noise (3.2 MB of features), a 10-round run's local
# training plus metrics took 17.7-20.0 ms with 1 MiB blocks, 17.3-20.4
# with 2 MiB, 21.7-23.5 with 512 KiB (numpy's per-call cost paid per
# block) and 23.3-24.3 in one block (medians of 8 warm runs in each of 4
# fresh processes a size, 2-core Xeon).
BLOCK_BYTES = 1 << 20


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


# The stacked forms below take one model per device, W of shape (n, d),
# and a feature-major stack x of shape (devices, d, samples). Devices are
# grouped by sample count, and each group runs one BLAS call per device
# on exactly that device's columns, never an einsum: the margins against
# the transposed view, one axpy per feature down the samples, and the
# gradient against x itself, one dot product per feature along them. Each
# device thus gets the same bits as the 2-D products on its own (d, m)
# block; padding is never summed, so it needs no mask.

def _by_count(counts: np.ndarray) -> list[tuple[slice | np.ndarray, int]]:
    if (counts == counts[0]).all():
        return [(slice(None), int(counts[0]))]
    # Runs of equal counts in a stable sort, not np.unique, whose first
    # call imports numpy.ma: each group's rows stay ascending.
    order = np.argsort(counts, kind="stable")
    edges = [0, *(np.flatnonzero(np.diff(counts[order])) + 1).tolist(), len(counts)]
    return [(order[a:b], int(counts[order[a]])) for a, b in zip(edges, edges[1:])]


def _margins(x: np.ndarray, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Every device's margins x^T w, written into out (devices x samples)."""
    np.matmul(x.transpose(0, 2, 1), W[:, :, None], out=out[:, :, None])
    return out


def _gradients(kind, x, y, W, z, alpha: float, out: np.ndarray) -> np.ndarray:
    """Every device's gradient, written into out (W's shape); the
    residual is written over the margins z."""
    if kind == LossKind.LOGISTIC:
        sigmoid(z, out=z)
    residual = np.subtract(z, y, out=z)
    np.matmul(x, residual[:, :, None], out=out[:, :, None])
    out /= x.shape[2]
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
        z = _margins(stack.x[rows, :, :c], Ws, z_held[:k, :c])
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
    """Each device's batch for one step: batch_size samples drawn without
    replacement from its own stream, or all its samples when it has no
    more than batch_size. Each device's features come back as a
    C-contiguous (d, batch_size) block."""
    rows = np.tile(np.arange(batch_size), (len(stack), 1))
    for k, count in enumerate(stack.counts):
        if batch_size < count:
            rows[k] = rngs[k].gen.choice(int(count), size=batch_size, replace=False)
    return (
        np.take_along_axis(stack.x, rows[:, None, :], axis=2),
        np.take_along_axis(stack.y, rows, axis=1),
        np.minimum(stack.counts, batch_size),
    )


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
    for t in range(settings.local_iterations):
        if sampled:
            x, y, counts = _minibatch(stack, settings.batch_size, rngs)
            groups = _by_count(counts)
        # One whole-array test per group; per-device flags only once one
        # fails, over every group, so the lowest failing device is named.
        z_finite = None
        for rows, c in groups:
            xs, Ws = x[rows, :, :c], W[rows]
            k = len(Ws)
            z = _margins(xs, Ws, z_held[:k, :c])
            if not np.isfinite(z).all():
                if z_finite is None:
                    z_finite = np.ones(len(stack), dtype=bool)
                z_finite[rows] = np.isfinite(z).all(axis=1)
            grad[rows] = _gradients(kind, xs, y[rows, :c], Ws, z, settings.alpha, grad_held[:k])
            del xs  # a ragged group's gathered copy, freed before the next gather
        if z_finite is not None:
            _require_finite(z_finite, "margins", t, stack.device_ids)
        W = W - settings.learning_rate * grad
        if not np.isfinite(W).all():
            _require_finite(np.isfinite(W).all(axis=1), "model", t, stack.device_ids)
    return W


def train_stack(
    kind: LossKind,
    w_init,
    stack: ShardStack,
    settings: TrainSettings,
    rngs: Sequence[RngStream],
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Run local_iterations steps of gradient descent on every device of
    the stack, each from w_init, which is never mutated, and return
    (models, losses): row k of models is device stack.device_ids[k]'s
    model and losses[k] its :func:`stack_loss` at that model.

    Full-batch by default; when settings.batch_size is set, each step
    draws each device's batch from its own stream rngs[k]. A non-finite
    margin or model raises :class:`Diverged` naming the device and the
    iteration; the losses are returned unchecked.

    The devices train in contiguous blocks, and each block runs all its
    steps and then its loss. At workers=1 a block holds about
    BLOCK_BYTES of features and runs before the next starts, so its
    features are read from cache after the first step. workers > 1 runs
    one block per thread: at 50 devices x 784 dims, where a device is a
    block of its own, two threads running those blocks were no faster
    than one, and two threads of 25 devices each were. Every device gets
    the same bits at any blocking. Every block runs even when another
    fails, and the failure raised is the one a single pass would hit
    first: any error other than divergence, then the earliest check of
    the earliest iteration, then the lowest device.
    """
    w_init = as_params(w_init)
    n = len(stack)
    blocks = min(n, workers if workers > 1 else math.ceil(stack.x.nbytes / BLOCK_BYTES))
    bounds = [n * b // blocks for b in range(blocks + 1)]

    def block(b: int) -> tuple[np.ndarray, np.ndarray] | Exception:
        a, e = bounds[b], bounds[b + 1]
        part = stack.rows(a, e)
        try:
            W = _descend(kind, w_init, part, settings, rngs[a:e])
            return W, stack_loss(kind, W, part, settings.alpha)
        except Exception as exc:  # raised below, once every block has run
            return exc

    if workers > 1:
        # Imported here: a single-worker run never needs the thread machinery.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(block, range(blocks)))
    else:
        done = [block(b) for b in range(blocks)]
    failures = [r for r in done if isinstance(r, Exception)]
    if failures:
        raise min(failures, key=lambda e: getattr(e, "order", (-1, False)))
    if blocks == 1:
        return done[0]
    models, losses = zip(*done)
    return np.concatenate(models), np.concatenate(losses)
