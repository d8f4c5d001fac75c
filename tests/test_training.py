import math
import tracemalloc

import numpy as np
import pytest

from edgefl.data import Dataset, ShardStack, partition_iid, synth_logistic
from edgefl.numerics import RngStream
from edgefl.training import (
    LossKind,
    TrainSettings,
    local_gradient,
    local_loss,
    stack_loss,
    train_stack,
)

# log(1 + exp(-50)) evaluated at 60 decimal digits and frozen.
SOFTPLUS_MINUS_50 = 1.9287498479639178e-22


def _finite_difference(f, w, h=1e-6):
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2 * h)
    return grad


def _train_one(kind, w_init, ds, settings, rng):
    """train_stack on ds as a stack of one device."""
    return train_stack(kind, w_init, ShardStack.of(ds), settings, [rng])[0]


def _one_row_loss(kind, w, x, y):
    """Loss of one sample: stack_loss on a one-device, one-row stack, no
    regularizer."""
    stack = ShardStack.of(Dataset(np.array([x], dtype=float), np.array([y])))
    return float(stack_loss(kind, np.array([w], dtype=float), stack, alpha=0.0)[0])


def test_sample_loss_linear_example():
    assert _one_row_loss(LossKind.LINEAR, [1.0, 0.0], [2.0, 0.0], 1.0) == 0.5


def test_sample_loss_logistic_zero_margin_is_log2():
    w = [1.0, -1.0]
    x = [1.0, 1.0]  # w.x == 0
    for y in (0.0, 1.0):
        assert _one_row_loss(LossKind.LOGISTIC, w, x, y) == pytest.approx(
            math.log(2.0), rel=1e-12
        )


def test_sample_loss_logistic_large_margin_no_overflow():
    loss = _one_row_loss(LossKind.LOGISTIC, [50.0], [1.0], 1.0)
    assert loss == pytest.approx(SOFTPLUS_MINUS_50, rel=1e-12)
    # The printed form would overflow well before this margin.
    big = _one_row_loss(LossKind.LOGISTIC, [1e4], [1.0], 0.0)
    assert np.isfinite(big) and big == pytest.approx(1e4)


def test_sample_loss_nonnegative_and_finite_up_to_1e4():
    for margin in (-1e4, -100.0, -1.0, 0.0, 1.0, 100.0, 1e4):
        for y in (0.0, 1.0):
            v = _one_row_loss(LossKind.LOGISTIC, [margin], [1.0], y)
            assert np.isfinite(v) and v >= 0.0


def _two_term_logistic(z, y):
    return y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)


def _one_pass_logistic(z, y):
    """softplus of the signed margin v = (1-2y)*z in numpy's vectorized
    exp and log1p; 0.0*z keeps an infinite margin's loss NaN."""
    v = z * (1.0 - 2.0 * y)
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v))) + 0.0 * z


def test_logistic_loss_of_finite_margins_is_the_one_pass_form_within_4_eps():
    edges = np.array([0.0, 5e-324, 1e-300, 1e-3, 1.0, 36.7, 37.0, 700.0, 709.8,
                      710.0, 745.2, 1e4, 1e300])
    rng = np.random.default_rng(75)
    margins = np.concatenate([
        edges, -edges,
        *(rng.normal(size=200) * scale for scale in (1e-3, 1.0, 30.0, 1e3)),
    ])
    for label in (0.0, 1.0):
        # One single-row device per margin: w = 1 makes z = x exactly, and
        # alpha = 0 leaves each device's loss that sample's loss.
        n = margins.size
        stack = ShardStack(margins.reshape(n, 1, 1), np.full((n, 1), label),
                           np.ones(n, dtype=int), tuple(range(n)))
        got = stack_loss(LossKind.LOGISTIC, np.ones((n, 1)), stack, alpha=0.0)
        assert got.tobytes() == _one_pass_logistic(margins, label).tobytes()
        eps = np.finfo(float).eps
        np.testing.assert_allclose(got, _two_term_logistic(margins, label),
                                   rtol=4 * eps, atol=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x, y", [(1e200, 1.0), (-1e200, 0.0), (1e200, 0.0), (-1e200, 1.0)])
def test_logistic_loss_of_an_overflowed_margin_is_not_finite(x, y):
    # w.x = +-1e350 overflows to +-inf. On the matching label one softplus
    # pass alone would give a finite 0, hiding the overflow from the
    # round's finiteness check; the two-term form gave NaN there.
    loss = _one_row_loss(LossKind.LOGISTIC, [1e150], [x], y)
    assert not np.isfinite(loss)


def test_local_loss_rejects_logistic_labels_other_than_0_and_1():
    # One softplus pass would give softplus(z) for y = 0.5, not
    # 0.5*softplus(-z) + 0.5*softplus(z), so the one-device seam refuses it.
    ds = Dataset(np.array([[1.0, 2.0]]), np.array([0.5]))
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        local_loss(LossKind.LOGISTIC, np.ones(2), ds, alpha=0.0)
    assert local_loss(LossKind.LINEAR, np.ones(2), ds, alpha=0.0) == 0.5 * 2.5**2


def test_sample_loss_dim_mismatch():
    with pytest.raises(ValueError):
        _one_row_loss(LossKind.LINEAR, [1.0, 1.0], [1.0, 1.0, 1.0], 0.0)


def test_local_loss_single_sample_no_reg():
    ds = Dataset(np.array([[2.0, 0.0]]), np.array([1.0]))
    w = np.array([1.0, 0.0])
    assert local_loss(LossKind.LINEAR, w, ds, alpha=0.0) == 0.5


def test_local_loss_zero_model_zero_targets():
    ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
    assert local_loss(LossKind.LINEAR, np.zeros(2), ds, alpha=0.0) == 0.0


def test_local_loss_matches_three_term_hand_sum():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, 0.0, 2.0])
    w = np.array([2.0, 0.0])
    ds = Dataset(x, y)
    by_hand = (0.5 * (2 - 1) ** 2 + 0.5 * (0 - 0) ** 2 + 0.5 * (2 - 2) ** 2) / 3
    by_hand += 0.5 * 0.5 * (2.0**2)  # alpha/2 * ||w||^2 at alpha = 0.5
    assert local_loss(LossKind.LINEAR, w, ds, alpha=0.5) == pytest.approx(by_hand, rel=1e-15)


def test_local_loss_empty_dataset_guard():
    ds = Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="empty"):
        local_loss(LossKind.LINEAR, np.zeros(2), ds, alpha=0.0)


def test_local_gradient_trivial_cases():
    ds = Dataset(np.array([[1.0, 0.0]]), np.array([0.0]))
    np.testing.assert_array_equal(
        local_gradient(LossKind.LINEAR, np.zeros(2), ds, alpha=0.0), np.zeros(2)
    )
    ds1 = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    np.testing.assert_allclose(
        local_gradient(LossKind.LOGISTIC, np.zeros(2), ds1, alpha=0.0),
        np.array([-0.5, 0.0]),
        atol=1e-15,
    )


@pytest.mark.parametrize("kind", [LossKind.LINEAR, LossKind.LOGISTIC])
def test_local_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(1, 25))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float) if kind == LossKind.LOGISTIC \
            else rng.normal(size=n)
        w = rng.normal(size=d)
        alpha = float(rng.uniform(0, 0.5))
        ds = Dataset(x, y)
        grad = local_gradient(kind, w, ds, alpha)
        fd = _finite_difference(lambda v: local_loss(kind, v, ds, alpha), w)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("kind", [LossKind.LINEAR, LossKind.LOGISTIC])
def test_local_loss_convex_along_segments(kind):
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        ds = Dataset(
            rng.normal(size=(10, d)),
            rng.integers(0, 2, size=10).astype(float),
        )
        a, b = rng.normal(size=(2, d))
        alpha = float(rng.uniform(0, 1))
        mid = local_loss(kind, 0.5 * (a + b), ds, alpha)
        ends = 0.5 * (local_loss(kind, a, ds, alpha) + local_loss(kind, b, ds, alpha))
        assert mid <= ends + 1e-9


def test_train_local_returns_w_init_at_stationary_point():
    # Gradient is exactly zero here, so any number of steps is a no-op.
    ds = Dataset(np.array([[1.0, 0.0]]), np.array([0.0]))
    w0 = np.zeros(2)
    out = _train_one(
        LossKind.LINEAR, w0, ds, TrainSettings(alpha=0.0, learning_rate=1.0, local_iterations=1),
        RngStream(0, "d"),
    )
    np.testing.assert_array_equal(out, w0)


def test_train_local_never_mutates_w_init():
    ds = Dataset(np.array([[1.0]]), np.array([2.0]))
    w0 = np.zeros(1)
    _train_one(
        LossKind.LINEAR, w0, ds,
        TrainSettings(alpha=0.0, learning_rate=0.5, local_iterations=3),
        RngStream(0, "d"),
    )
    np.testing.assert_array_equal(w0, np.zeros(1))


def test_train_local_hand_iteration():
    # One step, lr 1, gradient (w.x - y) x = -2 at w = 0, so w becomes 2.
    ds = Dataset(np.array([[1.0]]), np.array([2.0]))
    out = _train_one(
        LossKind.LINEAR, np.zeros(1), ds,
        TrainSettings(alpha=0.0, learning_rate=1.0, local_iterations=1),
        RngStream(0, "d"),
    )
    np.testing.assert_array_equal(out, np.array([2.0]))


def test_train_local_monotone_loss_on_convex_task():
    w_true = np.array([1.5, -2.0, 0.5])
    ds = synth_logistic(200, 3, w_true, RngStream(10, "synth"))
    settings = TrainSettings(alpha=0.0, learning_rate=0.1, local_iterations=1)
    w = np.zeros(3)
    losses = [local_loss(LossKind.LOGISTIC, w, ds, 0.0)]
    for _ in range(200):
        w = _train_one(LossKind.LOGISTIC, w, ds, settings, RngStream(10, "d"))
        losses.append(local_loss(LossKind.LOGISTIC, w, ds, 0.0))
    assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


def test_train_local_minibatch_deterministic():
    ds = synth_logistic(100, 4, np.ones(4), RngStream(11, "synth"))
    settings = TrainSettings(alpha=0.0, learning_rate=0.1, local_iterations=5, batch_size=16)
    a = _train_one(LossKind.LOGISTIC, np.zeros(4), ds, settings, RngStream(12, "dev"))
    b = _train_one(LossKind.LOGISTIC, np.zeros(4), ds, settings, RngStream(12, "dev"))
    np.testing.assert_array_equal(a, b)


def test_train_local_divergence_names_iteration():
    ds = Dataset(np.array([[10.0]]), np.array([0.0]))
    settings = TrainSettings(alpha=0.0, learning_rate=1e200, local_iterations=3)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="iteration"):
        _train_one(LossKind.LINEAR, np.ones(1), ds, settings, RngStream(0, "d"))


def _unequal_stack(kind, sizes=(50, 200, 137), d=6):
    rng = np.random.default_rng(71)
    x = rng.normal(size=(sum(sizes), d))
    if kind == LossKind.LINEAR:
        y = x @ rng.normal(size=d) + rng.normal(size=sum(sizes))
        assert (y < 0).any()
    else:
        y = rng.integers(0, 2, size=sum(sizes)).astype(float)
    return partition_iid(Dataset(x, y), sizes, RngStream(72, "part"))


def _shards(stack):
    """Each device's rows of the stack, without the padding."""
    return [Dataset(stack.x[k, :m], stack.y[k, :m]) for k, m in enumerate(stack.counts)]


def _reference_descent(kind, w0, data, settings, rng):
    """The local loop one device at a time on its own 2-D rows."""
    w = w0.copy()
    for _ in range(settings.local_iterations):
        x, y = data.x, data.y
        if settings.batch_size is not None and settings.batch_size < len(y):
            idx = rng.gen.choice(len(y), size=settings.batch_size, replace=False)
            x, y = x[idx], y[idx]
        z = x @ w
        residual = z - y if kind == LossKind.LINEAR else 1.0 / (1.0 + np.exp(-z)) - y
        w = w - settings.learning_rate * (x.T @ residual / len(y) + settings.alpha * w)
    return w


@pytest.mark.parametrize("kind", [LossKind.LINEAR, LossKind.LOGISTIC])
@pytest.mark.parametrize("batch_size", [None, 64])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_train_stack_matches_per_device_loop_bit_for_bit(kind, batch_size, workers,
                                                       sizes=(50, 200, 137)):
    stack = _unequal_stack(kind, sizes)
    settings = TrainSettings(alpha=0.01, learning_rate=0.05, local_iterations=6,
                             batch_size=batch_size)
    w0 = np.linspace(-0.3, 0.3, stack.x.shape[2])
    streams = [RngStream(73, f"device-{i}") for i in stack.device_ids]
    got = train_stack(kind, w0, stack, settings, streams, workers=workers)
    expected = [
        _reference_descent(kind, w0, shard, settings, RngStream(73, f"device-{i}"))
        for i, shard in zip(stack.device_ids, _shards(stack))
    ]
    np.testing.assert_array_equal(got, np.stack(expected))

    losses = stack_loss(kind, got, stack, settings.alpha)
    for k, shard in enumerate(_shards(stack)):
        z = shard.x @ got[k]
        y = shard.y
        per_sample = 0.5 * (z - y) ** 2 if kind == LossKind.LINEAR else \
            _one_pass_logistic(z, y)
        reg = settings.alpha * 0.5 * float(got[k] @ got[k])
        assert losses[k] == float(np.mean(per_sample)) + reg


@pytest.mark.parametrize("kind", [LossKind.LINEAR, LossKind.LOGISTIC])
@pytest.mark.parametrize("batch_size", [None, 64])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_train_stack_matches_per_device_loop_when_devices_share_a_count(kind, batch_size, workers):
    # Two pairs of devices share a count below the widest, so their
    # groups index rows by array and write into [:2, :c] corners of the
    # held buffers.
    test_train_stack_matches_per_device_loop_bit_for_bit(
        kind, batch_size, workers, sizes=(50, 200, 50, 137, 137))


def test_round_loop_holds_at_most_two_and_a_half_device_sample_slabs():
    # A slab is one float64 per (device, sample). train_stack holds its
    # margins and residual in one slab for the whole call, and stack_loss
    # two; fresh temporaries every step would peak above three.
    n, m, d = 200, 200, 10
    rng = np.random.default_rng(77)
    stack = ShardStack(rng.normal(size=(n, m, d)),
                       rng.integers(0, 2, size=(n, m)).astype(float),
                       np.full(n, m), tuple(range(n)))
    streams = [RngStream(78, f"device-{i}") for i in range(n)]
    W = rng.normal(size=(n, d))
    calls = {
        "train_stack": lambda: train_stack(LossKind.LOGISTIC, np.zeros(d), stack,
                                           TrainSettings(), streams),
        "stack_loss": lambda: stack_loss(LossKind.LOGISTIC, W, stack, alpha=0.001),
    }
    slabs = {}
    for name, call in calls.items():
        call()  # warm: lazy imports and caches are not the round loop's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            slabs[name] = (tracemalloc.get_traced_memory()[1] - base) / (n * m * 8)
        finally:
            tracemalloc.stop()
    assert all(v <= 2.5 for v in slabs.values()), slabs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_stack_names_the_diverging_device_and_iteration():
    stack = _unequal_stack(LossKind.LINEAR)
    stack.x[1] *= 1e100  # only device 2 diverges; padded rows stay zero
    settings = TrainSettings(alpha=0.0, learning_rate=1.0, local_iterations=5)
    streams = [RngStream(0, f"device-{i}") for i in stack.device_ids]
    for workers in (1, 2):
        with pytest.raises(FloatingPointError, match=r"device 2: non-finite \w+ at iteration 1 "):
            train_stack(LossKind.LINEAR, np.ones(6), stack, settings, streams, workers)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_stack_reports_the_same_divergence_at_any_worker_count():
    # Device 1 fails later than device 3; chunked training must still
    # report device 3, as the single pass does.
    stack = _unequal_stack(LossKind.LINEAR)
    stack.x[0] *= 1e60
    stack.x[2] *= 1e150
    settings = TrainSettings(alpha=0.0, learning_rate=1.0, local_iterations=5)
    streams = [RngStream(0, f"device-{i}") for i in stack.device_ids]
    messages = set()
    for workers in (1, 2, 3):
        with pytest.raises(FloatingPointError) as err:
            train_stack(LossKind.LINEAR, np.ones(6), stack, settings, streams, workers)
        messages.add(str(err.value))
    assert len(messages) == 1 and "device 3:" in messages.pop()


def test_train_settings_validation():
    with pytest.raises(ValueError, match="alpha"):
        TrainSettings(alpha=1.5)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainSettings(learning_rate=0.0)
    with pytest.raises(ValueError, match="local_iterations"):
        TrainSettings(local_iterations=0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainSettings(batch_size=0)
