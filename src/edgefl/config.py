"""Run configuration: YAML parsing, defaulting, validation, and the
fully-resolved echo written into every run summary."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import yaml

from .channel import ChannelConfig
from .graph_attack import AttackSettings
from .training import LossKind, TrainSettings

FASHION_FEATURE_DIM = 784


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    dim: int
    n_test: int
    w_true_seed: int
    w_scale: float
    train_images: str | None
    train_labels: str | None
    test_images: str | None
    test_labels: str | None
    class_a: int
    class_b: int

    @property
    def feature_dim(self) -> int:
        return self.dim if self.kind == "synthetic" else FASHION_FEATURE_DIM


@dataclass(frozen=True)
class PositionsConfig:
    mode: str
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    benign: tuple[tuple[float, float, float], ...] | None
    attackers: tuple[tuple[float, float, float], ...] | None


@dataclass(frozen=True)
class SimConfig:
    seed: int
    rounds: int
    output_dir: str
    workers: int
    n_benign: int
    n_malicious: int
    samples_per_device: tuple[int, ...]
    b_a_policy: str
    attacker_reported_samples: int
    dataset: DatasetConfig
    loss: LossKind
    training: TrainSettings
    channel: ChannelConfig
    snr_min: float
    positions: PositionsConfig
    global_init_kind: str
    global_init_std: float
    attack_kind: str
    avgae: AttackSettings
    gaussian_sigma: float
    signflip_scale: float


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats such as 1e-4
    and 1e9, which YAML 1.1 (PyYAML's default) leaves as strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _section(raw: Mapping, name: str, known: set[str]) -> dict:
    value = raw.get(name, {})
    if value is None:
        value = {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be a mapping, got {type(value).__name__}")
    for key in value:
        if key not in known:
            raise ConfigError(f"unknown config key: {name}.{key}")
    return dict(value)


def _typed(section: Mapping, path: str, key: str, kind, default):
    value = section.get(key, default)
    if value is None:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{path}.{key} must be {kind.__name__}, got a boolean")
    if not isinstance(value, kind):
        raise ConfigError(
            f"{path}.{key} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _pair(section: Mapping, path: str, key: str, default) -> tuple[float, float]:
    value = section.get(key, default)
    if (
        not isinstance(value, Sequence)
        or isinstance(value, str)
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ConfigError(f"{path}.{key} must be a [low, high] numeric pair")
    lo, hi = float(value[0]), float(value[1])
    if lo > hi:
        raise ConfigError(f"{path}.{key} has low > high: {value}")
    return lo, hi


def _positions_list(section: Mapping, path: str, key: str):
    value = section.get(key)
    if value is None:
        return None
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise ConfigError(f"{path}.{key} must be a list of [x, y, z] triples")
    out = []
    for i, entry in enumerate(value):
        if (
            not isinstance(entry, Sequence)
            or isinstance(entry, str)
            or len(entry) != 3
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise ConfigError(f"{path}.{key}[{i}] must be an [x, y, z] triple")
        x, y, z = (float(v) for v in entry)
        if z < 0:
            raise ConfigError(f"{path}.{key}[{i}] has negative altitude {z}")
        out.append((x, y, z))
    return tuple(out)


def apply_overrides(raw: dict, overrides: Sequence[str]) -> dict:
    """Apply key.path=value overrides (values parsed as YAML) in order."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key.path=value, got {item!r}")
        dotted, _, text = item.partition("=")
        dotted = dotted.strip()
        if not dotted:
            raise ConfigError(f"override has empty key: {item!r}")
        try:
            value = yaml.load(text, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {dotted}: unparseable value {text!r}: {exc}")
        node = raw
        parts = dotted.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
                node[part] = nxt
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {dotted}: {part} is not a mapping")
            node = nxt
        node[parts[-1]] = value
    return raw


TOP_KEYS = {
    "seed", "rounds", "output_dir", "workers", "devices", "dataset", "loss",
    "training", "channel", "positions", "global_init", "attack",
}
DEVICES_KEYS = {"n_benign", "n_malicious", "samples_per_device", "attacker_reported_samples"}
DATASET_KEYS = {
    "kind", "dim", "n_test", "w_true_seed", "w_scale",
    "train_images", "train_labels", "test_images", "test_labels",
    "class_a", "class_b",
}
TRAINING_KEYS = {"alpha", "learning_rate", "local_iterations", "batch_size"}
CHANNEL_KEYS = {"gain_basis", "transmit_power", "noise_power", "snr_min"}
POSITIONS_KEYS = {"mode", "x_range", "y_range", "z_range", "benign", "attackers"}
GLOBAL_INIT_KEYS = {"kind", "std"}
ATTACK_KEYS = {"kind", "avgae", "gaussian", "signflip"}
AVGAE_KEYS = {
    "d_feat", "d_z", "hidden_dims", "activation", "gae_epochs", "gae_learning_rate",
    "beta", "ascent_steps", "ascent_step_size", "d_thresh_mode", "d_thresh_value",
    "d_thresh_percentile", "negative_sample_ratio", "psi_hidden", "identity_projection",
}


def validate_config(source: str | Mapping, overrides: Sequence[str] = ()) -> SimConfig:
    """Parse, default, and validate a run configuration.

    source is YAML text (or an already-parsed mapping); overrides are
    key.path=value strings applied before validation. Every error names
    the offending key path.
    """
    if isinstance(source, str):
        try:
            raw = yaml.load(source, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}")
    else:
        raw = dict(source)
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    raw = {k: v for k, v in raw.items()}
    apply_overrides(raw, overrides)

    for key in raw:
        if key not in TOP_KEYS:
            raise ConfigError(f"unknown config key: {key}")

    seed = _typed(raw, "<root>", "seed", int, 0)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must fit in 64 unsigned bits, got {seed}")
    rounds = _typed(raw, "<root>", "rounds", int, 30)
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    output_dir = _typed(raw, "<root>", "output_dir", str, "out")
    workers = _typed(raw, "<root>", "workers", int, 1)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")

    devices = _section(raw, "devices", DEVICES_KEYS)
    n_benign = _typed(devices, "devices", "n_benign", int, 5)
    if n_benign < 1:
        raise ConfigError(f"devices.n_benign must be >= 1, got {n_benign}")
    n_malicious = _typed(devices, "devices", "n_malicious", int, 0)
    if n_malicious < 0:
        raise ConfigError(f"devices.n_malicious must be >= 0, got {n_malicious}")
    spd = devices.get("samples_per_device", 200)
    if isinstance(spd, int) and not isinstance(spd, bool):
        sizes = tuple([spd] * n_benign)
    elif isinstance(spd, Sequence) and not isinstance(spd, str):
        if len(spd) != n_benign:
            raise ConfigError(
                f"devices.samples_per_device lists {len(spd)} sizes for "
                f"{n_benign} benign devices"
            )
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in spd):
            raise ConfigError("devices.samples_per_device entries must be integers")
        sizes = tuple(int(v) for v in spd)
    else:
        raise ConfigError("devices.samples_per_device must be an int or a list of ints")
    if any(s < 1 for s in sizes):
        raise ConfigError(f"devices.samples_per_device must be positive, got {sizes}")
    b_a_raw = devices.get("attacker_reported_samples", "mean")
    if b_a_raw == "mean":
        b_a_policy = "mean"
        b_a = max(1, round(sum(sizes) / len(sizes)))
    elif isinstance(b_a_raw, int) and not isinstance(b_a_raw, bool) and b_a_raw >= 1:
        b_a_policy = "fixed"
        b_a = b_a_raw
    else:
        raise ConfigError(
            "devices.attacker_reported_samples must be 'mean' or a positive int, "
            f"got {b_a_raw!r}"
        )

    ds = _section(raw, "dataset", DATASET_KEYS)
    ds_kind = _typed(ds, "dataset", "kind", str, "synthetic")
    if ds_kind not in ("synthetic", "fashion_mnist"):
        raise ConfigError(
            f"dataset.kind must be 'synthetic' or 'fashion_mnist', got {ds_kind!r}"
        )
    dim = _typed(ds, "dataset", "dim", int, 10)
    if dim < 1:
        raise ConfigError(f"dataset.dim must be >= 1, got {dim}")
    n_test = _typed(ds, "dataset", "n_test", int, 1000)
    if n_test < 1:
        raise ConfigError(f"dataset.n_test must be >= 1, got {n_test}")
    w_true_seed = _typed(ds, "dataset", "w_true_seed", int, 7)
    w_scale = _typed(ds, "dataset", "w_scale", float, 4.0)
    if not w_scale > 0:
        raise ConfigError(f"dataset.w_scale must be positive, got {w_scale}")
    class_a = _typed(ds, "dataset", "class_a", int, 0)
    class_b = _typed(ds, "dataset", "class_b", int, 9)
    if class_a == class_b:
        raise ConfigError(f"dataset.class_a and class_b must differ, both {class_a}")
    paths = {}
    for key in ("train_images", "train_labels", "test_images", "test_labels"):
        paths[key] = _typed(ds, "dataset", key, str, None)
    if ds_kind == "fashion_mnist":
        for key, value in paths.items():
            if value is None:
                raise ConfigError(f"dataset.{key} is required for fashion_mnist")
            if not os.path.exists(value):
                raise ConfigError(f"dataset.{key}: no such file: {value}")
    dataset = DatasetConfig(
        kind=ds_kind, dim=dim, n_test=n_test, w_true_seed=w_true_seed,
        w_scale=w_scale, class_a=class_a, class_b=class_b, **paths,
    )

    loss_name = _typed(raw, "<root>", "loss", str, "logistic")
    try:
        loss = LossKind(loss_name)
    except ValueError:
        raise ConfigError(f"loss must be 'linear' or 'logistic', got {loss_name!r}")

    tr = _section(raw, "training", TRAINING_KEYS)
    try:
        training = TrainSettings(
            alpha=_typed(tr, "training", "alpha", float, 0.001),
            learning_rate=_typed(tr, "training", "learning_rate", float, 0.1),
            local_iterations=_typed(tr, "training", "local_iterations", int, 5),
            batch_size=_typed(tr, "training", "batch_size", int, None),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    ch = _section(raw, "channel", CHANNEL_KEYS)
    try:
        channel = ChannelConfig(
            gain_basis=_typed(ch, "channel", "gain_basis", float, 1.0),
            transmit_power=_typed(ch, "channel", "transmit_power", float, 1.0),
            noise_power=_typed(ch, "channel", "noise_power", float, 1e-4),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    snr_min = _typed(ch, "channel", "snr_min", float, 0.0)
    if snr_min < 0:
        raise ConfigError(f"channel.snr_min must be >= 0, got {snr_min}")

    pos = _section(raw, "positions", POSITIONS_KEYS)
    mode = _typed(pos, "positions", "mode", str, "random_box")
    if mode not in ("random_box", "explicit"):
        raise ConfigError(
            f"positions.mode must be 'random_box' or 'explicit', got {mode!r}"
        )
    x_range = _pair(pos, "positions", "x_range", [0.0, 100.0])
    y_range = _pair(pos, "positions", "y_range", [0.0, 100.0])
    z_range = _pair(pos, "positions", "z_range", [0.0, 10.0])
    if z_range[0] < 0:
        raise ConfigError(f"positions.z_range must be nonnegative, got {z_range}")
    benign_pos = _positions_list(pos, "positions", "benign")
    attacker_pos = _positions_list(pos, "positions", "attackers")
    if mode == "explicit":
        if benign_pos is None or len(benign_pos) != n_benign:
            raise ConfigError(
                f"positions.benign must list {n_benign} [x, y, z] triples in explicit mode"
            )
        if n_malicious > 0 and (attacker_pos is None or len(attacker_pos) != n_malicious):
            raise ConfigError(
                f"positions.attackers must list {n_malicious} [x, y, z] triples "
                "in explicit mode"
            )
        if attacker_pos:
            clashes = set(benign_pos) & set(attacker_pos)
            if clashes:
                raise ConfigError(
                    f"positions.attackers coincide with benign positions: {sorted(clashes)}"
                )
    positions = PositionsConfig(
        mode=mode, x_range=x_range, y_range=y_range, z_range=z_range,
        benign=benign_pos, attackers=attacker_pos,
    )

    gi = _section(raw, "global_init", GLOBAL_INIT_KEYS)
    gi_kind = _typed(gi, "global_init", "kind", str, "zeros")
    if gi_kind not in ("zeros", "normal"):
        raise ConfigError(f"global_init.kind must be 'zeros' or 'normal', got {gi_kind!r}")
    gi_std = _typed(gi, "global_init", "std", float, 0.01)
    if gi_kind == "normal" and not gi_std > 0:
        raise ConfigError(f"global_init.std must be positive, got {gi_std}")

    at = _section(raw, "attack", ATTACK_KEYS)
    attack_kind = _typed(at, "attack", "kind", str, "none")
    if attack_kind not in ("none", "avgae", "gaussian", "signflip"):
        raise ConfigError(
            f"attack.kind must be one of none|avgae|gaussian|signflip, got {attack_kind!r}"
        )
    if n_malicious > 0 and attack_kind == "none":
        raise ConfigError(
            f"devices.n_malicious is {n_malicious} but attack.kind is 'none'"
        )

    av_raw = at.get("avgae", {}) or {}
    if not isinstance(av_raw, Mapping):
        raise ConfigError("attack.avgae must be a mapping")
    for key in av_raw:
        if key not in AVGAE_KEYS:
            raise ConfigError(f"unknown config key: attack.avgae.{key}")
    d_thresh_mode = _typed(av_raw, "attack.avgae", "d_thresh_mode", str, "percentile")
    if d_thresh_mode not in ("percentile", "absolute"):
        raise ConfigError(
            "attack.avgae.d_thresh_mode must be 'percentile' or 'absolute', "
            f"got {d_thresh_mode!r}"
        )
    d_thresh_value = _typed(av_raw, "attack.avgae", "d_thresh_value", float, None)
    d_thresh_percentile = _typed(av_raw, "attack.avgae", "d_thresh_percentile", float, 90.0)
    if d_thresh_mode == "absolute":
        if d_thresh_value is None:
            raise ConfigError("attack.avgae.d_thresh_value is required in absolute mode")
        d_thresh_percentile = None
    else:
        d_thresh_value = None
    hidden = av_raw.get("hidden_dims", [32, 16])
    if (
        not isinstance(hidden, Sequence)
        or isinstance(hidden, str)
        or not all(isinstance(h, int) and not isinstance(h, bool) for h in hidden)
    ):
        raise ConfigError("attack.avgae.hidden_dims must be a list of ints")
    identity_projection = av_raw.get("identity_projection", False)
    if not isinstance(identity_projection, bool):
        raise ConfigError("attack.avgae.identity_projection must be a boolean")
    d_feat = _typed(av_raw, "attack.avgae", "d_feat", int, 16)
    # The projection cannot widen the model; resolve the effective width here
    # so the echoed config shows what actually runs.
    d_feat = dataset.feature_dim if identity_projection else min(d_feat, dataset.feature_dim)
    try:
        avgae = AttackSettings(
            d_feat=d_feat,
            d_z=_typed(av_raw, "attack.avgae", "d_z", int, 8),
            hidden_dims=tuple(hidden),
            activation=_typed(av_raw, "attack.avgae", "activation", str, "tanh"),
            gae_epochs=_typed(av_raw, "attack.avgae", "gae_epochs", int, 80),
            gae_learning_rate=_typed(av_raw, "attack.avgae", "gae_learning_rate", float, 0.05),
            beta=_typed(av_raw, "attack.avgae", "beta", float, 0.001),
            ascent_steps=_typed(av_raw, "attack.avgae", "ascent_steps", int, 30),
            ascent_step_size=_typed(av_raw, "attack.avgae", "ascent_step_size", float, 0.1),
            d_thresh_value=d_thresh_value,
            d_thresh_percentile=d_thresh_percentile,
            negative_sample_ratio=_typed(
                av_raw, "attack.avgae", "negative_sample_ratio", float, 1.0
            ),
            psi_hidden=_typed(av_raw, "attack.avgae", "psi_hidden", int, 8),
            identity_projection=identity_projection,
        )
    except ValueError as exc:
        raise ConfigError(f"attack.avgae: {exc}")

    ga_raw = at.get("gaussian", {}) or {}
    if not isinstance(ga_raw, Mapping):
        raise ConfigError("attack.gaussian must be a mapping")
    for key in ga_raw:
        if key != "sigma":
            raise ConfigError(f"unknown config key: attack.gaussian.{key}")
    gaussian_sigma = _typed(ga_raw, "attack.gaussian", "sigma", float, 1.0)
    if not gaussian_sigma > 0:
        raise ConfigError(f"attack.gaussian.sigma must be positive, got {gaussian_sigma}")

    sf_raw = at.get("signflip", {}) or {}
    if not isinstance(sf_raw, Mapping):
        raise ConfigError("attack.signflip must be a mapping")
    for key in sf_raw:
        if key != "scale":
            raise ConfigError(f"unknown config key: attack.signflip.{key}")
    signflip_scale = _typed(sf_raw, "attack.signflip", "scale", float, 3.0)
    if not signflip_scale > 0:
        raise ConfigError(f"attack.signflip.scale must be positive, got {signflip_scale}")

    return SimConfig(
        seed=seed, rounds=rounds, output_dir=output_dir, workers=workers,
        n_benign=n_benign, n_malicious=n_malicious, samples_per_device=sizes,
        b_a_policy=b_a_policy, attacker_reported_samples=b_a,
        dataset=dataset, loss=loss, training=training,
        channel=channel, snr_min=snr_min, positions=positions,
        global_init_kind=gi_kind, global_init_std=gi_std,
        attack_kind=attack_kind, avgae=avgae,
        gaussian_sigma=gaussian_sigma, signflip_scale=signflip_scale,
    )


def config_echo(cfg: SimConfig) -> dict:
    """Fully-resolved configuration as plain JSON-ready data."""
    # workers and output_dir are execution plumbing, deliberately left out:
    # summary.json must be byte-identical for identical simulations at any
    # worker count or output location (both live in run_meta.json).
    return {
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "devices": {
            "n_benign": cfg.n_benign,
            "n_malicious": cfg.n_malicious,
            "samples_per_device": list(cfg.samples_per_device),
            "attacker_reported_samples": cfg.attacker_reported_samples,
            "b_a_policy": cfg.b_a_policy,
        },
        "dataset": {
            "kind": cfg.dataset.kind,
            "dim": cfg.dataset.dim,
            "n_test": cfg.dataset.n_test,
            "w_true_seed": cfg.dataset.w_true_seed,
            "w_scale": cfg.dataset.w_scale,
            "train_images": cfg.dataset.train_images,
            "train_labels": cfg.dataset.train_labels,
            "test_images": cfg.dataset.test_images,
            "test_labels": cfg.dataset.test_labels,
            "class_a": cfg.dataset.class_a,
            "class_b": cfg.dataset.class_b,
        },
        "loss": cfg.loss.value,
        "training": {
            "alpha": cfg.training.alpha,
            "learning_rate": cfg.training.learning_rate,
            "local_iterations": cfg.training.local_iterations,
            "batch_size": cfg.training.batch_size,
        },
        "channel": {
            "gain_basis": cfg.channel.gain_basis,
            "transmit_power": cfg.channel.transmit_power,
            "noise_power": cfg.channel.noise_power,
            "snr_min": cfg.snr_min,
        },
        "positions": {
            "mode": cfg.positions.mode,
            "x_range": list(cfg.positions.x_range),
            "y_range": list(cfg.positions.y_range),
            "z_range": list(cfg.positions.z_range),
            "benign": [list(p) for p in cfg.positions.benign] if cfg.positions.benign else None,
            "attackers": (
                [list(p) for p in cfg.positions.attackers] if cfg.positions.attackers else None
            ),
        },
        "global_init": {"kind": cfg.global_init_kind, "std": cfg.global_init_std},
        "attack": {
            "kind": cfg.attack_kind,
            "avgae": {
                "d_feat": cfg.avgae.d_feat,
                "d_z": cfg.avgae.d_z,
                "hidden_dims": list(cfg.avgae.hidden_dims),
                "activation": cfg.avgae.activation,
                "gae_epochs": cfg.avgae.gae_epochs,
                "gae_learning_rate": cfg.avgae.gae_learning_rate,
                "beta": cfg.avgae.beta,
                "ascent_steps": cfg.avgae.ascent_steps,
                "ascent_step_size": cfg.avgae.ascent_step_size,
                "d_thresh_mode": "absolute" if cfg.avgae.d_thresh_value is not None else "percentile",
                "d_thresh_value": cfg.avgae.d_thresh_value,
                "d_thresh_percentile": cfg.avgae.d_thresh_percentile,
                "negative_sample_ratio": cfg.avgae.negative_sample_ratio,
                "psi_hidden": cfg.avgae.psi_hidden,
                "identity_projection": cfg.avgae.identity_projection,
            },
            "gaussian": {"sigma": cfg.gaussian_sigma},
            "signflip": {"scale": cfg.signflip_scale},
        },
    }
