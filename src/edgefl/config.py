"""Run configuration: YAML parsing, defaulting, validation, and the
fully-resolved echo written into every run summary.

Each YAML section is one frozen dataclass: its fields are the section's
keys, its annotations the accepted types and its field defaults the only
defaults, and its ``__post_init__`` holds every rule over its keys, each
error naming its key path. One generic reader walks :class:`SimConfig`
and reads every key; no pass rewrites keys before it.
"""

from __future__ import annotations

import json
import math
import os
import re
import types
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import cache
from typing import Any, Literal, Mapping, Sequence, Union, get_args, get_origin, get_type_hints

import yaml

from .channel import ChannelConfig
from .graph_attack import AttackSettings
from .training import LossKind, TrainSettings

FASHION_FEATURE_DIM = 784

Range = tuple[float, float]
Points = tuple[tuple[float, float, float], ...]


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class DevicesConfig:
    n_benign: int = 5
    n_malicious: int = 0
    # One size for every benign device or one per device; resolved to one
    # size per device.
    samples_per_device: int | tuple[int, ...] = 200
    # The sample count attackers claim toward aggregation weights; "mean"
    # resolves to the rounded mean benign shard size.
    attacker_reported_samples: Literal["mean"] | int = "mean"
    b_a_policy: Literal["mean", "fixed"] = field(init=False)

    def __post_init__(self):
        if self.n_benign < 1:
            raise ValueError(f"devices.n_benign must be >= 1, got {self.n_benign}")
        if self.n_malicious < 0:
            raise ValueError(f"devices.n_malicious must be >= 0, got {self.n_malicious}")
        sizes = self.samples_per_device
        if isinstance(sizes, int):
            sizes = (sizes,) * self.n_benign
        elif len(sizes) != self.n_benign:
            raise ValueError(
                f"devices.samples_per_device lists {len(sizes)} sizes for "
                f"{self.n_benign} benign devices"
            )
        if any(s < 1 for s in sizes):
            raise ValueError(f"devices.samples_per_device must be positive, got {sizes}")
        b_a = self.attacker_reported_samples
        if b_a == "mean":
            policy, b_a = "mean", max(1, round(sum(sizes) / len(sizes)))
        elif b_a >= 1:
            policy = "fixed"
        else:
            raise ValueError(
                f"devices.attacker_reported_samples must be 'mean' or a positive int, got {b_a!r}"
            )
        object.__setattr__(self, "samples_per_device", sizes)
        object.__setattr__(self, "attacker_reported_samples", b_a)
        object.__setattr__(self, "b_a_policy", policy)


@dataclass(frozen=True)
class DatasetConfig:
    kind: Literal["synthetic", "fashion_mnist"] = "synthetic"
    dim: int = 10
    n_test: int = 1000
    w_true_seed: int = 7
    w_scale: float = 4.0
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    class_a: int = 0
    class_b: int = 9

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dataset.dim must be >= 1, got {self.dim}")
        if self.n_test < 1:
            raise ValueError(f"dataset.n_test must be >= 1, got {self.n_test}")
        if not 0 <= self.w_true_seed < 2**64:
            raise ValueError(
                f"dataset.w_true_seed must fit in 64 unsigned bits, got {self.w_true_seed}"
            )
        if not self.w_scale > 0:
            raise ValueError(f"dataset.w_scale must be positive, got {self.w_scale}")
        if self.class_a == self.class_b:
            raise ValueError(
                f"dataset.class_a and class_b must differ, both {self.class_a}"
            )
        if self.kind == "fashion_mnist":
            for key in ("train_images", "train_labels", "test_images", "test_labels"):
                value = getattr(self, key)
                if value is None:
                    raise ValueError(f"dataset.{key} is required for fashion_mnist")
                if not os.path.exists(value):
                    raise ValueError(f"dataset.{key}: no such file: {value}")

    @property
    def feature_dim(self) -> int:
        return self.dim if self.kind == "synthetic" else FASHION_FEATURE_DIM


@dataclass(frozen=True)
class PositionsConfig:
    mode: Literal["random_box", "explicit"] = "random_box"
    x_range: Range = (0.0, 100.0)
    y_range: Range = (0.0, 100.0)
    z_range: Range = (0.0, 10.0)
    benign: Points | None = None
    attackers: Points | None = None

    def __post_init__(self):
        for key in ("x_range", "y_range", "z_range"):
            lo, hi = getattr(self, key)
            if lo > hi:
                raise ValueError(f"positions.{key} has low > high: {[lo, hi]}")
        if self.z_range[0] < 0:
            raise ValueError(f"positions.z_range must be nonnegative, got {self.z_range}")
        for key in ("benign", "attackers"):
            for i, (_, _, z) in enumerate(getattr(self, key) or ()):
                if z < 0:
                    raise ValueError(f"positions.{key}[{i}] has negative altitude {z}")
            if self.mode == "random_box" and getattr(self, key) is not None:
                raise ValueError(
                    f"positions.{key} is only read in explicit mode; random_box draws "
                    "every position"
                )


@dataclass(frozen=True)
class GlobalInitConfig:
    kind: Literal["zeros", "normal"] = "zeros"
    std: float = 0.01

    def __post_init__(self):
        if self.kind == "normal" and not self.std > 0:
            raise ValueError(f"global_init.std must be positive, got {self.std}")


@dataclass(frozen=True)
class GaussianConfig:
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"attack.gaussian.sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class SignflipConfig:
    scale: float = 3.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"attack.signflip.scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class AttackConfig:
    kind: Literal["none", "avgae", "gaussian", "signflip"] = "none"
    avgae: AttackSettings = field(default_factory=AttackSettings)
    gaussian: GaussianConfig = field(default_factory=GaussianConfig)
    signflip: SignflipConfig = field(default_factory=SignflipConfig)


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    rounds: int = 30
    output_dir: str = "out"
    workers: int = 1
    devices: DevicesConfig = field(default_factory=DevicesConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    loss: LossKind = LossKind.LOGISTIC
    training: TrainSettings = field(default_factory=TrainSettings)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    positions: PositionsConfig = field(default_factory=PositionsConfig)
    global_init: GlobalInitConfig = field(default_factory=GlobalInitConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        n_benign, n_malicious = self.devices.n_benign, self.devices.n_malicious
        if n_malicious > 0 and self.attack.kind == "none":
            raise ValueError(f"devices.n_malicious is {n_malicious} but attack.kind is 'none'")
        pos = self.positions
        if pos.mode == "explicit":
            if pos.benign is None or len(pos.benign) != n_benign:
                raise ValueError(
                    f"positions.benign must list {n_benign} [x, y, z] triples in explicit mode"
                )
            if len(pos.attackers or ()) != n_malicious:
                raise ValueError(
                    f"positions.attackers must list {n_malicious} [x, y, z] triples "
                    "in explicit mode"
                )
            clashes = set(pos.benign) & set(pos.attackers or ())
            if clashes:
                raise ValueError(
                    f"positions.attackers coincide with benign positions: {sorted(clashes)}"
                )
        # The projection cannot widen the model; resolve the effective width
        # here so the echoed config shows what actually runs.
        avgae, width = self.attack.avgae, self.dataset.feature_dim
        d_feat = width if avgae.identity_projection else min(avgae.d_feat, width)
        if d_feat != avgae.d_feat:
            avgae = replace(avgae, d_feat=d_feat)
            object.__setattr__(self, "attack", replace(self.attack, avgae=avgae))


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats such as 1e-4
    and 1e9, which YAML 1.1 (PyYAML's default) leaves as strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


@cache
def _schema(cls) -> dict[str, Any]:
    """Key -> resolved type hint for every YAML key of a section class."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _read(cls, raw, path: str):
    """Build section class cls from a YAML mapping: reject unknown keys,
    convert each given value to its field's type, leave the rest to the
    field defaults. Range checks are the class's own."""
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path or 'config root'} must be a mapping, got {type(raw).__name__}")
    schema = _schema(cls)
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key: {_key(path, key)}")
    values = {key: _convert(value, schema[key], _key(path, key)) for key, value in raw.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _name(hint) -> str:
    if get_origin(hint) is Literal:
        return " or ".join(map(repr, get_args(hint)))
    if get_origin(hint) is tuple:
        return "a list"
    return hint.__name__


def _convert(value, hint, path: str):
    """value as an instance of type hint, or a ConfigError naming path."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        arms = [a for a in args if a is not type(None)]
        if len(arms) == 1:
            return _convert(value, arms[0], path)
        for arm in arms:
            try:
                return _convert(value, arm, path)
            except ConfigError:
                pass
        raise ConfigError(f"{path} must be {' or '.join(map(_name, arms))}, got {value!r}")
    if origin is tuple:
        if not isinstance(value, Sequence) or isinstance(value, str):
            raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(hints):
            raise ConfigError(f"{path} must list {len(hints)} values, got {len(value)}")
        return tuple(_convert(v, h, f"{path}[{i}]") for i, (v, h) in enumerate(zip(value, hints)))
    if is_dataclass(hint):
        return _read(hint, value, path)
    if origin is Literal or isinstance(hint, type) and issubclass(hint, Enum):
        choices = args or tuple(m.value for m in hint)
        if not any(type(value) is type(c) and value == c for c in choices):
            raise ConfigError(f"{path} must be {' or '.join(map(repr, choices))}, got {value!r}")
        return value if origin is Literal else hint(value)
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if isinstance(value, bool) and hint is not bool:
        raise ConfigError(f"{path} must be {hint.__name__}, got a boolean")
    if not isinstance(value, hint):
        raise ConfigError(f"{path} must be {hint.__name__}, got {type(value).__name__}")
    if hint is float and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value}")
    return value


def apply_overrides(raw: Mapping, overrides: Sequence[str]) -> dict:
    """A copy of raw with key.path=value overrides (values parsed as YAML)
    applied in order. Every mapping on an override's path is copied, so
    raw and the mappings nested in it are left as they were."""
    raw = dict(raw)
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
            if not isinstance(nxt, Mapping):
                raise ConfigError(f"override {dotted}: {part} is not a mapping")
            node[part] = nxt = dict(nxt)
            node = nxt
        node[parts[-1]] = value
    return raw


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
        raw = source
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    raw = apply_overrides(raw, overrides)
    return _read(SimConfig, raw, "")


def config_echo(cfg: SimConfig) -> dict:
    """Fully-resolved configuration as plain JSON-ready data."""
    echo = asdict(cfg)
    # workers and output_dir are execution plumbing, deliberately left out:
    # summary.json must be byte-identical for identical simulations at any
    # worker count or output location (both live in run_meta.json).
    del echo["workers"], echo["output_dir"]
    return json.loads(json.dumps(echo))
