"""Run configuration: reading its YAML text, defaulting, validation, and
the fully-resolved echo written into every run summary.

:func:`load` reads the strict YAML subset that run configs and
``--override`` values use, and refuses the rest with its line and column.

Each YAML section is one frozen :class:`~edgefl.record.Record`: its
fields are the section's keys, in the order the echo lists them, its
annotations the accepted types and its class-level values the only
defaults, and its ``_check`` holds every rule over its keys, each error
naming its key path. Section annotations are evaluated (see
:mod:`edgefl.record`), so the reader takes each key's type from the
class itself. One generic reader walks :class:`SimConfig` and reads
every key; no pass rewrites keys before it.
"""

import json
import math
import os
import re
import types
from enum import Enum
from typing import Literal, Mapping, Sequence, Union, get_args, get_origin

from .channel import ChannelConfig
from .graph_attack import AttackSettings
from .record import Record
from .training import LossKind, TrainSettings

FASHION_FEATURE_DIM = 784

Range = tuple[float, float]
Points = tuple[tuple[float, float, float], ...]


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


class DevicesConfig(Record, derived=("b_a_policy",)):
    n_benign: int = 5
    n_malicious: int = 0
    # One size for every benign device or one per device; resolved to one
    # size per device.
    samples_per_device: int | tuple[int, ...] = 200
    # The sample count attackers claim toward aggregation weights; "mean"
    # resolves to the rounded mean benign shard size.
    attacker_reported_samples: Literal["mean"] | int = "mean"
    b_a_policy: Literal["mean", "fixed"]

    def _check(self):
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


class DatasetConfig(Record):
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

    def _check(self):
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


class PositionsConfig(Record):
    mode: Literal["random_box", "explicit"] = "random_box"
    x_range: Range = (0.0, 100.0)
    y_range: Range = (0.0, 100.0)
    z_range: Range = (0.0, 10.0)
    benign: Points | None = None
    attackers: Points | None = None

    def _check(self):
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


class GlobalInitConfig(Record):
    kind: Literal["zeros", "normal"] = "zeros"
    std: float = 0.01

    def _check(self):
        if self.kind == "normal" and not self.std > 0:
            raise ValueError(f"global_init.std must be positive, got {self.std}")


class GaussianConfig(Record):
    sigma: float = 1.0

    def _check(self):
        if not self.sigma > 0:
            raise ValueError(f"attack.gaussian.sigma must be positive, got {self.sigma}")


class SignflipConfig(Record):
    scale: float = 3.0

    def _check(self):
        if not self.scale > 0:
            raise ValueError(f"attack.signflip.scale must be positive, got {self.scale}")


class AttackConfig(Record):
    kind: Literal["none", "avgae", "gaussian", "signflip"] = "none"
    avgae: AttackSettings = AttackSettings()
    gaussian: GaussianConfig = GaussianConfig()
    signflip: SignflipConfig = SignflipConfig()


class SimConfig(Record):
    seed: int = 0
    rounds: int = 30
    output_dir: str = "out"
    workers: int = 1
    devices: DevicesConfig = DevicesConfig()
    dataset: DatasetConfig = DatasetConfig()
    loss: LossKind = LossKind.LOGISTIC
    training: TrainSettings = TrainSettings()
    channel: ChannelConfig = ChannelConfig()
    positions: PositionsConfig = PositionsConfig()
    global_init: GlobalInitConfig = GlobalInitConfig()
    attack: AttackConfig = AttackConfig()

    def _check(self):
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
            attack = self.attack.replace(avgae=avgae.replace(d_feat=d_feat))
            object.__setattr__(self, "attack", attack)


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# ------------------------------------------------------------- YAML subset
# The reader below returns what PyYAML's SafeLoader, plus YAML 1.2
# exponent floats such as 1e-4, returns for the same text, or raises
# ConfigError; tests/test_config_text.py compares the two.

_WORDS = {"~": None, "null": None, "Null": None, "NULL": None, "true": True, "True": True,
          "TRUE": True, "false": False, "False": False, "FALSE": False}
# A decimal int, a float, or (unnamed, matched loosely so that a word
# that might be one is refused, not guessed) what else YAML 1.1 reads as
# a number or a date: octal, hex and binary ints, "_" separators, base 60
# and dates.
_NUMBER = re.compile(
    r"(?P<int>[-+]?(?:0|[1-9][0-9]*))"
    r"|(?P<float>[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+|[-+]?[0-9]+\.[0-9]*"
    r"|\.[0-9]+|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))"
    r"|[-+]?(?:0[0-9A-Za-z_]|[0-9.][0-9._]*[_:]|[0-9]{4}-).*"
)
# The other plain words YAML 1.1 reads as something else than their text.
_YAML11_WORDS = {"yes", "Yes", "YES", "no", "No", "NO", "on", "On", "ON", "off", "Off", "OFF",
                 "<<", "="}
_ESCAPES = dict(zip('0abt\tnvfre "/\\N_LP', '\0\a\b\t\t\n\v\f\r\x1b "/\\\x85\xa0\u2028\u2029'))


def _at(line: int, col: int, msg: str, path: str = "") -> ConfigError:
    return ConfigError(f"line {line}, column {col + 1}: {path}{': ' if path else ''}{msg}")


def load(text: str):
    """The value of YAML text, in the subset run configs use: block
    mappings with plain identifier keys, block sequences, flow
    collections closed on their line, quoted strings, comments, and plain
    null, boolean, decimal int and float scalars (an empty document is
    None). Anything else, and any duplicate key, raises ConfigError with
    its line and column."""
    lines = []  # (line number, indent, line) of each line with content
    for n, line in enumerate(text.split("\n"), 1):
        line = line.removesuffix("\r")
        body = line.lstrip(" ")
        if not line.replace("\t", " ").isprintable():
            col = next(k for k, c in enumerate(line) if c != "\t" and not c.isprintable())
            raise _at(n, col, f"non-printable character {line[col]!r}")
        if body.startswith("\t"):
            raise _at(n, len(line) - len(body), "tab in indentation")
        if line[:3] in ("---", "...") and line[3:4] in ("", " ", "\t"):
            raise _at(n, 0, "document markers are not read")
        if body and body[0] != "#":
            lines.append((n, len(line) - len(body), line))
    if not lines:
        return None
    value, i = _block(lines, 0, "")
    if i < len(lines):
        n, indent, _ = lines[i]
        raise _at(n, indent, "unexpected line at this indentation")
    return value


def _entry(line: str, indent: int) -> bool:
    return line[indent] == "-" and line[indent + 1:indent + 2] in ("", " ")


def _key_end(line: str, j: int) -> int:
    """The index of the ':' ending a plain identifier key at line[j], or -1."""
    colon = line.find(":", j)
    key = line[j:colon]
    ok = colon > j and key.isidentifier() and key.isascii()
    return colon if ok and line[colon + 1:colon + 2] in ("", " ") else -1


def _map_key(line: str, j: int, n: int, path: str, mapping: dict):
    """The key at line[j], its key path and the index after its ':'."""
    colon = _key_end(line, j)
    if colon < 0:
        raise _at(n, j, "expected 'key: value' with a plain identifier key")
    key = line[j:colon]
    if key in _WORDS or key in _YAML11_WORDS:
        raise _at(n, j, f"key {key!r} is not read as a string; rename it")
    if key in mapping:
        raise _at(n, j, f"duplicate key {_key(path, key)}")
    return key, _key(path, key), colon + 1


def _block(lines: list, i: int, path: str):
    """The block node starting at lines[i] and the index of the line after it."""
    n, indent, line = lines[i]
    if _entry(line, indent):
        out = []
    elif _key_end(line, indent) >= 0:
        out = {}
    elif not path:
        value, j = _inline(line, indent, n, path)
        _end(line, j, n)
        return value, i + 1
    else:
        raise _at(n, indent, "expected 'key: value' or '- item'", path)
    while i < len(lines) and lines[i][1] >= indent:
        n, at, line = lines[i]
        if at > indent:
            raise _at(n, at, "unexpected indentation")
        if isinstance(out, list):
            if not _entry(line, indent):
                break
            j, item = _skip(line, indent + 1), f"{path}[{len(out)}]"
            if j == len(line) or line[j] == "#":
                raise _at(n, indent, "empty sequence entry", item)
        else:
            key, item, j = _map_key(line, indent, n, path, out)
            j = _skip(line, j)
        i += 1
        if j < len(line) and line[j] != "#":
            value, j = _inline(line, j, n, item)
            _end(line, j, n)
        elif i < len(lines) and (
            lines[i][1] > indent or lines[i][1] == indent and _entry(lines[i][2], indent)
        ):
            value, i = _block(lines, i, item)
        else:
            value = None
        if isinstance(out, list):
            out.append(value)
        else:
            out[key] = value
    return out, i


def _skip(line: str, j: int) -> int:
    while line[j:j + 1] == " ":
        j += 1
    return j


def _end(line: str, j: int, n: int) -> None:
    """Only spaces and a comment may follow a value that ends at line[j]."""
    k = _skip(line, j)
    if k < len(line) and not (line[k] == "#" and k > j):
        raise _at(n, k, f"unexpected {line[k]!r}")


def _inline(line: str, j: int, n: int, path: str, flow: bool = False):
    """The value written at line[j] and the index after it."""
    c = line[j:j + 1]
    if c in ("[", "{"):
        return _flow(line, j, n, path)
    if c in ("'", '"'):
        return _quoted(line, j, n)
    nxt = line[j + 1:j + 2]
    if not c or c in "?:,]}#&*!|>%@`\t" or c == "-" and nxt in ("", " ", "\t", ",", "]", "}"):
        raise _at(n, j, f"no value can start with {c!r}", path)
    k = j
    while k < len(line):
        c = line[k]
        if c == "#" and line[k - 1] == " " or flow and c in ",]}":
            break
        if c == "\t" or flow and c in "[{?:" or c == ":" and line[k + 1:k + 2] in ("", " "):
            raise _at(n, k, f"{c!r} is not read inside a plain value", path)
        k += 1
    text = line[j:k].rstrip(" ")
    return _scalar(text, n, j, path), j + len(text)


def _flow(line: str, j: int, n: int, path: str):
    """The [...] or {...} opening at line[j] and the index after it."""
    close = "]" if line[j] == "[" else "}"
    out = [] if close == "]" else {}
    j = _skip(line, j + 1)
    while line[j:j + 1] != close:
        if j == len(line):
            raise _at(n, j, f"{close!r} missing on this line", path)
        if isinstance(out, list):
            item = f"{path}[{len(out)}]"
        else:
            key, item, j = _map_key(line, j, n, path, out)
            j = _skip(line, j)
        value, j = _inline(line, j, n, item, flow=True)
        if isinstance(out, list):
            out.append(value)
        else:
            out[key] = value
        j = _skip(line, j)
        if line[j:j + 1] == ",":
            j = _skip(line, j + 1)
        elif line[j:j + 1] != close:
            raise _at(n, j, f"expected ',' or {close!r} on this line", path)
    return out, j + 1


def _quoted(line: str, j: int, n: int):
    """The '...' or "..." string opening at line[j] and the index after it."""
    quote, chars, k = line[j], [], j + 1
    while k < len(line):
        c = line[k]
        if c == quote == "'" and line[k + 1:k + 2] == "'":
            chars.append(c)
            k += 1
        elif c == quote:
            return "".join(chars), k + 1
        elif c == "\\" and quote == '"':
            k += 1
            if line[k:k + 1] not in _ESCAPES:
                raise _at(n, k - 1, f"unsupported escape {line[k - 1:k + 1]!r}")
            chars.append(_ESCAPES[line[k]])
        else:
            chars.append(c)
        k += 1
    raise _at(n, j, "quoted string not closed on its line")


def _scalar(text: str, n: int, j: int, path: str):
    """The plain scalar text as YAML reads it."""
    if text in _WORDS:
        return _WORDS[text]
    number = _NUMBER.fullmatch(text)
    if number and number.lastgroup == "int":
        try:
            return int(text)
        except ValueError:  # more digits than int() parses
            raise _at(n, j, "integer too long", path) from None
    if number and number.lastgroup == "float":
        return float(text.lower().replace(".inf", "inf").replace(".nan", "nan"))
    if number or text in _YAML11_WORDS:
        raise _at(n, j, (
            f"YAML 1.1 reads {text!r} as something other than this text; quote it, or "
            "write a number in plain decimal and a boolean as true/false"
        ), path)
    return text


def _read(cls, raw, path: str):
    """Build section class cls from a YAML mapping: reject unknown keys,
    convert each given value to its field's annotated type, leave the
    rest to the class defaults. Range checks are the class's own."""
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path or 'config root'} must be a mapping, got {type(raw).__name__}")
    for key in raw:
        if key not in cls._init:
            raise ConfigError(f"unknown config key: {_key(path, key)}")
    hints = cls.__annotations__
    values = {key: _convert(value, hints[key], _key(path, key)) for key, value in raw.items()}
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
    if isinstance(hint, type) and issubclass(hint, Record):
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
            value = load(text)
        except ConfigError as exc:
            raise ConfigError(f"override {dotted}: unparseable value {text!r}: {exc}") from None
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
    raw = load(source) if isinstance(source, str) else source
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    raw = apply_overrides(raw, overrides)
    return _read(SimConfig, raw, "")


def _plain(record: Record) -> dict:
    """record's fields in declaration order, nested records as dicts."""
    out = {}
    for name in record._fields:
        value = getattr(record, name)
        out[name] = _plain(value) if isinstance(value, Record) else value
    return out


def config_echo(cfg: SimConfig) -> dict:
    """Fully-resolved configuration as plain JSON-ready data, every
    section and key in declaration order."""
    echo = _plain(cfg)
    # workers and output_dir are execution plumbing, deliberately left out:
    # summary.json must be byte-identical for identical simulations at any
    # worker count or output location (both live in run_meta.json).
    del echo["workers"], echo["output_dir"]
    return json.loads(json.dumps(echo))
