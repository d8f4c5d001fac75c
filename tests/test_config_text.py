"""The config text reader against PyYAML, its reference.

edgefl reads run configs with config.load, a strict reader of the YAML
subset its configs use. For any text it must return exactly what
PyYAML's SafeLoader, plus YAML 1.2 exponent floats, returns (equal
values of equal types), or raise ConfigError with a line and column.
"""

import ast
import math
import random
import re
from pathlib import Path

import pytest
import yaml

from edgefl.config import ConfigError, load, validate_config

from test_acceptance import SYNTH_TASK
from test_orchestrator import MINIMAL, _tiny_attack_config

ROOT = Path(__file__).resolve().parents[1]


class _Reference(yaml.SafeLoader):
    """SafeLoader that also reads exponent floats such as 1e-4 and 1e9."""


_Reference.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _same(a, b) -> bool:
    """a and b are equal and of equal types all the way down; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _literals(path: Path):
    """Every string literal in a Python file."""
    tree = ast.parse(path.read_text())
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def _override_values(path: Path) -> list[str]:
    """The value of every key.path=value override written in a Python file."""
    return sorted({
        s.partition("=")[2] for s in _literals(path) if re.fullmatch(r"[a-z_]+(\.[a-z_]+)*=.*", s)
    })


def _config_texts(path: Path) -> list[str]:
    """Every string literal in a Python file that starts with 'key: '."""
    return sorted({s for s in _literals(path) if re.match(r"\n?[a-z_]+: ", s)})


EDGE_TEXTS = [
    "a: 1\r\nb:\r\n  c: [1, 2]\r\n", "out#1", "[1, 2,]", "''", "'a''b'", '"a\\tb"', "~", "-0",
    "+5", "1e", "1.0e4", "-.Inf", "9" * 400, "", "# only a comment\n", "null", "TRUE",
    "x: out #1", "x: 'a # b'", "- 1\n- [2, 3]\n", "a:\n- 1\n- 2\nb: 3\n", "a:\n  - x\n  - y\n",
    "benchmarks/out/avgae_default-seed0", "{a: {b: [[0, 0, 0]]}}", "1e-4", "2E-3", ".5", "-.5",
    "1.", "01.5", ".nan", "+.inf", "C:/out", "50%",
]

# Texts the reader must read, and read as PyYAML does.
READ = sorted(
    {path.read_text() for path in (ROOT / "configs").glob("*.yaml")}
    | {MINIMAL, _tiny_attack_config(), SYNTH_TASK.format(rounds=50, h=2, kind="avgae")}
    | set(_config_texts(ROOT / "tests" / "test_orchestrator.py"))
    | set(_override_values(ROOT / "tests" / "test_orchestrator.py"))
    | set(_override_values(ROOT / "benchmarks" / "workloads.py"))
    | set(EDGE_TEXTS)
)


@pytest.mark.parametrize("text", READ)
def test_reader_reads_what_pyyaml_reads(text):
    assert _same(load(text), yaml.load(text, Loader=_Reference))


def test_corpus_covers_every_config_and_override_source():
    assert len([t for t in READ if t.startswith("# ")]) >= 4  # the shipped configs
    for value in ("[30, 40, 50]", "[.nan, 1]", ".nan", "1e", "", "200", "linear"):
        assert value in READ


REJECT = [
    "a: &x 1", "a: *x", "a: !!int 1", "a: |\n  x\n", "a: >\n  x\n", "---\na: 1\n", "a: 1\n...\n",
    "%YAML 1.1\n---\na: 1\n", "a:\n\tb: 1\n", "a: 1\t# tab\n", "a: \x07", "a: b\x00",
    "a: \ufeff", '"a": 1', "a b: 1", "1: 2", "true: 1", "a-b: 1", "{1: 2}", "? a\n: 1\n",
    "a: 1\na: 2\n", "{a: 1, a: 2}", "a:\n  b: 1\n  b: 2\n", "a: yes", "a: No", "a: on",
    "a: OFF", "a: 0x10", "a: 012", "a: 1_000", "a: 1:30", "a: 2024-01-01", "a: <<", "a: =",
    "a: [1,\n  2]\n", "a: 'open\n", "a: b\n  c\n", "a: b: c", "- a: 1", "a:\n  b\n",
    'a: "\\x41"', "a: [1 2", "  a: 1\nb: 2\n", "- 1\nb: 2\n",
    "a: " + "9" * 5000,  # more digits than int() parses: PyYAML raises ValueError
]


@pytest.mark.parametrize("text", REJECT)
def test_reader_rejects_what_it_does_not_read_with_line_and_column(text):
    with pytest.raises(ConfigError, match=r"^line \d+, column \d+: "):
        load(text)


def test_edits_of_the_corpus_are_read_as_pyyaml_reads_them_or_rejected():
    # The contract holds for any text, not only for well-formed configs:
    # single-character edits of the corpus hit the reader's edge cases.
    rng = random.Random(0)
    corpus = READ + REJECT
    read = 0
    for _ in range(3000):
        chars = list(rng.choice(corpus))
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(chars))
            edit = rng.choice(" \t\n\r#:-,[]{}'\"\\.0e1_x%&*!|>?~")
            if rng.random() < 0.5 or not chars:
                chars.insert(at, edit)
            else:
                chars[min(at, len(chars) - 1)] = edit
        text = "".join(chars)
        try:
            got = load(text)
        except ConfigError as exc:
            assert re.match(r"line \d+, column \d+: ", str(exc)), (text, exc)
            continue
        assert _same(got, yaml.load(text, Loader=_Reference)), text
        read += 1
    assert read > 500


@pytest.mark.parametrize("text, error", [
    ("rounds: 50\nrounds: 5\n", "line 2, column 1: duplicate key rounds"),
    ("devices: {n_benign: 2, n_benign: 3}", "line 1, column 24: duplicate key devices.n_benign"),
    ("attack:\n  avgae:\n    d_z: 3\n    d_z: 4\n",
     "line 4, column 5: duplicate key attack.avgae.d_z"),
])
def test_duplicate_keys_are_config_errors(text, error):
    with pytest.raises(ConfigError, match=re.escape(error)):
        validate_config(text)


@pytest.mark.parametrize("text, overrides, path", [
    ("devices: {samples_per_device: 010}", [], "devices.samples_per_device"),
    ("rounds: 1:30", [], "rounds"),
    ("rounds: 0x10", [], "rounds"),
    ("dataset: {n_test: 1_000}", [], "dataset.n_test"),
    ("attack: {avgae: {identity_projection: on}}", [], "attack.avgae.identity_projection"),
    ("attack:\n  avgae:\n    identity_projection: yes\n", [], "attack.avgae.identity_projection"),
    ("output_dir: 2024-01-01", [], "output_dir"),
    (MINIMAL, ["devices.samples_per_device=010"], "override devices.samples_per_device"),
])
def test_yaml_1_1_implicit_types_are_config_errors(text, overrides, path):
    # PyYAML reads 010 as 8, 1:30 as 90, 0x10 as 16, 1_000 as 1000, on and
    # yes as true and 2024-01-01 as a date; edgefl refuses them all.
    with pytest.raises(ConfigError, match=re.escape(path)) as err:
        validate_config(text, overrides)
    assert "quote it, or write a number in plain decimal" in str(err.value)
