import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import edgefl
from edgefl import data, graph_attack, numerics, simulation, training
from edgefl.channel import eavesdrop_set
from edgefl.cli import main as cli_main
from edgefl.config import ConfigError, config_echo, validate_config
from edgefl.data import Dataset, partition_iid, synth_logistic
from edgefl.graph_attack import AttackSettings, run_attack
from edgefl.numerics import RngStream
from edgefl.metrics import RoundRecord
from edgefl.simulation import ROUNDS_CSV_COLUMNS, emit_outputs, run_simulation
from edgefl.training import LossKind, train_stack

from test_data import write_idx_images, write_idx_labels

MINIMAL = "rounds: 2\ndevices: {n_benign: 2, samples_per_device: 30}\ndataset: {dim: 4, n_test: 50}\n"


def _tiny_attack_config(rounds=3):
    return f"""
seed: 11
rounds: {rounds}
devices: {{n_benign: 4, n_malicious: 1, samples_per_device: 40}}
dataset: {{dim: 6, n_test: 100}}
attack:
  kind: avgae
  avgae: {{d_feat: 4, d_z: 3, hidden_dims: [6, 4], gae_epochs: 8, psi_hidden: 3}}
"""


# -------------------------------------------------------------------- config

def test_minimal_config_gets_defaults():
    cfg = validate_config(MINIMAL)
    assert cfg.seed == 0
    assert cfg.rounds == 2
    assert cfg.training.learning_rate == 0.1
    assert cfg.training.local_iterations == 5
    assert cfg.devices.samples_per_device == (30, 30)
    assert cfg.devices.attacker_reported_samples == 30
    assert cfg.attack.kind == "none"
    assert cfg.loss == LossKind.LOGISTIC
    assert cfg.channel.snr_min == 0.0


def test_an_empty_section_and_a_null_optional_take_the_defaults():
    # "devices:" with no value reads as null, as in PyYAML.
    assert validate_config("devices:\ntraining: {batch_size: null}\n") == validate_config("")


def test_config_rejections_name_the_key():
    with pytest.raises(ConfigError, match="devices.n_benign"):
        validate_config("devices: {n_benign: 0}")
    with pytest.raises(ConfigError, match="unknown config key: frobnicate"):
        validate_config("frobnicate: 3")
    with pytest.raises(ConfigError, match="unknown config key: training.momentum"):
        validate_config("training: {momentum: 0.9}")
    with pytest.raises(ConfigError, match="rounds"):
        validate_config("rounds: 0")
    with pytest.raises(ConfigError, match="attack.kind"):
        validate_config("attack: {kind: pixie}")
    with pytest.raises(ConfigError, match="n_malicious is 2"):
        validate_config("devices: {n_malicious: 2}")
    with pytest.raises(ConfigError, match="dataset.train_images"):
        validate_config("dataset: {kind: fashion_mnist}")
    with pytest.raises(ConfigError, match="no such file"):
        validate_config(
            "dataset: {kind: fashion_mnist, train_images: /nope, train_labels: /nope,"
            " test_images: /nope, test_labels: /nope}"
        )


def test_empty_config_echoes_every_default():
    assert config_echo(validate_config("")) == {
        "seed": 0,
        "rounds": 30,
        "devices": {
            "n_benign": 5, "n_malicious": 0, "samples_per_device": [200] * 5,
            "attacker_reported_samples": 200, "b_a_policy": "mean",
        },
        "dataset": {
            "kind": "synthetic", "dim": 10, "n_test": 1000, "w_true_seed": 7,
            "w_scale": 4.0, "train_images": None, "train_labels": None,
            "test_images": None, "test_labels": None, "class_a": 0, "class_b": 9,
        },
        "loss": "logistic",
        "training": {
            "alpha": 0.001, "learning_rate": 0.1, "local_iterations": 5, "batch_size": None,
        },
        "channel": {
            "gain_basis": 1.0, "transmit_power": 1.0, "noise_power": 0.0001, "snr_min": 0.0,
        },
        "positions": {
            "mode": "random_box", "x_range": [0.0, 100.0], "y_range": [0.0, 100.0],
            "z_range": [0.0, 10.0], "benign": None, "attackers": None,
        },
        "global_init": {"kind": "zeros", "std": 0.01},
        "attack": {
            "kind": "none",
            "avgae": {
                "d_feat": 10, "d_z": 8, "hidden_dims": [32, 16], "activation": "tanh",
                "gae_epochs": 5, "gae_learning_rate": 0.05, "beta": 0.001,
                "ascent_steps": 5, "ascent_step_size": 0.1,
                "d_thresh_mode": "percentile", "d_thresh_value": None,
                "d_thresh_percentile": 90.0, "negative_sample_ratio": 1.0,
                "psi_hidden": 8, "identity_projection": False,
            },
            "gaussian": {"sigma": 1.0},
            "signflip": {"scale": 3.0},
        },
    }


@pytest.mark.parametrize("name", ["synthetic_avgae.yaml", "synthetic_gaussian.yaml"])
def test_config_echo_lists_sections_and_keys_in_declaration_order(name):
    echo = config_echo(validate_config((ROOT / "configs" / name).read_text()))
    assert list(echo) == [
        "seed", "rounds", "devices", "dataset", "loss", "training", "channel",
        "positions", "global_init", "attack",
    ]
    assert {section: list(keys) for section, keys in echo.items() if isinstance(keys, dict)} == {
        "devices": [
            "n_benign", "n_malicious", "samples_per_device", "attacker_reported_samples",
            "b_a_policy",
        ],
        "dataset": [
            "kind", "dim", "n_test", "w_true_seed", "w_scale", "train_images", "train_labels",
            "test_images", "test_labels", "class_a", "class_b",
        ],
        "training": ["alpha", "learning_rate", "local_iterations", "batch_size"],
        "channel": ["gain_basis", "transmit_power", "noise_power", "snr_min"],
        "positions": ["mode", "x_range", "y_range", "z_range", "benign", "attackers"],
        "global_init": ["kind", "std"],
        "attack": ["kind", "avgae", "gaussian", "signflip"],
    }
    avgae = echo["attack"]["avgae"]
    assert list(avgae) == [
        "d_feat", "d_z", "hidden_dims", "activation", "gae_epochs", "gae_learning_rate",
        "beta", "ascent_steps", "ascent_step_size", "d_thresh_mode", "d_thresh_value",
        "d_thresh_percentile", "negative_sample_ratio", "psi_hidden", "identity_projection",
    ]
    # The projection width is resolved to the model's 10 dims.
    assert avgae["d_feat"] == 10
    assert list(echo["attack"]["gaussian"]) == ["sigma"]
    assert list(echo["attack"]["signflip"]) == ["scale"]


@pytest.mark.parametrize("text, path", [
    ("seed: -1", "seed"),
    ("workers: 0", "workers"),
    ("loss: hinge", "loss"),
    ("devices: {n_malicious: -1}", "devices.n_malicious"),
    ("devices: {samples_per_device: [10, 20]}", "devices.samples_per_device"),
    ("devices: {samples_per_device: 0}", "devices.samples_per_device"),
    ("devices: {samples_per_device: many}", "devices.samples_per_device must be int or a list"),
    ("devices: {attacker_reported_samples: 0}", "devices.attacker_reported_samples"),
    ("devices: {attacker_reported_samples: median}", "devices.attacker_reported_samples"),
    ("dataset: {kind: images}", "dataset.kind"),
    ("dataset: {dim: 0}", "dataset.dim"),
    ("dataset: {n_test: two}", "dataset.n_test"),
    ("dataset: {n_test: 0}", "dataset.n_test"),
    ("dataset: {w_scale: -1}", "dataset.w_scale"),
    ("dataset: {class_a: 3, class_b: 3}", "dataset.class_a"),
    ("training: {alpha: 2.0}", "training.alpha"),
    ("training: {batch_size: 0}", "training.batch_size"),
    ("training: {local_iterations: true}", "training.local_iterations"),
    ("channel: {noise_power: 0}", "channel.noise_power"),
    ("channel: {snr_min: -1}", "channel.snr_min"),
    ("positions: {mode: grid}", "positions.mode"),
    ("positions: {x_range: [1]}", "positions.x_range"),
    ("positions: {x_range: [a, b]}", "positions.x_range"),
    ("positions: {y_range: [5, 1]}", "positions.y_range"),
    ("positions: {z_range: [-1, 2]}", "positions.z_range"),
    ("positions: {mode: explicit, benign: [[0, 0]]}", "positions.benign[0]"),
    ("positions: {benign: [[0, 0, -1]]}", "positions.benign[0]"),
    ("devices: {n_benign: 1}\npositions: {mode: explicit, benign: [[0, 0, 0]], "
     "attackers: [[5, 5, 1], [6, 6, 1]]}", "positions.attackers"),
    ("global_init: {kind: uniform}", "global_init.kind"),
    ("global_init: {kind: normal, std: 0}", "global_init.std"),
    ("attack: 3", "attack"),
    ("attack: {avgae: 3}", "attack.avgae"),
    ("attack: {avgae: {hidden_dims: [a]}}", "attack.avgae.hidden_dims"),
    ("attack: {avgae: {hidden_dims: 4}}", "attack.avgae.hidden_dims"),
    ("attack: {avgae: {d_thresh_mode: sideways}}", "attack.avgae.d_thresh_mode"),
    ("attack: {avgae: {d_thresh_mode: absolute}}", "attack.avgae.d_thresh_value"),
    ("attack: {avgae: {d_thresh_value: 0.5}}", "attack.avgae.d_thresh_value"),
    ("attack: {avgae: {identity_projection: 1}}", "attack.avgae.identity_projection"),
    ("attack: {avgae: {gae_epochs: -1}}", "attack.avgae"),
    ("attack: {avgae: {d_z: 0}}", "attack.avgae.d_z"),
    ("attack: {avgae: {psi_hidden: 0}}", "attack.avgae.psi_hidden"),
    ("attack: {avgae: {psi: 3}}", "attack.avgae.psi"),
    ("attack: {gaussian: {sigma: 0}}", "attack.gaussian.sigma"),
    ("attack: {gaussian: {mu: 1}}", "attack.gaussian.mu"),
    ("attack: {signflip: {scale: -1}}", "attack.signflip.scale"),
    ("attack: {signflip: 3}", "attack.signflip"),
    ("[1, 2]", "config root"),
])
def test_every_section_rejection_names_the_key_path(text, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        validate_config(text)


@pytest.mark.parametrize("overrides", [
    [],
    ["attack.avgae.d_thresh_mode=absolute", "attack.avgae.d_thresh_value=0.05"],
    ["attack.avgae.d_thresh_mode=absolute", "attack.avgae.d_thresh_value=0.05",
     "attack.avgae.d_thresh_percentile=500"],
])
def test_echoed_attack_section_builds_its_own_settings(overrides):
    cfg = validate_config(_tiny_attack_config(), overrides)
    echoed = config_echo(cfg)["attack"]["avgae"]
    assert AttackSettings(**echoed) == cfg.attack.avgae
    absolute = bool(overrides)
    assert echoed["d_thresh_mode"] == ("absolute" if absolute else "percentile")
    assert echoed["d_thresh_percentile"] == (None if absolute else 90.0)


NON_FINITE_OR_NEGATIVE_SEED = [
    ("channel.snr_min=.nan", "channel.snr_min"),
    ("channel.gain_basis=.inf", "channel.gain_basis"),
    pytest.param("channel.snr_min=" + "9" * 400, "channel.snr_min", id="int-beyond-float"),
    ("attack.avgae.ascent_step_size=.nan", "attack.avgae.ascent_step_size"),
    ("attack.avgae.negative_sample_ratio=.nan", "attack.avgae.negative_sample_ratio"),
    ("positions.x_range=[.nan, 1]", "positions.x_range"),
    ("training.learning_rate=.inf", "training.learning_rate"),
    ("attack.gaussian.sigma=.inf", "attack.gaussian.sigma"),
    ("dataset.w_true_seed=-1", "dataset.w_true_seed"),
]


@pytest.mark.parametrize("override, path", NON_FINITE_OR_NEGATIVE_SEED)
def test_non_finite_floats_and_negative_w_true_seed_are_config_errors(override, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        validate_config(_tiny_attack_config(), overrides=[override])


def test_cli_non_finite_float_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(_tiny_attack_config())
    out_dir = tmp_path / "out"
    code = cli_main([
        "simulate", "--config", str(cfg_path), "--out", str(out_dir),
        "--override", "channel.snr_min=.nan",
    ])
    assert code == 1
    assert "config error: channel.snr_min" in capsys.readouterr().err
    assert not out_dir.exists()


def test_explicit_config_round_trips_through_echo():
    explicit = {
        "seed": 42,
        "rounds": 7,
        "devices": {
            "n_benign": 3,
            "n_malicious": 1,
            "samples_per_device": [10, 20, 30],
            "attacker_reported_samples": 25,
        },
        "dataset": {"kind": "synthetic", "dim": 5, "n_test": 77, "w_true_seed": 3,
                    "w_scale": 2.5},
        "loss": "linear",
        "training": {"alpha": 0.01, "learning_rate": 0.2, "local_iterations": 3,
                     "batch_size": 8},
        "channel": {"gain_basis": 2.0, "transmit_power": 3.0, "noise_power": 0.5,
                    "snr_min": 0.1},
        "positions": {
            "mode": "explicit",
            "benign": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
            "attackers": [[5.0, 5.0, 1.0]],
        },
        "global_init": {"kind": "normal", "std": 0.5},
        "attack": {"kind": "gaussian", "gaussian": {"sigma": 2.0}},
    }
    echo = config_echo(validate_config(dict(explicit)))
    for section, content in explicit.items():
        if not isinstance(content, dict):
            assert echo[section] == content, section
            continue
        for key, value in content.items():
            assert echo[section][key] == value, f"{section}.{key}"


def test_overrides_apply_and_reject_garbage():
    cfg = validate_config(MINIMAL, overrides=["training.learning_rate=0.05", "seed=9"])
    assert cfg.training.learning_rate == 0.05
    assert cfg.seed == 9
    with pytest.raises(ConfigError, match="override"):
        validate_config(MINIMAL, overrides=["no-equals-sign"])
    with pytest.raises(ConfigError, match="unknown config key"):
        validate_config(MINIMAL, overrides=["nope.x=1"])


@pytest.mark.parametrize("override, error", [
    ("=1", "override has empty key: '=1'"),
    ("seed.x=1", "override seed.x: seed is not a mapping"),
])
def test_malformed_overrides_are_config_errors(override, error):
    with pytest.raises(ConfigError, match=re.escape(error)):
        validate_config(_tiny_attack_config(), [override])


def test_exponent_floats_in_config_text_and_overrides():
    cfg = validate_config(
        MINIMAL + "channel: {snr_min: 1e9, transmit_power: 1.0e4}\n",
        overrides=["channel.noise_power=1e-4", "training.alpha=2E-3"],
    )
    assert cfg.channel.snr_min == 1e9
    assert cfg.channel.transmit_power == 1e4
    assert cfg.channel.noise_power == 1e-4
    assert cfg.training.alpha == 2e-3
    with pytest.raises(ConfigError, match="channel.noise_power must be float, got str"):
        validate_config(MINIMAL, overrides=["channel.noise_power=1e"])


def test_validate_config_leaves_its_input_unchanged():
    source = {"training": {"alpha": 0.01}, "attack": {"avgae": {"beta": 0.0}}}
    before = json.loads(json.dumps(source))
    cfg = validate_config(source, ["training.alpha=0.5", "attack.avgae.beta=0.2"])
    assert cfg.training.alpha == 0.5 and cfg.attack.avgae.beta == 0.2
    assert source == before


def test_random_box_rejects_position_lists(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(
        "devices: {n_benign: 1, n_malicious: 1}\nattack: {kind: gaussian}\n"
        "positions: {attackers: [[1, 2, 3]]}\n"
    )
    assert cli_main(["validate", "--config", str(cfg_path)]) == 1
    assert "positions.attackers is only read in explicit mode" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=r"positions\.benign is only read in explicit mode"):
        validate_config("devices: {n_benign: 1}\npositions: {benign: [[1, 2, 3]]}")


def test_explicit_positions_validation():
    base = yaml.safe_load(MINIMAL)
    base["positions"] = {"mode": "explicit", "benign": [[0, 0, 0]]}
    with pytest.raises(ConfigError, match="positions.benign must list 2"):
        validate_config(base)
    base["positions"] = {
        "mode": "explicit",
        "benign": [[0, 0, 0], [1, 1, 0]],
    }
    base["devices"]["n_malicious"] = 1
    base["attack"] = {"kind": "gaussian"}
    with pytest.raises(ConfigError, match="positions.attackers must list 1"):
        validate_config(base)
    base["positions"]["attackers"] = [[0, 0, 0]]
    with pytest.raises(ConfigError, match="coincide"):
        validate_config(base)


def test_d_feat_resolves_to_model_dim():
    cfg = validate_config(
        "devices: {n_malicious: 1}\ndataset: {dim: 6}\n"
        "attack: {kind: avgae, avgae: {d_feat: 32}}"
    )
    assert cfg.attack.avgae.d_feat == 6
    cfg2 = validate_config(
        "devices: {n_malicious: 1}\ndataset: {dim: 6}\n"
        "attack: {kind: avgae, avgae: {identity_projection: true, d_feat: 3}}"
    )
    assert cfg2.attack.avgae.d_feat == 6 and cfg2.attack.avgae.identity_projection


ROOT = Path(__file__).resolve().parents[1]


def _benchmark_workloads(monkeypatch):
    """A fresh import of benchmarks/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", ROOT / "benchmarks" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


def test_every_benchmark_workload_config_validates(tmp_path, monkeypatch):
    # The benchmark builds each run from a shipped config plus override
    # keys (workers among them); a removed or renamed key fails here first.
    workloads = _benchmark_workloads(monkeypatch)
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        text = (ROOT / workload.config).read_text()
        cfg = validate_config(text, workload.overrides_for(0, tmp_path / name))
        assert cfg.rounds == workload.rounds and cfg.workers == 1


def test_benchmark_reads_what_the_run_hands_it(monkeypatch):
    # The benchmark counts attack outcomes off the records and traces
    # public functions by name; a traced function that is gone reads as
    # 0 calls instead of failing, so the ones the round hand-off goes
    # through must still exist.
    workloads = _benchmark_workloads(monkeypatch)
    cfg = validate_config((ROOT / "configs" / "synthetic_avgae.yaml").read_text(), ["rounds=2"])
    counts = workloads.diagnostic_counts(run_simulation(cfg))
    assert counts == {"attempts": 4, "skipped": 0, "constraint_ok": 4, "uniform_fallback": 0}
    for qualname in (
        "aggregation.aggregate", "metrics.trace_summary",
        "simulation.run_simulation", "simulation.emit_outputs",
    ):
        assert qualname in workloads.TRACED
        module, name = qualname.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(f"edgefl.{module}"), name, None))


# ---------------------------------------------------------------- simulation

def test_global_model_sums_rows_in_ascending_device_id():
    # aggregate sums the rows in the order it is given; the round must
    # hand it its models in ascending device id, the order the weighted
    # sum is defined in.
    cfg = validate_config(MINIMAL, overrides=[
        "rounds=4", "devices.n_benign=3", "devices.samples_per_device=[30, 40, 50]",
        "devices.n_malicious=2", "attack.kind=gaussian",
        "devices.attacker_reported_samples=7",
    ])
    count_of = {1: 30, 2: 40, 3: 50, 4: 7, 5: 7}
    shuffle = np.random.default_rng(0)
    for record in run_simulation(cfg):
        triples = [
            (int(i), model, count_of[int(i)]) for i, model in zip(record.device_ids, record.models)
        ]
        shuffled = [triples[k] for k in shuffle.permutation(len(triples))]
        triples = sorted(shuffled, key=lambda t: t[0])
        counts = np.array([count for _, _, count in triples], dtype=np.float64)
        weights = counts / counts.sum()
        expected = (weights[:, None] * np.stack([model for _, model, _ in triples])).sum(axis=0)
        np.testing.assert_array_equal(record.global_params, expected)


def test_single_party_round_equals_local_training():
    cfg = validate_config(
        "seed: 3\nrounds: 1\ndevices: {n_benign: 1, samples_per_device: 50}\n"
        "dataset: {dim: 4, n_test: 60}\n"
    )
    [record] = run_simulation(cfg)

    # Rebuild the device shard through the documented stream layout and
    # retrain by hand; the round-1 global must equal that local model.
    d = cfg.dataset.dim
    w_rng = RngStream(cfg.dataset.w_true_seed, "w-true")
    w_true = w_rng.gen.standard_normal(d) * (cfg.dataset.w_scale / math.sqrt(d))
    pool = synth_logistic(50 + 60, d, w_true, RngStream(3, "data"))
    train = Dataset(pool.x[:50], pool.y[:50])
    shards = partition_iid(train, [50], RngStream(3, "partitioner"))
    [expected], _ = train_stack(
        cfg.loss, np.zeros(d), shards, cfg.training, [RngStream(3, "device-1")]
    )
    np.testing.assert_array_equal(record.global_params, expected)


def test_round_trace_shape_and_losses():
    cfg = validate_config(_tiny_attack_config())
    records = run_simulation(cfg)
    assert [r.round_index for r in records] == [1, 2, 3]
    for record in records:
        assert len(record.device_ids) == len(record.models) == 5
        benign, attackers = ~record.is_malicious, record.is_malicious
        assert record.device_ids[benign].tolist() == [1, 2, 3, 4]
        assert record.device_ids[attackers].tolist() == [5]
        assert np.isfinite(record.local_loss[benign]).all()
        assert np.isnan(record.local_loss[attackers]).all()
        assert 0.0 <= record.test_accuracy <= 1.0
        assert len(record.attack_diagnostics) == 1


def test_benign_mean_loss_non_increasing_smoothed():
    cfg = validate_config(
        "seed: 5\nrounds: 20\ndevices: {n_benign: 3, samples_per_device: 100}\n"
        "dataset: {dim: 6, n_test: 200}\n"
    )
    records = run_simulation(cfg)
    mean_losses = [
        np.mean(r.local_loss[~r.is_malicious])
        for r in records
    ]
    smoothed = [np.mean(mean_losses[i : i + 3]) for i in range(len(mean_losses) - 2)]
    for a, b in zip(smoothed[4:], smoothed[5:]):
        assert b <= a + 1e-9


def test_empty_eavesdrop_set_skips_attack():
    cfg = validate_config(
        """
seed: 2
rounds: 2
devices: {n_benign: 2, n_malicious: 1, samples_per_device: 30}
dataset: {dim: 4, n_test: 50}
channel: {snr_min: 1.0, noise_power: 0.0001}
positions:
  mode: explicit
  benign: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
  attackers: [[1000000.0, 0.0, 0.0]]
attack:
  kind: avgae
  avgae: {d_feat: 4, d_z: 2, hidden_dims: [4], gae_epochs: 4, psi_hidden: 2}
"""
    )
    records = run_simulation(cfg)
    for record in records:
        [diag] = record.attack_diagnostics
        assert diag.skipped and "overheard" in diag.skip_reason
        [attacker_distance] = record.distance_to_global[record.is_malicious]
        # The attacker resubmits the model it received, i.e. the previous
        # global, so its update still enters the aggregate.
        assert np.isfinite(attacker_distance)


def test_logistic_run_rejects_labels_other_than_0_and_1(monkeypatch):
    def three_labels(n, d, w_true, rng, out, rows):
        synth_logistic(n, d, w_true, rng, out, rows)
        out.y[rows[7]] = 2.0
        return out

    monkeypatch.setattr(data, "synth_logistic", three_labels)
    with pytest.raises(RuntimeError, match=(
        "stage setup: synthetic training set: labels must be 0 or 1 for the logistic loss"
    )):
        run_simulation(validate_config(MINIMAL))
    # The linear loss takes any real target.
    run_simulation(validate_config(MINIMAL, overrides=["loss=linear"]))


def test_setup_holds_each_synthetic_sample_once():
    cfg = validate_config(
        "devices: {n_benign: 200, samples_per_device: 200}\ndataset: {dim: 10}\n"
    )
    simulation._setup(cfg)  # imports and first-draw set-up, outside the count
    tracemalloc.start()
    try:
        setup = simulation._setup(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * (setup.shards.x.nbytes + setup.shards.y.nbytes)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_local_loss_names_round_and_stage():
    # Three steps at this rate leave finite models and margins near 1e180,
    # whose squared residual overflows when the round's losses are taken.
    cfg = validate_config(
        MINIMAL, overrides=["loss=linear", "training.learning_rate=1e60",
                            "training.local_iterations=3"]
    )
    with pytest.raises(RuntimeError,
                       match=r"^round 1, stage metrics: local loss contains non-finite "
                             r"entries, the first at device 1$"):
        run_simulation(cfg)


# -------------------------------------------------------------- emit_outputs

def test_emit_outputs_files_and_row_counts(tmp_path):
    cfg = validate_config(_tiny_attack_config(rounds=4))
    records = run_simulation(cfg)
    # A Path output_dir is written to, and left out of the echo, like a str.
    written = emit_outputs(records, cfg.replace(output_dir=tmp_path / "run"), elapsed_seconds=1.5)
    rounds_lines = written["rounds"].read_text().strip().splitlines()
    assert rounds_lines[0] == ",".join(ROUNDS_CSV_COLUMNS)
    assert len(rounds_lines) == 1 + 4 * (4 + 1)
    diag_lines = written["attack_diag"].read_text().strip().splitlines()
    assert diag_lines[0] == (
        "round,attacker_id,delta_g_initial,delta_g_final,gamma_model,skipped,"
        "d_thresh,centroid_pull,uniform_fallback,constraint_ok,skip_reason"
    )
    assert len(diag_lines) == 1 + 4
    diags = [d for r in records for d in r.attack_diagnostics]
    assert [line.split(",")[6:] for line in diag_lines[1:]] == [
        [repr(d.d_thresh), repr(d.centroid_pull), str(int(d.uniform_fallback)),
         str(int(d.constraint_ok)), d.skip_reason]
        for d in diags
    ]
    summary = json.loads(written["summary"].read_text())
    assert summary["rounds_completed"] == 4
    assert summary["config"]["devices"]["n_malicious"] == 1
    assert "wall_clock_seconds" in json.loads(written["run_meta"].read_text())


def test_summary_is_strict_json_when_no_attack_ran(tmp_path):
    cfg = validate_config(_tiny_attack_config(), overrides=["channel.snr_min=1000000000.0"])
    records = run_simulation(cfg)
    assert all(diag.skipped for r in records for diag in r.attack_diagnostics)
    written = emit_outputs(records, cfg.replace(output_dir=str(tmp_path / "run")))

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads(written["summary"].read_text(), parse_constant=reject)
    assert summary["stealth_rates"] == {"5": None}


def _csv_writer_rounds(records):
    """rounds.csv as csv.writer writes it, with repr floats."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(ROUNDS_CSV_COLUMNS)
    for record in records:
        for k, device_id in enumerate(record.device_ids):
            writer.writerow([
                record.round_index, int(device_id), int(record.is_malicious[k]),
                repr(float(record.distance_to_global[k])), repr(float(record.local_loss[k])),
                repr(float(record.test_accuracy)),
            ])
    return buf.getvalue().encode()


def test_rounds_csv_equals_csv_writer_output(tmp_path):
    cfg = validate_config(MINIMAL, overrides=[
        "devices.n_malicious=2", "attack.kind=gaussian", "rounds=3",
    ])
    records = run_simulation(cfg)
    assert sum(int(np.isnan(r.local_loss).sum()) for r in records) == 6
    # Values a run does not produce, in numpy arrays: the file must still
    # hold their plain repr.
    records.append(RoundRecord(
        round_index=4, global_params=np.zeros(4),
        device_ids=np.array([1, 2, 3], dtype=np.int64),
        is_malicious=np.array([False, True, True]), models=np.zeros((3, 4)),
        distance_to_global=np.array([-0.0, 5e-324, 1e300]),
        local_loss=np.array([1 / 3, float("nan"), float("nan")]),
        test_accuracy=np.float64(0.1),
    ))
    # Each of two more records shares one array with the record before
    # it, device ids and then flags: each row takes its own record's.
    flags = np.array([True, False, False])
    for round_index, device_ids, is_malicious in (
            (5, records[-1].device_ids, flags), (6, np.array([7, 8, 9], dtype=np.int64), flags)):
        records.append(RoundRecord(
            round_index=round_index, global_params=np.zeros(4), device_ids=device_ids,
            is_malicious=is_malicious, models=np.zeros((3, 4)),
            distance_to_global=np.array([1.0, 2.0, 3.0]), local_loss=np.array([0.5, 0.25, 0.125]),
            test_accuracy=np.float64(0.5),
        ))
    written = emit_outputs(records, cfg.replace(output_dir=str(tmp_path)))
    assert written["rounds"].read_bytes() == _csv_writer_rounds(records)
    assert written["rounds"].read_text().splitlines()[-6:] == [
        "5,1,1,1.0,0.5,0.5", "5,2,0,2.0,0.25,0.5", "5,3,0,3.0,0.125,0.5",
        "6,7,1,1.0,0.5,0.5", "6,8,0,2.0,0.25,0.5", "6,9,0,3.0,0.125,0.5",
    ]


def test_emit_outputs_no_attack_diag_for_benign_runs(tmp_path):
    cfg = validate_config(MINIMAL)
    records = run_simulation(cfg)
    written = emit_outputs(records, cfg.replace(output_dir=str(tmp_path / "run")))
    assert "attack_diag" not in written
    assert not (tmp_path / "run" / "attack_diag.csv").exists()


def test_failed_summary_write_leaves_no_partial_or_temporary_file(tmp_path, monkeypatch):
    cfg = validate_config(MINIMAL)
    records = run_simulation(cfg)
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    emit_outputs(records, cfg.replace(output_dir=str(rerun)))
    complete = (rerun / "summary.json").read_bytes()

    def half_written(obj, fh, **kwargs):
        fh.write('{\n  "config": {')
        raise OSError("disk full")

    monkeypatch.setattr(simulation.json, "dump", half_written)
    for out in (fresh, rerun):
        with pytest.raises(OSError, match="disk full"):
            emit_outputs(records, cfg.replace(output_dir=str(out)))
    # rounds.csv was written whole before the summary failed.
    assert sorted(p.name for p in fresh.iterdir()) == ["rounds.csv"]
    assert sorted(p.name for p in rerun.iterdir()) == ["rounds.csv", "run_meta.json", "summary.json"]
    assert (rerun / "summary.json").read_bytes() == complete


def test_identical_seed_produces_identical_bytes(tmp_path):
    cfg = validate_config(_tiny_attack_config())
    for name in ("a", "b"):
        emit_outputs(run_simulation(cfg), cfg.replace(output_dir=str(tmp_path / name)))
    for fname in ("rounds.csv", "summary.json", "attack_diag.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    base = _tiny_attack_config()
    cfg1 = validate_config(base, overrides=["workers=1"])
    cfg4 = validate_config(base, overrides=["workers=4"])
    emit_outputs(run_simulation(cfg1), cfg1.replace(output_dir=str(tmp_path / "w1")))
    emit_outputs(run_simulation(cfg4), cfg4.replace(output_dir=str(tmp_path / "w4")))
    assert (tmp_path / "w1" / "rounds.csv").read_bytes() == (
        tmp_path / "w4" / "rounds.csv"
    ).read_bytes()


def test_different_seeds_differ(tmp_path):
    cfg_a = validate_config(MINIMAL, overrides=["seed=1"])
    cfg_b = validate_config(MINIMAL, overrides=["seed=2"])
    emit_outputs(run_simulation(cfg_a), cfg_a.replace(output_dir=str(tmp_path / "a")))
    emit_outputs(run_simulation(cfg_b), cfg_b.replace(output_dir=str(tmp_path / "b")))
    assert (tmp_path / "a" / "rounds.csv").read_bytes() != (
        tmp_path / "b" / "rounds.csv"
    ).read_bytes()


# ------------------------------------------------------------------------ CLI

def test_cli_validate_and_simulate(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(MINIMAL)
    assert cli_main(["validate", "--config", str(cfg_path)]) == 0
    out_dir = tmp_path / "out"
    code = cli_main([
        "simulate", "--config", str(cfg_path), "--seed", "5", "--out", str(out_dir),
        "--override", "rounds=1",
    ])
    assert code == 0
    assert (out_dir / "rounds.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["seed"] == 5
    assert summary["rounds_completed"] == 1
    assert "final test accuracy" in capsys.readouterr().out


def test_run_meta_records_seconds_per_stage(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(_tiny_attack_config(rounds=2))
    out_dir = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    meta = json.loads((out_dir / "run_meta.json").read_text())
    assert "wall_clock_seconds" in meta
    assert set(meta["stage_seconds"]) == {
        "setup", "local training", "graph build", "gae training", "reconstruction",
        "generation", "aggregation", "metrics", "emit",
    }


# Attackers 7 and 9 overhear benign devices 1-3, attacker 8 overhears 4-6,
# and attacker 10 overhears only device 5, so its attack is skipped.
GROUPED_ATTACK = """
seed: 3
rounds: 4
devices: {n_benign: 6, n_malicious: 4, samples_per_device: 60}
dataset: {dim: 8, n_test: 100}
channel: {snr_min: 20.0}
positions:
  mode: explicit
  benign: [[0, 0, 0], [10, 0, 0], [0, 10, 0], [100, 100, 0], [110, 100, 0], [100, 110, 0]]
  attackers: [[5, 5, 1], [105, 105, 1], [5, 6, 1], [130, 100, 1]]
attack:
  kind: avgae
  avgae: {d_z: 4, hidden_dims: [12, 6], gae_epochs: 20, psi_hidden: 4}
"""


def _one_attacker_at_a_time(monkeypatch):
    """Run every graph attacker through run_attack in a group of its own,
    in place of the grouped step."""

    def per_attacker(overheard, prev, settings, rngs, projector, ids, stage_seconds=None):
        return [
            run_attack(overheard, prev, settings, [rng], projector, [attacker_id])[0]
            for rng, attacker_id in zip(rngs, ids)
        ]

    monkeypatch.setattr(simulation, "run_attack", per_attacker)


def test_grouped_attackers_match_a_per_attacker_loop(tmp_path, monkeypatch):
    cfg = validate_config(GROUPED_ATTACK)
    setup = simulation._setup(cfg)
    assert setup.attack_groups == [[7, 9], [8], [10]]
    assert setup.overheard_rows[10].tolist() == [4]  # device 5
    emit_outputs(run_simulation(cfg), cfg.replace(output_dir=str(tmp_path / "grouped")))
    with monkeypatch.context() as patch:
        _one_attacker_at_a_time(patch)
        emit_outputs(run_simulation(cfg), cfg.replace(output_dir=str(tmp_path / "alone")))
    for name in ("rounds.csv", "summary.json", "attack_diag.csv"):
        grouped = (tmp_path / "grouped" / name).read_bytes()
        assert grouped == (tmp_path / "alone" / name).read_bytes()
    diag = (tmp_path / "grouped" / "attack_diag.csv").read_text().splitlines()
    assert [row.split(",")[5] for row in diag if row.split(",")[1] == "10"] == ["1"] * 4


# At this learning rate attacker 9 diverges at epoch 14 of round 1 and
# attacker 7, in the same group, only at epoch 18.
GROUPED_DIVERGENCE = ["seed=1", "attack.avgae.gae_learning_rate=128.0"]


def test_grouped_divergence_names_the_first_failing_attacker():
    cfg = validate_config(GROUPED_ATTACK, GROUPED_DIVERGENCE)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError) as grouped:
        run_simulation(cfg)
    assert str(grouped.value).startswith(
        "round 1, stage attack (device 9): graph training diverged"
    )
    assert str(grouped.value).endswith(" at epoch 14); reduce gae_learning_rate")


def test_a_failing_attack_group_stops_the_round(monkeypatch):
    # Group [7, 9] fails in round 1, so groups [8] and [10], which come
    # after it, never run.
    groups = []

    def recording(overheard, prev, settings, rngs, projector, ids, stage_seconds=None):
        groups.append(list(ids))
        return run_attack(overheard, prev, settings, rngs, projector, ids, stage_seconds)

    monkeypatch.setattr(simulation, "run_attack", recording)
    cfg = validate_config(GROUPED_ATTACK, GROUPED_DIVERGENCE)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError):
        run_simulation(cfg)
    assert groups == [[7, 9]]


def test_a_generation_failure_names_the_attacker_it_stopped_at(monkeypatch):
    # Attackers 6 and 7 share one group; generation fails for the second.
    calls = []
    original = graph_attack.generate_malicious

    def failing_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("generation refused")
        return original(*args, **kwargs)

    monkeypatch.setattr(graph_attack, "generate_malicious", failing_second)
    cfg = validate_config(_tiny_attack_config(), ["devices.n_benign=5", "devices.n_malicious=2"])
    assert simulation._setup(cfg).attack_groups == [[6, 7]]
    with pytest.raises(RuntimeError) as err:
        run_simulation(cfg)
    assert str(err.value) == "round 1, stage attack (device 7): generation refused"


def test_attack_failure_text_is_the_same_at_any_worker_count():
    messages = []
    for workers in (1, 2):
        cfg = validate_config(GROUPED_ATTACK, [*GROUPED_DIVERGENCE, f"workers={workers}"])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError) as err:
            run_simulation(cfg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("round 1, stage attack (device 9): ")


def test_shipped_gae_epochs_move_the_global_model_far_less_than_a_stealth_radius():
    # The shipped epoch count trains the encoders well short of 80 epochs,
    # on the evidence that the later epochs change nothing downstream.
    # Every round's global model must stay within a tenth of the run's
    # mean stealth radius of the 80-epoch run (today 0.006 radii).
    text = (ROOT / "configs" / "synthetic_avgae.yaml").read_text()
    shipped = run_simulation(validate_config(text, ["rounds=10", "seed=0"]))
    long = run_simulation(
        validate_config(text, ["rounds=10", "seed=0", "attack.avgae.gae_epochs=80"])
    )
    gap = max(np.linalg.norm(a.global_params - b.global_params) for a, b in zip(shipped, long))
    radius = np.mean([
        d.d_thresh for r in shipped for d in r.attack_diagnostics if not d.skipped
    ])
    assert 0 < gap < 0.1 * radius


def test_shipped_ascent_steps_move_the_global_model_far_less_than_a_stealth_radius():
    # The shipped latent ascent takes few steps, on the evidence that the
    # decoded logits are saturated, so each step barely moves the latent.
    # Every round's global model must stay within a tenth of the run's
    # mean stealth radius of the 30-step run (today 0.0046 radii).
    text = (ROOT / "configs" / "synthetic_avgae.yaml").read_text()
    shipped = run_simulation(validate_config(text, ["rounds=10", "seed=0"]))
    long = run_simulation(
        validate_config(text, ["rounds=10", "seed=0", "attack.avgae.ascent_steps=30"])
    )
    gap = max(np.linalg.norm(a.global_params - b.global_params) for a, b in zip(shipped, long))
    radius = np.mean([
        d.d_thresh for r in shipped for d in r.attack_diagnostics if not d.skipped
    ])
    assert 0 < gap < 0.1 * radius


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "at 784 dims the summed GAE loss overshoots at the shipped learning rate; the "
    "node-mean loss with KL/n (ROADMAP item 2, still open) is the fix to try"
))
def test_shipped_gae_training_lowers_every_attackers_loss_at_784_dims():
    # Today attacker 31 ends round 1 at a loss of 703.1 after starting at
    # 111.7, at 5 ascent steps and at 30 alike.
    text = (ROOT / "configs" / "synthetic_avgae.yaml").read_text()
    [record] = run_simulation(
        validate_config(text, ["dataset.dim=784", "devices.n_benign=30", "rounds=1"])
    )
    trained = [d for d in record.attack_diagnostics if not d.skipped]
    assert trained
    for d in trained:
        assert d.delta_g_final <= d.delta_g_initial, (
            f"attacker {d.attacker_id}: loss {d.delta_g_initial:.1f} -> {d.delta_g_final:.1f}"
        )


def test_shipped_attack_trains_on_a_six_node_784_dim_graph():
    # Without LOGVAR_MAX the variational head runs away here and training
    # diverges at epoch 6 of round 2.
    text = (ROOT / "configs" / "synthetic_avgae.yaml").read_text()
    cfg = validate_config(text, [
        "dataset.dim=784", "devices.samples_per_device=50", "devices.n_malicious=4",
        "seed=2", "rounds=2",
    ])
    run_simulation(cfg)


def test_shipped_attack_trains_with_30_benign_784_dim_devices():
    # Without LOGVAR_MAX this raises "graph training diverged" in round 1,
    # after an exp overflow in the variational sample.
    text = (ROOT / "configs" / "synthetic_avgae.yaml").read_text()
    records = run_simulation(
        validate_config(text, ["dataset.dim=784", "devices.n_benign=30", "rounds=2"])
    )
    assert any(not d.skipped for r in records for d in r.attack_diagnostics)


def test_shipped_attack_completes_when_every_decoded_weight_underflows():
    # With 8 attackers the GAE latents grow until attacker 6's decoded
    # logits all sit far below -700 in round 7: every weight underflows to
    # 0, so its latent takes no ascent step and generation mixes the
    # overheard models uniformly. Without the zero step this raised
    # "non-finite ascent state at step 0" there.
    text = (ROOT / "configs" / "synthetic_avgae.yaml").read_text()
    records = run_simulation(validate_config(text, [
        "dataset.dim=784", "devices.n_malicious=8", "devices.samples_per_device=20",
        "seed=0", "rounds=50", "attack.avgae.d_thresh_percentile=90",
    ]))
    diags = [(r.round_index, d) for r in records for d in r.attack_diagnostics]
    assert len(diags) == 400
    assert [(i, d.attacker_id) for i, d in diags if d.uniform_fallback] == [(7, 6)]
    assert all(d.constraint_ok and not d.skipped for _, d in diags)


def test_round_loop_calls_every_traced_graph_attack_stage(monkeypatch):
    # The benchmark times the graph attack through these names, so the
    # round loop must reach each of them, once per attacker and round.
    names = (
        "run_attack", "build_graph", "sample_links", "train_gae",
        "adversarial_reconstruct", "generate_malicious",
    )
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(graph_attack, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (graph_attack, simulation):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    cfg = validate_config(_tiny_attack_config(rounds=2))
    records = run_simulation(cfg)
    assert not any(d.skipped for r in records for d in r.attack_diagnostics)
    assert calls == dict.fromkeys(names, 2)


def test_round_bookkeeping_runs_once_per_round(monkeypatch):
    # Every device's distance comes from one call per round, whatever the
    # device count, and the benign losses from one call per block of
    # local training: five devices are one block.
    calls = {"euclidean_distance": 0, "stack_loss": 0}
    for module, name in ((numerics, "euclidean_distance"), (training, "stack_loss")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for target in (module, simulation):
            if hasattr(target, name):
                monkeypatch.setattr(target, name, counting)
    cfg = validate_config(MINIMAL, overrides=[
        "rounds=3", "devices.n_benign=5", "devices.n_malicious=2", "attack.kind=gaussian",
    ])
    records = run_simulation(cfg)
    assert [len(r.device_ids) for r in records] == [7, 7, 7]
    assert calls == {"euclidean_distance": 3, "stack_loss": 3}


def test_eavesdrop_sets_are_computed_once_per_run(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return eavesdrop_set(*args)

    monkeypatch.setattr(simulation, "eavesdrop_set", counting)
    cfg = validate_config(_tiny_attack_config(rounds=3))
    run_simulation(cfg)
    assert len(calls) == cfg.devices.n_malicious == 1


@pytest.mark.parametrize("overrides", [
    ["devices.n_malicious=2", "attack.kind=gaussian"], [],
], ids=["gaussian", "none"])
def test_attacks_that_read_no_overheard_model_draw_no_positions(monkeypatch, overrides):
    # Only the graph and sign-flip attacks read overheard rows.
    def unexpected(*args):
        raise AssertionError("positions drawn for an attack that reads none")

    monkeypatch.setattr(simulation, "_draw_positions", unexpected)
    monkeypatch.setattr(simulation, "eavesdrop_set", unexpected)
    cfg = validate_config(MINIMAL, overrides)
    records = run_simulation(cfg)
    assert records[-1].is_malicious.sum() == cfg.devices.n_malicious


# ------------------------------------------------------- documented inputs

def test_fashion_mnist_idx_files_run_end_to_end(tmp_path):
    # The IDX branch of setup, on generated 28x28 files: classes 0 and 9
    # are kept and relabeled 0 / 1, class 3 is dropped.
    rng = np.random.default_rng(0)
    paths = {}
    for split, n in (("train", 240), ("test", 60)):
        paths[f"{split}_images"] = str(tmp_path / f"{split}-images-idx3-ubyte")
        paths[f"{split}_labels"] = str(tmp_path / f"{split}-labels-idx1-ubyte")
        write_idx_images(paths[f"{split}_images"], rng.integers(0, 256, size=(n, 28, 28)))
        write_idx_labels(paths[f"{split}_labels"], np.resize([0, 3, 9], n))
    cfg = validate_config({
        "rounds": 3, "output_dir": str(tmp_path / "out"),
        "devices": {"n_benign": 3, "n_malicious": 2, "samples_per_device": 50},
        "dataset": {"kind": "fashion_mnist", "class_a": 0, "class_b": 9, **paths},
        "attack": {"kind": "avgae"},
    })
    written = emit_outputs(run_simulation(cfg), cfg)
    assert len(written["rounds"].read_text().splitlines()) == 1 + 3 * (3 + 2)
    pooled, test = simulation._build_datasets(cfg)
    assert pooled.x.shape == (150, 784) and set(pooled.y.tolist()) == {0.0, 1.0}
    assert len(test) == 40


def test_identity_projection_echoes_the_model_width_as_d_feat(tmp_path):
    cfg = validate_config(_tiny_attack_config(rounds=2), [
        "attack.avgae.identity_projection=true", f"output_dir={tmp_path}",
    ])
    records = run_simulation(cfg)
    assert not any(d.skipped for r in records for d in r.attack_diagnostics)
    summary = json.loads(emit_outputs(records, cfg)["summary"].read_text())
    assert summary["config"]["attack"]["avgae"]["d_feat"] == cfg.dataset.dim == 6


def test_normal_global_init_starts_from_the_seeded_draw():
    cfg = validate_config(MINIMAL, ["global_init.kind=normal", "global_init.std=0.5"])
    expected = RngStream(cfg.seed, "global-init").gen.standard_normal(4) * 0.5
    np.testing.assert_array_equal(simulation._setup(cfg).global_init, expected)
    [first, _] = run_simulation(cfg)
    [zeros_first, _] = run_simulation(validate_config(MINIMAL))
    assert not np.array_equal(first.global_params, zeros_first.global_params)


def test_signflip_attackers_that_overhear_nothing_resubmit_the_global_model():
    cfg = validate_config(MINIMAL, [
        "devices.n_malicious=2", "attack.kind=signflip", "channel.snr_min=1e12",
    ])
    records = run_simulation(cfg)
    previous = np.zeros(4)
    for record in records:
        assert [(d.skipped, d.skip_reason) for d in record.attack_diagnostics] == [
            (True, "no overheard models")
        ] * 2
        for model in record.models[record.is_malicious]:
            np.testing.assert_array_equal(model, previous)
        previous = record.global_params


def _fresh_python(probe: str) -> str:
    """Stdout of probe run by a fresh interpreter that imports this edgefl."""
    src = str(Path(edgefl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cli_import_loads_no_scipy():
    # The runtime needs only numpy; scipy is a test dependency.
    probe = (
        "import sys, edgefl.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(probe) == "[]"


def test_cli_import_loads_no_dataclasses_gzip_or_yaml():
    # Each costs every short-lived process that imports edgefl.cli: the
    # records are built without dataclasses' generated code, gzip loads
    # only to read a gzipped file, and configs are read without PyYAML.
    probe = (
        "import sys, edgefl.cli; "
        "print([m for m in ('dataclasses', 'gzip', 'yaml') if m in sys.modules])"
    )
    assert _fresh_python(probe) == "[]"


def test_an_attacked_run_never_imports_numpy_ma(tmp_path):
    # The first np.percentile call of a process imports numpy.ma, several
    # ms of every run; the percentile stealth radius is computed without it.
    config = tmp_path / "attack.yaml"
    config.write_text(_tiny_attack_config(rounds=3))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
    probe = (
        f"import sys; from edgefl.cli import main; code = main({argv!r}); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    assert _fresh_python(probe).splitlines()[-1] == "0 False"
    diag = (tmp_path / "out" / "attack_diag.csv").read_text().splitlines()
    assert len(diag) == 4 and all(row.split(",")[5] == "0" for row in diag[1:])


def test_mixed_sample_counts_never_import_numpy_ma():
    # Devices are grouped by sample count without np.unique, whose first
    # call imports numpy.ma.
    probe = (
        "import sys; from edgefl.config import validate_config; "
        "from edgefl.simulation import run_simulation; "
        f"run_simulation(validate_config({MINIMAL!r}, "
        "['devices.n_benign=3', 'devices.samples_per_device=[30, 40, 50]'])); "
        "print('numpy.ma' in sys.modules)"
    )
    assert _fresh_python(probe) == "False"


def test_graph_attack_does_not_import_aggregation():
    # The graph attack hands back bare models; only the round loop builds
    # the updates that aggregation weighs.
    probe = "import sys, edgefl.graph_attack; print('edgefl.aggregation' in sys.modules)"
    assert _fresh_python(probe) == "False"


def test_cli_config_errors_exit_1(tmp_path, capsys):
    assert cli_main(["validate", "--config", str(tmp_path / "missing.yaml")]) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text("devices: {n_benign: 0}")
    assert cli_main(["validate", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes(b"output_dir: caf\xe9\n")
    assert cli_main(["validate", "--config", str(latin1)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {latin1}: ") and "utf-8" in err


def test_cli_reads_a_config_that_starts_with_a_utf8_bom(tmp_path, capsys):
    # PyYAML, the reference for the reader, takes the BOM as no content.
    bom = tmp_path / "bom.yaml"
    bom.write_bytes(b"\xef\xbb\xbf" + MINIMAL.encode())
    assert cli_main(["validate", "--config", str(bom)]) == 0
    assert capsys.readouterr().out == f"config OK: {bom}\n"


def test_a_run_without_graph_attackers_leaves_no_earlier_attack_diag(tmp_path):
    out = tmp_path / "out"
    for name in ("synthetic_avgae", "synthetic_control"):
        config = str(ROOT / "configs" / f"{name}.yaml")
        assert cli_main(["simulate", "--config", config, "--out", str(out),
                         "--override", "rounds=2"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["rounds.csv", "run_meta.json", "summary.json"]


def test_cli_runtime_errors_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(MINIMAL)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(blocker)])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err
