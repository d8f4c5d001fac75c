import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import edgefl
from edgefl import simulation
from edgefl.channel import eavesdrop_set
from edgefl.cli import main as cli_main
from edgefl.config import ConfigError, config_echo, validate_config
from edgefl.data import partition_iid, synth_logistic
from edgefl.numerics import RngStream
from edgefl.simulation import ROUNDS_CSV_COLUMNS, emit_outputs, run_simulation
from edgefl.training import LossKind, train_local

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
    assert cfg.samples_per_device == (30, 30)
    assert cfg.attacker_reported_samples == 30
    assert cfg.attack_kind == "none"
    assert cfg.loss == LossKind.LOGISTIC
    assert cfg.snr_min == 0.0


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


def test_exponent_floats_in_config_text_and_overrides():
    cfg = validate_config(
        MINIMAL + "channel: {snr_min: 1e9, transmit_power: 1.0e4}\n",
        overrides=["channel.noise_power=1e-4", "training.alpha=2E-3"],
    )
    assert cfg.snr_min == 1e9
    assert cfg.channel.transmit_power == 1e4
    assert cfg.channel.noise_power == 1e-4
    assert cfg.training.alpha == 2e-3
    with pytest.raises(ConfigError, match="channel.noise_power must be float, got str"):
        validate_config(MINIMAL, overrides=["channel.noise_power=1e"])


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
    assert cfg.avgae.d_feat == 6
    cfg2 = validate_config(
        "devices: {n_malicious: 1}\ndataset: {dim: 6}\n"
        "attack: {kind: avgae, avgae: {identity_projection: true, d_feat: 3}}"
    )
    assert cfg2.avgae.d_feat == 6 and cfg2.avgae.identity_projection


# ---------------------------------------------------------------- simulation

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
    train = pool.subset(np.arange(50))
    [shard] = partition_iid(train, 1, [50], RngStream(3, "partitioner"))
    expected = train_local(
        cfg.loss, np.zeros(d), shard, cfg.training, RngStream(3, "device-1")
    )
    np.testing.assert_array_equal(record.global_params, expected)


def test_round_trace_shape_and_losses():
    cfg = validate_config(_tiny_attack_config())
    records = run_simulation(cfg)
    assert [r.round_index for r in records] == [1, 2, 3]
    for record in records:
        assert len(record.per_device) == 5
        benign = [d for d in record.per_device if not d.is_malicious]
        attackers = [d for d in record.per_device if d.is_malicious]
        assert [d.device_id for d in benign] == [1, 2, 3, 4]
        assert [d.device_id for d in attackers] == [5]
        assert all(np.isfinite(d.local_loss) for d in benign)
        assert all(math.isnan(d.local_loss) for d in attackers)
        assert 0.0 <= record.test_accuracy <= 1.0
        assert len(record.attack_diagnostics) == 1


def test_benign_mean_loss_non_increasing_smoothed():
    cfg = validate_config(
        "seed: 5\nrounds: 20\ndevices: {n_benign: 3, samples_per_device: 100}\n"
        "dataset: {dim: 6, n_test: 200}\n"
    )
    records = run_simulation(cfg)
    mean_losses = [
        np.mean([d.local_loss for d in r.per_device if not d.is_malicious])
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
        attacker = [d for d in record.per_device if d.is_malicious][0]
        # The attacker resubmits the model it received, i.e. the previous
        # global, so its update still enters the aggregate.
        assert np.isfinite(attacker.distance_to_global)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_local_loss_names_round_and_stage():
    # Three steps at this rate leave finite models and margins near 1e180,
    # whose squared residual overflows when the round's losses are taken.
    cfg = validate_config(
        MINIMAL, overrides=["loss=linear", "training.learning_rate=1e60",
                            "training.local_iterations=3"]
    )
    with pytest.raises(RuntimeError, match="round 1, stage metrics: local loss"):
        run_simulation(cfg)


# -------------------------------------------------------------- emit_outputs

def test_emit_outputs_files_and_row_counts(tmp_path):
    cfg = validate_config(_tiny_attack_config(rounds=4))
    records = run_simulation(cfg)
    written = emit_outputs(records, cfg, out_dir=tmp_path / "run", elapsed_seconds=1.5)
    rounds_lines = written["rounds"].read_text().strip().splitlines()
    assert rounds_lines[0] == ",".join(ROUNDS_CSV_COLUMNS)
    assert len(rounds_lines) == 1 + 4 * (4 + 1)
    diag_lines = written["attack_diag"].read_text().strip().splitlines()
    assert diag_lines[0] == "round,attacker_id,delta_g_initial,delta_g_final,gamma_model,skipped"
    assert len(diag_lines) == 1 + 4
    summary = json.loads(written["summary"].read_text())
    assert summary["rounds_completed"] == 4
    assert summary["config"]["devices"]["n_malicious"] == 1
    assert "wall_clock_seconds" in json.loads(written["run_meta"].read_text())


def test_summary_is_strict_json_when_no_attack_ran(tmp_path):
    cfg = validate_config(_tiny_attack_config(), overrides=["channel.snr_min=1000000000.0"])
    records = run_simulation(cfg)
    assert all(diag.skipped for r in records for diag in r.attack_diagnostics)
    written = emit_outputs(records, cfg, out_dir=tmp_path / "run")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads(written["summary"].read_text(), parse_constant=reject)
    assert summary["stealth_rates"] == {"5": None}


def test_emit_outputs_no_attack_diag_for_benign_runs(tmp_path):
    cfg = validate_config(MINIMAL)
    records = run_simulation(cfg)
    written = emit_outputs(records, cfg, out_dir=tmp_path / "run")
    assert "attack_diag" not in written
    assert not (tmp_path / "run" / "attack_diag.csv").exists()


def test_identical_seed_produces_identical_bytes(tmp_path):
    cfg = validate_config(_tiny_attack_config())
    for name in ("a", "b"):
        emit_outputs(run_simulation(cfg), cfg, out_dir=tmp_path / name)
    for fname in ("rounds.csv", "summary.json", "attack_diag.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    base = _tiny_attack_config()
    cfg1 = validate_config(base, overrides=["workers=1"])
    cfg4 = validate_config(base, overrides=["workers=4"])
    emit_outputs(run_simulation(cfg1), cfg1, out_dir=tmp_path / "w1")
    emit_outputs(run_simulation(cfg4), cfg4, out_dir=tmp_path / "w4")
    assert (tmp_path / "w1" / "rounds.csv").read_bytes() == (
        tmp_path / "w4" / "rounds.csv"
    ).read_bytes()


def test_different_seeds_differ(tmp_path):
    cfg_a = validate_config(MINIMAL, overrides=["seed=1"])
    cfg_b = validate_config(MINIMAL, overrides=["seed=2"])
    emit_outputs(run_simulation(cfg_a), cfg_a, out_dir=tmp_path / "a")
    emit_outputs(run_simulation(cfg_b), cfg_b, out_dir=tmp_path / "b")
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
        "setup", "local training", "attack", "aggregation", "metrics",
    }


def test_eavesdrop_sets_are_computed_once_per_run(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return eavesdrop_set(*args)

    monkeypatch.setattr(simulation, "eavesdrop_set", counting)
    cfg = validate_config(_tiny_attack_config(rounds=3))
    run_simulation(cfg)
    assert len(calls) == cfg.n_malicious == 1


def test_cli_import_loads_no_scipy():
    # The runtime needs only numpy and PyYAML; scipy is a test dependency.
    src = str(Path(edgefl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    probe = (
        "import sys, edgefl.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_cli_config_errors_exit_1(tmp_path, capsys):
    assert cli_main(["validate", "--config", str(tmp_path / "missing.yaml")]) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text("devices: {n_benign: 0}")
    assert cli_main(["validate", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_runtime_errors_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(MINIMAL)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(blocker)])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err
