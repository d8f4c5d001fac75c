"""What the benchmark runs and what it traces.

Shared by the harness (run.py), the per-repetition child (child.py) and
the reference recorder (record_reference.py), so all three build the
same config for a given workload and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    config: str               # shipped config, relative to the repo root
    overrides: tuple[str, ...]
    rounds: int
    devices: int              # n_benign + n_malicious, for the rounds.csv row check
    attack_diag: bool         # whether attack_diag.csv must be written

    def overrides_for(self, seed: int, out_dir: Path) -> list[str]:
        """The --override list the CLI would get: the workload's own keys,
        then the seed, one worker and the output directory."""
        return [
            *self.overrides,
            f"rounds={self.rounds}",
            f"seed={seed}",
            "workers=1",
            f"output_dir={out_dir}",
        ]


# Why each workload is here: see README.md in this directory.
WORKLOADS: dict[str, Workload] = {
    "avgae_default": Workload(
        config="configs/synthetic_avgae.yaml",
        overrides=(),
        rounds=10,
        devices=7,
        attack_diag=True,
    ),
    "train_wide": Workload(
        config="configs/synthetic_control.yaml",
        overrides=("devices.n_benign=50", "dataset.dim=784"),
        rounds=10,
        devices=50,
        attack_diag=False,
    ),
    "crowd_noise": Workload(
        config="configs/synthetic_gaussian.yaml",
        overrides=("devices.n_benign=200", "devices.n_malicious=10"),
        rounds=10,
        devices=210,
        attack_diag=False,
    ),
}

# Public functions timed in the traced run, as "<module>.<function>" under
# the edgefl package.
TRACED: tuple[str, ...] = (
    "config.validate_config",
    "data.synth_logistic",
    "data.partition_iid",
    "training.train_local",
    "training.local_gradient",
    "training.local_loss",
    "channel.eavesdrop_set",
    "baselines.gaussian_noise_attack",
    "graph_attack.run_attack",
    "graph_attack.build_graph",
    "graph_attack.sample_links",
    "graph_attack.train_gae",
    "graph_attack.loss_and_grads",
    "graph_attack.encode",
    "graph_attack.adversarial_reconstruct",
    "graph_attack.generate_malicious",
    "numerics.cosine_similarity",
    "numerics.euclidean_distance",
    "aggregation.aggregate",
    "aggregation.broadcast",
    "metrics.test_accuracy",
    "metrics.trace_summary",
    "simulation.emit_outputs",
    "simulation.run_simulation",
)

# Files emit_outputs writes, as they appear in per-layer metric names.
OUTPUT_FILES: tuple[str, ...] = ("rounds.csv", "summary.json", "attack_diag.csv", "run_meta.json")

ROUNDS_CSV_COLUMNS = [
    "round", "device_id", "is_malicious", "distance_to_global",
    "local_loss", "test_accuracy_global",
]

# Attack outcome counts that reference.json records per seed and every
# repetition must reproduce exactly, so a speed-up that attacks less fails.
DIAGNOSTIC_COUNTS: tuple[str, ...] = ("attempts", "skipped", "constraint_ok", "uniform_fallback")


def diagnostic_counts(records) -> dict[str, int]:
    """Attack outcome counts over the attack_diagnostics of a run's records;
    constraint_ok and uniform_fallback count only attacks not skipped."""
    diags = [d for r in records for d in r.attack_diagnostics]
    attacked = [d for d in diags if not d.skipped]
    return {
        "attempts": len(diags),
        "skipped": len(diags) - len(attacked),
        "constraint_ok": sum(bool(d.constraint_ok) for d in attacked),
        "uniform_fallback": sum(bool(d.uniform_fallback) for d in attacked),
    }
