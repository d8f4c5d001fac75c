"""Accuracy evaluation, distance-based stealth reporting, and round-trace
summaries."""

from typing import NamedTuple

import numpy as np

from .data import Dataset
from .graph_attack import AttackDiagnostics
from .numerics import as_params
from .training import LossKind

REGRESSION_HIT_BAND = 0.5


class RoundRecord:
    """Everything recorded about one communication round. Row k of
    models, distance_to_global and local_loss belongs to device_ids[k];
    rows run benign devices first, then attackers, each in ascending id.
    Attackers hold no data, so their local_loss is NaN."""

    def __init__(
        self, round_index: int, global_params: np.ndarray, device_ids: np.ndarray,
        is_malicious: np.ndarray, models: np.ndarray, distance_to_global: np.ndarray,
        local_loss: np.ndarray, test_accuracy: float,
        attack_diagnostics: list[AttackDiagnostics] | None = None,
    ):
        self.round_index = round_index
        self.global_params = global_params
        self.device_ids = device_ids
        self.is_malicious = is_malicious
        self.models = models
        self.distance_to_global = distance_to_global
        self.local_loss = local_loss
        self.test_accuracy = test_accuracy
        self.attack_diagnostics = [] if attack_diagnostics is None else attack_diagnostics


class DistanceReport(NamedTuple):
    max_benign_distance: float
    per_attacker_distance: dict[int, float]
    stealth_flags: dict[int, bool]


def test_accuracy(kind: LossKind, model, test_set: Dataset) -> float:
    """Fraction of test samples the model gets right.

    Logistic: predicted label is 1 when sigmoid(w.x) >= 0.5 (ties count
    as 1). Linear: a hit is a prediction within 0.5 of the target.
    """
    if len(test_set) < 1:
        raise ValueError("test_accuracy over an empty test set")
    z = test_set.x @ as_params(model)
    if kind == LossKind.LOGISTIC:
        correct = (z >= 0.0) == (test_set.y == 1.0)
    else:
        correct = np.abs(z - test_set.y) <= REGRESSION_HIT_BAND
    return float(correct.mean())


def distance_report(record: RoundRecord) -> DistanceReport:
    """Per-round stealth comparison: each attacker's distance to the
    global model against the worst benign distance."""
    malicious, distances = record.is_malicious, record.distance_to_global
    benign = distances[~malicious].tolist()
    max_benign = max(benign) if benign else float("nan")
    per_attacker = dict(zip(record.device_ids[malicious].tolist(), distances[malicious].tolist()))
    flags = {dev: dist <= max_benign for dev, dist in per_attacker.items()}
    return DistanceReport(
        max_benign_distance=max_benign,
        per_attacker_distance=per_attacker,
        stealth_flags=flags,
    )


def trace_summary(records: list[RoundRecord], last_k: int = 20) -> dict:
    """Deterministic aggregation of a full run trace.

    Stealth rate per attacker counts only rounds where that attacker
    actually attacked (skipped rounds are excluded from the
    denominator), and is None for an attacker that never attacked; for
    attackers without pipeline diagnostics every round counts as
    attacked.
    """
    if not records:
        raise ValueError("trace_summary needs at least one round")
    accuracy = [r.test_accuracy for r in records]
    window = accuracy[-last_k:]

    attacker_ids = sorted(
        {dev for r in records for dev in r.device_ids[r.is_malicious].tolist()}
    )
    attacked = dict.fromkeys(attacker_ids, 0)
    stealthy = dict.fromkeys(attacker_ids, 0)
    for record in records:
        skipped = {diag.attacker_id for diag in record.attack_diagnostics if diag.skipped}
        for attacker, flag in distance_report(record).stealth_flags.items():
            if attacker not in skipped:
                attacked[attacker] += 1
                stealthy[attacker] += int(flag)
    stealth_rates = {
        a: stealthy[a] / attacked[a] if attacked[a] else None for a in attacker_ids
    }

    final = records[-1]
    losses = final.local_loss[~final.is_malicious]
    return {
        "accuracy_series": accuracy,
        "accuracy_last_window": {
            "rounds": len(window),
            "min": float(np.min(window)),
            "max": float(np.max(window)),
            "mean": float(np.mean(window)),
            "std": float(np.std(window)),
        },
        "stealth_rates": {str(k): v for k, v in stealth_rates.items()},
        "final_mean_benign_loss": float(np.mean(losses)) if losses.size else float("nan"),
    }
