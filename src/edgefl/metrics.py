"""Accuracy evaluation, distance-based stealth reporting, and round-trace
summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .graph_attack import AttackDiagnostics
from .numerics import as_params
from .training import LossKind

REGRESSION_HIT_BAND = 0.5


@dataclass(frozen=True)
class DeviceRecord:
    """One device's contribution to a round."""

    device_id: int
    is_malicious: bool
    local: np.ndarray
    distance_to_global: float
    local_loss: float


@dataclass
class RoundRecord:
    """Everything recorded about one communication round."""

    round_index: int
    global_params: np.ndarray
    per_device: list[DeviceRecord]
    test_accuracy: float
    attack_diagnostics: list[AttackDiagnostics] = field(default_factory=list)


@dataclass(frozen=True)
class DistanceReport:
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
    benign = [d.distance_to_global for d in record.per_device if not d.is_malicious]
    max_benign = max(benign) if benign else float("nan")
    per_attacker = {
        d.device_id: d.distance_to_global
        for d in record.per_device
        if d.is_malicious
    }
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
        {d.device_id for r in records for d in r.per_device if d.is_malicious}
    )
    stealth_rates: dict[int, float | None] = {}
    for attacker in attacker_ids:
        attacked = 0
        stealthy = 0
        for record in records:
            skipped = any(
                diag.attacker_id == attacker and diag.skipped
                for diag in record.attack_diagnostics
            )
            if skipped:
                continue
            flags = distance_report(record).stealth_flags
            if attacker in flags:
                attacked += 1
                stealthy += int(flags[attacker])
        stealth_rates[attacker] = stealthy / attacked if attacked else None

    final = records[-1]
    benign_losses = [
        d.local_loss for d in final.per_device if not d.is_malicious
    ]
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
        "final_mean_benign_loss": float(np.mean(benign_losses)) if benign_losses else float("nan"),
    }
