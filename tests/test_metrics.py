import numpy as np
import pytest
from scipy.special import expit

from edgefl.data import Dataset
from edgefl.graph_attack import AttackDiagnostics
from edgefl.metrics import (
    DeviceRecord,
    DistanceReport,
    RoundRecord,
    distance_report,
    trace_summary,
)
from edgefl.metrics import test_accuracy as accuracy_of
from edgefl.training import LossKind


def _record(round_index, devices, accuracy, global_params=None, diags=()):
    return RoundRecord(
        round_index=round_index,
        global_params=global_params if global_params is not None else np.zeros(2),
        per_device=devices,
        test_accuracy=accuracy,
        attack_diagnostics=list(diags),
    )


def test_accuracy_all_positive_model_on_all_ones_labels():
    ds = Dataset(np.ones((10, 2)), np.ones(10))
    assert accuracy_of(LossKind.LOGISTIC, np.array([5.0, 5.0]), ds) == 1.0


def test_accuracy_zero_model_ties_classify_as_one():
    # w = 0 means sigma(z) == 0.5 everywhere; ties go to class 1.
    ds = Dataset(np.random.default_rng(1).normal(size=(400, 3)), np.zeros(400))
    acc_zero_labels = accuracy_of(LossKind.LOGISTIC, np.zeros(3), ds)
    assert acc_zero_labels == 0.0
    balanced = Dataset(ds.x, np.r_[np.ones(200), np.zeros(200)])
    assert accuracy_of(LossKind.LOGISTIC, np.zeros(3), balanced) == 0.5


def test_accuracy_matches_per_sample_loop_oracle():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.normal(size=(50, 4)), rng.integers(0, 2, size=50).astype(float))
    w = rng.normal(size=4)
    hits = 0
    for i in range(50):
        predicted = 1.0 if expit(float(w @ ds.x[i])) >= 0.5 else 0.0
        hits += predicted == ds.y[i]
    assert accuracy_of(LossKind.LOGISTIC, w, ds) == hits / 50


def test_accuracy_linear_hit_band():
    ds = Dataset(np.array([[1.0], [1.0], [1.0]]), np.array([1.0, 1.4, 1.6]))
    assert accuracy_of(LossKind.LINEAR, np.array([1.0]), ds) == pytest.approx(2 / 3)


def test_accuracy_empty_set_guard():
    with pytest.raises(ValueError):
        accuracy_of(LossKind.LOGISTIC, np.zeros(2), Dataset(np.zeros((0, 2)), np.zeros(0)))


def test_distance_report_attacker_copying_global_is_stealthy():
    g = np.array([1.0, 1.0])
    devices = [
        DeviceRecord(1, False, np.array([2.0, 1.0]), 1.0, 0.3),
        DeviceRecord(2, False, np.array([1.0, 0.5]), 0.5, 0.2),
        DeviceRecord(6, True, g.copy(), 0.0, float("nan")),
    ]
    report = distance_report(_record(1, devices, 0.9, g))
    assert report.max_benign_distance == 1.0
    assert report.per_attacker_distance == {6: 0.0}
    assert report.stealth_flags == {6: True}


def test_distance_report_flagrant_attacker_not_stealthy():
    devices = [
        DeviceRecord(1, False, np.zeros(2), 0.4, 0.1),
        DeviceRecord(6, True, np.zeros(2), 3.0, float("nan")),
    ]
    report = distance_report(_record(1, devices, 0.9))
    assert report.stealth_flags == {6: False}


def test_distances_recomputable_from_stored_vectors():
    rng = np.random.default_rng(3)
    g = rng.normal(size=4)
    devices = []
    for i in range(1, 5):
        local = rng.normal(size=4)
        devices.append(
            DeviceRecord(i, i == 4, local, float(np.linalg.norm(local - g)), 0.0)
        )
    record = _record(1, devices, 0.5, g)
    for device in devices:
        recomputed = np.linalg.norm(device.local - record.global_params)
        assert abs(recomputed - device.distance_to_global) <= 1e-12
    report = distance_report(record)
    assert report.stealth_flags[4] == (
        devices[3].distance_to_global <= max(d.distance_to_global for d in devices[:3])
    )


def test_trace_summary_constant_series():
    devices = [DeviceRecord(1, False, np.zeros(2), 0.1, 0.5)]
    records = [_record(i, devices, 0.75) for i in range(1, 6)]
    summary = trace_summary(records, last_k=3)
    window = summary["accuracy_last_window"]
    assert window["min"] == window["max"] == 0.75
    assert summary["accuracy_series"] == [0.75] * 5
    assert summary["final_mean_benign_loss"] == 0.5


def test_trace_summary_single_round_stealth_rate_binary():
    devices = [
        DeviceRecord(1, False, np.zeros(2), 0.5, 0.2),
        DeviceRecord(6, True, np.zeros(2), 0.1, float("nan")),
    ]
    summary = trace_summary([_record(1, devices, 0.8)])
    assert summary["stealth_rates"]["6"] == 1.0


def test_trace_summary_matches_spreadsheet_oracle():
    rng = np.random.default_rng(4)
    records = []
    accuracy = []
    stealthy_rounds = 0
    for m in range(1, 11):
        acc = float(rng.uniform(0.4, 0.9))
        benign_dist = rng.uniform(0.2, 1.0, size=3)
        attacker_dist = float(rng.uniform(0.0, 1.2))
        devices = [
            DeviceRecord(i + 1, False, np.zeros(2), float(benign_dist[i]), 0.1)
            for i in range(3)
        ]
        devices.append(DeviceRecord(4, True, np.zeros(2), attacker_dist, float("nan")))
        records.append(_record(m, devices, acc))
        accuracy.append(acc)
        stealthy_rounds += attacker_dist <= benign_dist.max()
    summary = trace_summary(records, last_k=4)
    assert summary["accuracy_last_window"]["mean"] == pytest.approx(
        sum(accuracy[-4:]) / 4
    )
    assert summary["accuracy_last_window"]["min"] == min(accuracy[-4:])
    assert summary["stealth_rates"]["4"] == pytest.approx(stealthy_rounds / 10)


def test_trace_summary_excludes_skipped_rounds_from_denominator():
    devices_attacked = [
        DeviceRecord(1, False, np.zeros(2), 0.5, 0.1),
        DeviceRecord(6, True, np.zeros(2), 0.2, float("nan")),
    ]
    skipped_diag = AttackDiagnostics(attacker_id=6, skipped=True)
    records = [
        _record(1, devices_attacked, 0.8),
        _record(2, devices_attacked, 0.8, diags=[skipped_diag]),
    ]
    summary = trace_summary(records)
    # One attacked round (stealthy) out of one counted round.
    assert summary["stealth_rates"]["6"] == 1.0
