import numpy as np
import pytest

from edgefl.aggregation import ReportedUpdate, aggregate


def _brute_force(updates):
    total = sum(u.reported_samples for u in updates)
    out = np.zeros_like(np.asarray(updates[0].params, dtype=float))
    for u in sorted(updates, key=lambda u: u.device_id):
        out = out + (u.reported_samples / total) * np.asarray(u.params, dtype=float)
    return out


def test_single_update_passthrough():
    u = ReportedUpdate(1, np.array([1.0, -2.0, 3.0]), 17)
    np.testing.assert_array_equal(aggregate([u]), u.params)


def test_equal_weights_plain_mean():
    ups = [
        ReportedUpdate(1, np.array([1.0]), 5),
        ReportedUpdate(2, np.array([3.0]), 5),
    ]
    np.testing.assert_array_equal(aggregate(ups), np.array([2.0]))


def test_attacker_term_weight_one_sixth():
    rng = np.random.default_rng(1)
    ups = [ReportedUpdate(i, rng.normal(size=4), 200) for i in range(1, 6)]
    ups.append(ReportedUpdate(6, rng.normal(size=4), 200, is_malicious=True))
    # attacker weight is 200 / 1200
    expected = _brute_force(ups)
    np.testing.assert_allclose(aggregate(ups), expected, rtol=0, atol=1e-12)


def test_matches_brute_force_on_1000_random_sets():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        ups = [
            ReportedUpdate(
                device_id=i + 1,
                params=rng.normal(size=d),
                reported_samples=int(rng.integers(1, 10_000)),
                is_malicious=bool(rng.integers(0, 2)),
            )
            for i in range(k)
        ]
        counts = np.array([u.reported_samples for u in ups], dtype=float)
        weights = counts / counts.sum()
        assert abs(weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(aggregate(ups), _brute_force(ups), rtol=0, atol=1e-12)


def test_arrival_order_irrelevant():
    rng = np.random.default_rng(3)
    ups = [ReportedUpdate(i + 1, rng.normal(size=3), int(rng.integers(1, 50))) for i in range(5)]
    shuffled = [ups[i] for i in [3, 0, 4, 1, 2]]
    np.testing.assert_array_equal(aggregate(ups), aggregate(shuffled))


def test_never_branches_on_is_malicious():
    rng = np.random.default_rng(4)
    ups = [ReportedUpdate(i + 1, rng.normal(size=3), 7, is_malicious=False) for i in range(4)]
    flipped = [
        ReportedUpdate(u.device_id, u.params, u.reported_samples, is_malicious=True)
        for u in ups
    ]
    np.testing.assert_array_equal(aggregate(ups), aggregate(flipped))


def test_convex_containment_per_coordinate():
    rng = np.random.default_rng(5)
    for _ in range(100):
        ups = [
            ReportedUpdate(i + 1, rng.normal(size=4), int(rng.integers(1, 100)))
            for i in range(6)
        ]
        stacked = np.stack([u.params for u in ups])
        agg = aggregate(ups)
        assert (agg >= stacked.min(axis=0) - 1e-12).all()
        assert (agg <= stacked.max(axis=0) + 1e-12).all()


def test_common_scaling_of_counts_is_invariant():
    rng = np.random.default_rng(6)
    ups = [ReportedUpdate(i + 1, rng.normal(size=3), int(rng.integers(1, 40))) for i in range(5)]
    scaled = [
        ReportedUpdate(u.device_id, u.params, u.reported_samples * 13) for u in ups
    ]
    np.testing.assert_allclose(aggregate(ups), aggregate(scaled), rtol=0, atol=1e-12)


def test_huge_reported_count_dominates():
    rng = np.random.default_rng(7)
    benign = [ReportedUpdate(i + 1, rng.normal(size=5), 100) for i in range(5)]
    attacker = ReportedUpdate(6, rng.normal(size=5), 10**9, is_malicious=True)
    agg = aggregate(benign + [attacker])
    rel = np.linalg.norm(agg - attacker.params) / np.linalg.norm(attacker.params)
    assert rel <= 1e-6


def test_aggregate_errors():
    with pytest.raises(ValueError, match="no updates"):
        aggregate([])
    ups = [
        ReportedUpdate(1, np.zeros(3), 1),
        ReportedUpdate(2, np.zeros(4), 1),
    ]
    with pytest.raises(ValueError, match="dimension mismatch"):
        aggregate(ups)
    with pytest.raises(ValueError, match="reported_samples"):
        ReportedUpdate(1, np.zeros(3), 0)
