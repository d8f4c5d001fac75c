import numpy as np
import pytest

from edgefl.aggregation import aggregate


def _brute_force(models, counts):
    total = sum(counts)
    out = np.zeros_like(np.asarray(models[0], dtype=float))
    for params, count in zip(models, counts):
        out = out + (count / total) * np.asarray(params, dtype=float)
    return out


def test_single_update_passthrough():
    params = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(aggregate(params[None], [17]), params)


def test_equal_weights_plain_mean():
    np.testing.assert_array_equal(aggregate([[1.0], [3.0]], [5, 5]), np.array([2.0]))


def test_attacker_term_weight_one_sixth():
    rng = np.random.default_rng(1)
    # Five benign rows, then the attacker's: its weight is 200 / 1200.
    models = np.stack([rng.normal(size=4) for _ in range(6)])
    counts = [200] * 6
    expected = _brute_force(models, counts)
    np.testing.assert_allclose(aggregate(models, counts), expected, rtol=0, atol=1e-12)


def test_matches_brute_force_on_1000_random_sets():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        models = rng.normal(size=(k, d))
        counts = rng.integers(1, 10_000, size=k)
        weights = counts / counts.sum()
        assert abs(weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(
            aggregate(models, counts), _brute_force(models, counts), rtol=0, atol=1e-12
        )


def test_convex_containment_per_coordinate():
    rng = np.random.default_rng(5)
    for _ in range(100):
        models = rng.normal(size=(6, 4))
        agg = aggregate(models, rng.integers(1, 100, size=6))
        assert (agg >= models.min(axis=0) - 1e-12).all()
        assert (agg <= models.max(axis=0) + 1e-12).all()


def test_common_scaling_of_counts_is_invariant():
    rng = np.random.default_rng(6)
    models = rng.normal(size=(5, 3))
    counts = rng.integers(1, 40, size=5)
    np.testing.assert_allclose(
        aggregate(models, counts), aggregate(models, counts * 13), rtol=0, atol=1e-12
    )


def test_huge_reported_count_dominates():
    rng = np.random.default_rng(7)
    models = rng.normal(size=(6, 5))  # the last row is the attacker's
    agg = aggregate(models, [100] * 5 + [10**9])
    rel = np.linalg.norm(agg - models[-1]) / np.linalg.norm(models[-1])
    assert rel <= 1e-6


def test_aggregate_errors():
    with pytest.raises(ValueError, match="non-empty 2-D"):
        aggregate(np.zeros((0, 3)), [])
    with pytest.raises(ValueError, match="non-empty 2-D"):
        aggregate(np.zeros(3), [1])
    with pytest.raises(ValueError, match="2 reported counts for 3 models"):
        aggregate(np.zeros((3, 2)), [1, 1])
    with pytest.raises(ValueError, match=">= 1"):
        aggregate(np.zeros((2, 3)), [1, 0])
