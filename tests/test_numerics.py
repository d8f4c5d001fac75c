import hashlib
import math

import numpy as np
import pytest

from edgefl.numerics import (
    Projector,
    RngStream,
    euclidean_distance,
)


def test_distance_identity():
    v = np.array([1.5, -2.0])
    assert euclidean_distance(v[None], v).tolist() == [0.0]


def test_distance_3_4_5():
    assert euclidean_distance(np.zeros((1, 2)), np.array([3.0, 4.0])).tolist() == [5.0]


def test_distance_matches_coordinate_sum_oracle():
    rng = np.random.default_rng(11)
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    acc = 0.0
    for k in range(10):
        acc += (a[k] - b[k]) ** 2
    assert abs(euclidean_distance(a[None], b)[0] - math.sqrt(acc)) <= 1e-12


def test_distance_symmetric_and_dim_mismatch():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=4), rng.normal(size=4)
    assert euclidean_distance(a[None], b).tolist() == euclidean_distance(b[None], a).tolist()
    with pytest.raises(ValueError, match="4 vs 3"):
        euclidean_distance(a[None], b[:3])


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e50, 1e150])
def test_stacked_distance_matches_per_row_norm_bit_for_bit(scale):
    rng = np.random.default_rng(13)
    for n, d in ((1, 1), (3, 2), (210, 10), (7, 784)):
        a = rng.normal(size=(n, d)) * scale
        b = rng.normal(size=d) * scale
        got = euclidean_distance(a, b)
        expected = np.array([np.linalg.norm(row - b) for row in a])
        assert got.shape == (n,)
        assert got.tobytes() == expected.tobytes()


def test_stacked_distance_dim_mismatch():
    with pytest.raises(ValueError, match="3 vs 4"):
        euclidean_distance(np.ones((2, 3)), np.ones(4))
    with pytest.raises(ValueError, match="2-D"):
        euclidean_distance(np.ones((2, 3, 4)), np.ones(4))


def test_distance_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c = rng.normal(size=(3, 6))
        assert euclidean_distance(a[None], c)[0] <= (
            euclidean_distance(a[None], b)[0] + euclidean_distance(b[None], c)[0] + 1e-9
        )


def test_projection_identity_mode():
    w = np.arange(6, dtype=float)
    proj = Projector.identity(6)
    np.testing.assert_array_equal(proj.project(w), w)


def test_projection_zero_vector():
    proj = Projector.random(8, 4, RngStream(1, "p"))
    np.testing.assert_array_equal(proj.project(np.zeros(8)), np.zeros(4))


def test_projection_matches_matrix_vector_oracle():
    # Materialize the matrix and multiply with an explicit double loop.
    rng = RngStream(123, "projector")
    proj = Projector.random(8, 4, rng)
    w = np.random.default_rng(9).normal(size=8)
    expected = np.zeros(4)
    for i in range(4):
        for j in range(8):
            expected[i] += proj.matrix[i, j] * w[j]
    np.testing.assert_allclose(proj.project(w), expected, rtol=0, atol=1e-12)
    # Identical (seed, stream_id) rebuilds the identical matrix.
    np.testing.assert_array_equal(
        Projector.random(8, 4, RngStream(123, "projector")).matrix, proj.matrix
    )


def test_projection_entries_and_errors():
    proj = Projector.random(10, 3, RngStream(0, "p"))
    np.testing.assert_allclose(np.abs(proj.matrix), 1.0 / np.sqrt(3.0), atol=1e-15)
    with pytest.raises(ValueError, match="exceeds"):
        Projector.random(4, 5, RngStream(0, "p"))


def test_projection_of_a_block_has_the_bits_of_each_row():
    rng = np.random.default_rng(9)
    for dim, d_feat, n in ((10, 10, 7), (10, 3, 2), (784, 16, 5), (5, 1, 1), (33, 17, 12)):
        proj = Projector.random(dim, d_feat, RngStream(int(rng.integers(1000)), "p"))
        block = rng.normal(size=(n, dim))
        rows = np.stack([proj.matrix @ w for w in block])
        assert proj.project(block).tobytes() == rows.tobytes()
        assert proj.project(block[0]).tobytes() == rows[0].tobytes()
    with pytest.raises(ValueError, match="projector expects"):
        proj.project(np.zeros((2, 3, dim)))
    with pytest.raises(ValueError, match="projector expects"):
        proj.project(np.zeros((2, dim + 1)))


def test_projection_linearity():
    proj = Projector.random(12, 5, RngStream(42, "p"))
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b = rng.normal(size=(2, 12))
        alpha, beta = rng.normal(size=2)
        lhs = proj.project(alpha * a + beta * b)
        rhs = alpha * proj.project(a) + beta * proj.project(b)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


def test_rng_replay_is_byte_identical():
    a = RngStream(99, "device-3").gen.integers(0, 2**63, size=32)
    b = RngStream(99, "device-3").gen.integers(0, 2**63, size=32)
    np.testing.assert_array_equal(a, b)


def test_rng_streams_differ_by_id_and_seed():
    base = RngStream(99, "device-3").gen.random(16)
    assert not np.array_equal(base, RngStream(99, "device-4").gen.random(16))
    assert not np.array_equal(base, RngStream(100, "device-3").gen.random(16))


@pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="the Philox key [seed, stream key] is a Python list, which numpy turns "
           "into float64 when the stream key is 2**63 or more, dropping the seed's low bits",
)
def test_rng_seeds_above_2_60_draw_different_numbers():
    first = RngStream(2**60, "device-1").gen.random()
    assert first != RngStream(2**60 + 1, "device-1").gen.random()


def test_rng_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1, "x")
    with pytest.raises(ValueError):
        RngStream(2**64, "x")


def test_rng_generator_is_built_on_first_use_with_unchanged_draws():
    stream = RngStream(99, "device-3")
    assert "gen" not in vars(stream)
    first = stream.gen.random(4)
    assert stream.gen is stream.gen  # later draws continue the same stream
    # The key: the seed and the first 8 bytes of blake2b(stream_id), big-endian.
    digest = hashlib.blake2b(b"device-3", digest_size=8).digest()
    reference = np.random.Generator(np.random.Philox(key=[99, int.from_bytes(digest, "big")]))
    np.testing.assert_array_equal(
        np.concatenate([first, stream.gen.random(4)]), reference.random(8)
    )
    # Draws recorded before the generator was built lazily.
    assert RngStream(0, "device-1").gen.integers(0, 2**63, size=3).tolist() == [
        8243521300798561247, 7329512482365936832, 4560856829998014074,
    ]


def test_rng_bad_seed_fails_at_construction():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            RngStream(seed, "never-drawn")
