import struct

import numpy as np
import pytest

from edgefl.data import (
    Dataset,
    binarize,
    load_idx,
    partition_iid,
    synth_logistic,
    write_idx_images,
    write_idx_labels,
)
from edgefl.numerics import RngStream


def _fixture_pair(tmp_path, images, labels):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labs.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return str(ip), str(lp)


def test_load_idx_parses_handcrafted_bytes(tmp_path):
    # Two 2x2 images built byte by byte; pixel values chosen to make the
    # scaling visible at full precision.
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labs.idx"
    pixels = bytes([0, 51, 102, 255, 10, 20, 30, 40])
    ip.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + pixels)
    lp.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([9, 0]))
    ds = load_idx(str(ip), str(lp))
    assert len(ds) == 2 and ds.dim == 4
    np.testing.assert_array_equal(ds.x[0], np.array([0, 51, 102, 255]) / 255.0)
    np.testing.assert_array_equal(ds.x[1], np.array([10, 20, 30, 40]) / 255.0)
    np.testing.assert_array_equal(ds.y, [9.0, 0.0])


def test_load_idx_all_zero_image(tmp_path):
    ip, lp = _fixture_pair(tmp_path, np.zeros((1, 28, 28), np.uint8), np.array([3], np.uint8))
    ds = load_idx(ip, lp)
    np.testing.assert_array_equal(ds.x[0], np.zeros(784))
    assert ds.y[0] == 3.0


def test_load_idx_round_trip_exact_bytes(tmp_path):
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(7, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    ds = load_idx(*_fixture_pair(tmp_path, images, labels))
    recovered = np.rint(ds.x * 255.0).astype(np.uint8).reshape(7, 5, 5)
    np.testing.assert_array_equal(recovered, images)
    np.testing.assert_array_equal(ds.y.astype(np.uint8), labels)


def test_load_idx_gzip_transparent(tmp_path):
    import gzip

    images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    labels = np.array([1, 2], np.uint8)
    ip, lp = _fixture_pair(tmp_path, images, labels)
    for p in (ip, lp):
        with open(p, "rb") as fh:
            raw = fh.read()
        with open(p, "wb") as fh:
            fh.write(gzip.compress(raw))
    ds = load_idx(ip, lp)
    assert len(ds) == 2


def test_load_idx_bad_magic_names_offset(tmp_path):
    ip = tmp_path / "bad.idx"
    lp = tmp_path / "labs.idx"
    ip.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00")
    write_idx_labels(lp, np.array([0], np.uint8))
    with pytest.raises(ValueError, match=r"offset 0.*0x00000803.*0xdeadbeef"):
        load_idx(str(ip), str(lp))


def test_load_idx_truncated_and_mismatch(tmp_path):
    ip = tmp_path / "trunc.idx"
    lp = tmp_path / "labs.idx"
    ip.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
    write_idx_labels(lp, np.array([0, 1], np.uint8))
    with pytest.raises(ValueError, match="truncated"):
        load_idx(str(ip), str(lp))

    ip2, lp2 = _fixture_pair(
        tmp_path, np.zeros((2, 2, 2), np.uint8), np.array([0, 1, 2], np.uint8)
    )
    with pytest.raises(ValueError, match="mismatch.*2.*3"):
        load_idx(ip2, lp2)


def test_binarize_relabel_and_order():
    ds = Dataset(np.arange(10, dtype=float).reshape(5, 2), np.array([0.0, 9, 4, 9, 0]))
    out = binarize(ds, 0, 9)
    np.testing.assert_array_equal(out.y, [0.0, 1.0, 1.0, 0.0])
    np.testing.assert_array_equal(out.x[1], ds.x[1])


def test_binarize_single_class_and_empty():
    ds = Dataset(np.zeros((3, 2)), np.array([4.0, 4.0, 4.0]))
    out = binarize(ds, 4, 5)
    np.testing.assert_array_equal(out.y, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="no samples"):
        binarize(ds, 1, 2)
    with pytest.raises(ValueError, match="must differ"):
        binarize(ds, 4, 4)


def test_binarize_matches_label_histogram_oracle():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 10, size=500).astype(float)
    ds = Dataset(rng.normal(size=(500, 3)), labels)
    out = binarize(ds, 2, 7)
    histogram = {v: int((labels == v).sum()) for v in range(10)}
    assert len(out) == histogram[2] + histogram[7]
    assert int(out.y.sum()) == histogram[7]


def test_synth_logistic_symmetric_labels():
    ds = synth_logistic(10000, 4, np.zeros(4), RngStream(1, "synth"))
    assert abs(float(ds.y.mean()) - 0.5) <= 0.02


def test_synth_logistic_strong_signal_sign_agreement():
    w = np.zeros(6)
    w[0] = 100.0
    ds = synth_logistic(5000, 6, w, RngStream(2, "synth"))
    agree = ((ds.x @ w > 0) == (ds.y == 1.0)).mean()
    assert agree > 0.99


def test_synth_logistic_deterministic_and_guards():
    a = synth_logistic(50, 3, np.ones(3), RngStream(3, "synth"))
    b = synth_logistic(50, 3, np.ones(3), RngStream(3, "synth"))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    with pytest.raises(ValueError):
        synth_logistic(0, 3, np.ones(3), RngStream(3, "synth"))
    with pytest.raises(ValueError):
        synth_logistic(5, 4, np.ones(3), RngStream(3, "synth"))


def _key(row):
    return tuple(row)


def test_partition_single_device_is_permutation():
    ds = synth_logistic(40, 3, np.ones(3), RngStream(4, "synth"))
    [shard] = partition_iid(ds, 1, [40], RngStream(4, "part"))
    assert shard.device_id == 1 and shard.size == 40
    assert sorted(map(_key, shard.data.x)) == sorted(map(_key, ds.x))


def test_partition_disjoint_singletons():
    ds = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))
    shards = partition_iid(ds, 2, [1, 1], RngStream(5, "part"))
    values = {shards[0].data.x[0, 0], shards[1].data.x[0, 0]}
    assert values == {1.0, 2.0}


def test_partition_multiset_equality_oracle():
    ds = synth_logistic(1000, 4, np.ones(4), RngStream(6, "synth"))
    shards = partition_iid(ds, 5, [200] * 5, RngStream(6, "part"))
    union = sorted(_key(row) for s in shards for row in s.data.x)
    assert union == sorted(map(_key, ds.x))


def test_partition_random_configurations_disjoint_and_exact():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n_dev = int(rng.integers(1, 7))
        sizes = [int(rng.integers(1, 30)) for _ in range(n_dev)]
        total = sum(sizes) + int(rng.integers(0, 20))
        ds = Dataset(np.arange(total, dtype=float)[:, None], np.zeros(total))
        shards = partition_iid(ds, n_dev, sizes, RngStream(int(rng.integers(1e6)), "part"))
        seen: list[float] = []
        for shard, size in zip(shards, sizes):
            assert shard.size == size
            seen.extend(shard.data.x[:, 0].tolist())
        assert len(seen) == len(set(seen)) == sum(sizes)


def test_partition_deals_into_one_zero_padded_stack():
    ds = synth_logistic(20, 3, np.ones(3), RngStream(8, "synth"))
    stack = partition_iid(ds, 3, [4, 7, 2], RngStream(8, "part"))
    assert stack.x.shape == (3, 7, 3) and stack.y.shape == (3, 7)
    assert stack.counts.tolist() == [4, 7, 2] and stack.device_ids == (1, 2, 3)
    for k, shard in enumerate(stack):
        assert shard.device_id == k + 1 and shard.size == stack.counts[k]
        # Shards view the stack: the samples are held once.
        assert np.shares_memory(shard.data.x, stack.x)
        assert np.shares_memory(shard.data.y, stack.y)
        assert not stack.x[k, shard.size:].any() and not stack.y[k, shard.size:].any()
    part = stack.rows(1, 3)
    assert part.device_ids == (2, 3) and np.shares_memory(part.x, stack.x)


def test_partition_insufficient_samples():
    ds = Dataset(np.zeros((5, 2)), np.zeros(5))
    with pytest.raises(ValueError, match="need 6.*have 5"):
        partition_iid(ds, 2, [3, 3], RngStream(7, "part"))
