import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from edgefl import data
from edgefl.data import (
    IMAGES_MAGIC,
    LABELS_MAGIC,
    Dataset,
    ShardStack,
    binarize,
    load_idx,
    partition_iid,
    synth_logistic,
    synth_shards,
)
from edgefl.numerics import RngStream, sigmoid


def write_idx_images(path, images):
    """Write a (n, rows, cols) uint8 array in IDX image format."""
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"expected (n, rows, cols) array, got shape {images.shape}")
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    """Write a (n,) uint8 array in IDX label format."""
    labels = np.asarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise ValueError(f"expected 1-D label array, got shape {labels.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


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


@pytest.mark.parametrize("which, raw, error", [
    ("labels", struct.pack(">II", 0x00000802, 2) + bytes(2),
     "bad magic at offset 0, expected 0x00000801, got 0x00000802"),
    ("labels", struct.pack(">II", LABELS_MAGIC, 5) + bytes(2),
     "truncated label data, expected 13 bytes, got 10"),
    ("labels", struct.pack(">I", LABELS_MAGIC), "truncated at byte 4"),
    ("images", struct.pack(">II", IMAGES_MAGIC, 2), "truncated at byte 8"),
], ids=["label magic", "label data", "label header", "image header"])
def test_load_idx_rejection_names_the_file_and_the_place(tmp_path, which, raw, error):
    paths = dict(zip(
        ("images", "labels"),
        _fixture_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), np.zeros(2, np.uint8)),
    ))
    Path(paths[which]).write_bytes(raw)
    with pytest.raises(ValueError, match=re.escape(f"{paths[which]}: {error}")):
        load_idx(paths["images"], paths["labels"])


def test_load_idx_holds_one_float_copy_of_the_pixels(tmp_path):
    images = np.random.default_rng(4).integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
    ip, lp = _fixture_pair(tmp_path, images, np.zeros(2000, np.uint8))
    tracemalloc.start()
    try:
        ds = load_idx(ip, lp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ds.x.nbytes
    np.testing.assert_array_equal(ds.x, images.reshape(2000, 784) / 255.0)


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


def _shard_blocks(stack):
    """Each device's (d, m) feature block of the stack, without the
    padding."""
    return [stack.x[k, :, :m] for k, m in enumerate(stack.counts)]


def test_partition_single_device_is_permutation():
    ds = synth_logistic(40, 3, np.ones(3), RngStream(4, "synth"))
    stack = partition_iid(ds, [40], RngStream(4, "part"))
    assert stack.device_ids == (1,) and stack.counts.tolist() == [40]
    assert sorted(map(_key, stack.x[0].T)) == sorted(map(_key, ds.x))


def test_partition_disjoint_singletons():
    ds = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))
    shards = partition_iid(ds, [1, 1], RngStream(5, "part"))
    values = {shards.x[0, 0, 0], shards.x[1, 0, 0]}
    assert values == {1.0, 2.0}


def test_partition_multiset_equality_oracle():
    ds = synth_logistic(1000, 4, np.ones(4), RngStream(6, "synth"))
    shards = partition_iid(ds, [200] * 5, RngStream(6, "part"))
    union = sorted(_key(sample) for block in _shard_blocks(shards) for sample in block.T)
    assert union == sorted(map(_key, ds.x))


def test_partition_random_configurations_disjoint_and_exact():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n_dev = int(rng.integers(1, 7))
        sizes = [int(rng.integers(1, 30)) for _ in range(n_dev)]
        total = sum(sizes) + int(rng.integers(0, 20))
        ds = Dataset(np.arange(total, dtype=float)[:, None], np.zeros(total))
        shards = partition_iid(ds, sizes, RngStream(int(rng.integers(1e6)), "part"))
        seen: list[float] = []
        assert shards.counts.tolist() == sizes
        for block in _shard_blocks(shards):
            seen.extend(block[0].tolist())
        assert len(seen) == len(set(seen)) == sum(sizes)


def test_partition_deals_into_one_zero_padded_stack():
    ds = synth_logistic(20, 3, np.ones(3), RngStream(8, "synth"))
    stack = partition_iid(ds, [4, 7, 2], RngStream(8, "part"))
    assert stack.x.shape == (3, 3, 7) and stack.y.shape == (3, 7)
    assert stack.counts.tolist() == [4, 7, 2] and stack.device_ids == (1, 2, 3)
    for k, size in enumerate(stack.counts):
        assert not stack.x[k, :, size:].any() and not stack.y[k, size:].any()
    part = stack.rows(1, 3)
    assert part.device_ids == (2, 3) and np.shares_memory(part.x, stack.x)
    # Stacks compare by identity, never element by element.
    assert stack == stack and stack != stack.rows(0, 3) and {stack, part}


def test_partition_gives_each_device_its_dealt_samples_as_columns():
    sizes = [5, 9, 2, 9, 7]
    ds = synth_logistic(60, 3, np.ones(3), RngStream(14, "synth"))
    stack = partition_iid(ds, sizes, RngStream(14, "part"))
    slots = data.deal_slots(sizes, 60, RngStream(14, "part"))
    sample = np.full(len(sizes) * 9, -1)
    sample[slots[slots >= 0]] = np.flatnonzero(slots >= 0)
    for k, block in enumerate(_shard_blocks(stack)):
        held = sample[k * 9 : k * 9 + sizes[k]]
        assert block.tobytes() == np.ascontiguousarray(ds.x[held].T).tobytes()
        assert stack.y[k, : sizes[k]].tobytes() == ds.y[held].tobytes()
        assert not stack.x[k, :, sizes[k] :].any()


def test_partition_insufficient_samples():
    ds = Dataset(np.zeros((5, 2)), np.zeros(5))
    with pytest.raises(ValueError, match="need 6.*have 5"):
        partition_iid(ds, [3, 3], RngStream(7, "part"))


def _two_step_reference(sizes, n_test, d, w_true, seed):
    """The synthetic shards and test set built the way synth_shards
    replaces: the whole pool drawn at once, then each device's shard
    gathered from one permutation of the training rows."""
    gen = RngStream(seed, "data").gen
    n_train = sum(sizes)
    x = gen.standard_normal((n_train + n_test, d))
    y = (gen.random(n_train + n_test) < sigmoid(x @ w_true)).astype(np.float64)
    perm = RngStream(seed, "partitioner").gen.permutation(n_train)
    blocks, labels = [], []
    start = 0
    for k, size in enumerate(sizes):
        idx = perm[start : start + size]
        blocks.append(np.ascontiguousarray(x[idx].T))
        labels.append(y[idx])
        start += size
    return blocks, labels, x[n_train:], y[n_train:]


@pytest.mark.parametrize("sizes, n_test, d, chunk_rows", [
    ([50] * 4, 30, 3, 16),             # equal sizes
    ([13, 40, 7, 22], 25, 5, 9),       # unequal sizes
    ([6, 9], 4, 3, None),              # a pool smaller than one chunk
    ([200] * 200, 1000, 10, None),     # the crowd_noise shape, default chunks
])
def test_synth_shards_match_the_two_step_construction_bit_for_bit(
    monkeypatch, sizes, n_test, d, chunk_rows
):
    if chunk_rows is not None:
        monkeypatch.setattr(data, "CHUNK_BYTES", 8 * d * chunk_rows)
    n_train = sum(sizes)
    step = data._chunk_rows(n_train + n_test, d)
    if step < n_train + n_test:
        # A chunk holds both the last training rows and the first test
        # rows, and the first chunk edge splits some device's rows.
        assert n_train % step != 0
        device = data.deal_slots(sizes, n_train, RngStream(4, "partitioner")) // max(sizes)
        assert np.isin(device[:step], device[step:]).any()
    w_true = RngStream(9, "w-true").gen.standard_normal(d) * 2.0
    shards, test = synth_shards(
        sizes, n_test, d, w_true, RngStream(4, "data"), RngStream(4, "partitioner")
    )
    blocks, labels, test_x, test_y = _two_step_reference(sizes, n_test, d, w_true, 4)
    for k, size in enumerate(sizes):
        assert shards.x[k, :, :size].tobytes() == blocks[k].tobytes()
        assert shards.y[k, :size].tobytes() == labels[k].tobytes()
        assert not shards.x[k, :, size:].any() and not shards.y[k, size:].any()
    assert test.x.tobytes() == test_x.tobytes() and test.y.tobytes() == test_y.tobytes()
    assert shards.counts.tolist() == sizes
    assert shards.device_ids == tuple(range(1, len(sizes) + 1))


def test_synth_logistic_in_chunks_matches_one_block(monkeypatch):
    monkeypatch.setattr(data, "CHUNK_BYTES", 8 * 4 * 5)
    w_true = np.array([3.0, -1.0, 0.5, 2.0])
    ds = synth_logistic(23, 4, w_true, RngStream(6, "synth"))
    gen = RngStream(6, "synth").gen
    x = gen.standard_normal((23, 4))
    y = (gen.random(23) < sigmoid(x @ w_true)).astype(np.float64)
    assert ds.x.tobytes() == x.tobytes() and ds.y.tobytes() == y.tobytes()


def _stacks_of_every_builder():
    ds = synth_logistic(60, 4, np.ones(4), RngStream(10, "synth"))
    shards, _ = synth_shards(
        [7, 12, 3], 5, 4, np.ones(4), RngStream(10, "data"), RngStream(10, "part")
    )
    return {
        "synth_shards": (shards, (3, 4, 12)),
        "partition_iid": (partition_iid(ds, [9, 20, 9, 1], RngStream(10, "part")), (4, 4, 20)),
        "ShardStack.of": (ShardStack.of(ds), (1, 4, 60)),
        "ShardStack.of one sample": (ShardStack.of(Dataset(ds.x[:1], ds.y[:1])), (1, 4, 1)),
    }


def test_every_shard_stack_is_feature_major_with_a_contiguous_block_per_device():
    for name, (stack, shape) in _stacks_of_every_builder().items():
        assert stack.x.shape == shape and stack.dim == shape[1], name
        assert stack.y.shape == (shape[0], shape[2]), name
        for k in range(len(stack)):
            assert stack.x[k].flags.c_contiguous, (name, k)
        assert all(part.flags.c_contiguous for part in stack.rows(1, len(stack)).x), name


def test_shard_stack_of_a_dataset_holds_its_samples_as_columns():
    ds = synth_logistic(9, 3, np.ones(3), RngStream(11, "synth"))
    stack = ShardStack.of(ds)
    assert stack.x[0].tobytes() == np.ascontiguousarray(ds.x.T).tobytes()
    assert not np.shares_memory(stack.x, ds.x)
    pooled = stack.pooled()
    assert pooled.x.tobytes() == ds.x.tobytes() and pooled.y.tobytes() == ds.y.tobytes()


def test_pooled_shards_are_every_device_s_samples_in_order():
    ds = synth_logistic(30, 3, np.ones(3), RngStream(12, "synth"))
    stack = partition_iid(ds, [4, 9, 2], RngStream(12, "part"))
    pooled = stack.pooled()
    blocks = _shard_blocks(stack)
    assert pooled.x.tobytes() == np.concatenate([b.T for b in blocks]).tobytes()
    assert pooled.y.tolist() == [v for k, m in enumerate(stack.counts) for v in stack.y[k, :m]]


@pytest.mark.parametrize("x, y", [
    (np.zeros((2, 5, 3)), np.zeros((2, 5))),     # sample-major: (n, m, d)
    (np.zeros((2, 3)), np.zeros((2, 3))),        # no feature axis
    (np.zeros((3, 4, 5)), np.zeros((3, 5))),     # three blocks, two device ids
])
def test_a_shard_stack_of_the_wrong_shape_names_the_n_d_m_layout(x, y):
    with pytest.raises(ValueError, match=re.escape(
        f"inconsistent shard stack: x {x.shape} must be (n, d, m), y {y.shape} (n, m)"
    )):
        ShardStack(x, y, np.array([3, 3]), (1, 2))
