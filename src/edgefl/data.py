"""Dataset loading (IDX format), synthetic task generation, and IID
partitioning across devices."""

from __future__ import annotations

import gzip
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import RngStream, as_params, sigmoid

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class Sample(NamedTuple):
    x: np.ndarray
    y: float


@dataclass(frozen=True)
class Dataset:
    """Ordered sample collection stored as stacked arrays.

    x: (n, d) float64 features; y: (n,) float64 labels. Iteration and
    indexing yield :class:`Sample` views in file/generation order.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"inconsistent dataset arrays: x {self.x.shape}, y {self.y.shape}"
            )

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, i: int) -> Sample:
        return Sample(self.x[i], float(self.y[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def subset(self, indices) -> "Dataset":
        return Dataset(self.x[indices], self.y[indices])


@dataclass(frozen=True)
class LocalDataset:
    """One device's training shard."""

    device_id: int
    data: Dataset

    def __post_init__(self):
        if len(self.data) < 1:
            raise ValueError(f"device {self.device_id}: local dataset is empty")

    @property
    def size(self) -> int:
        return len(self.data)


@dataclass(frozen=True, eq=False)
class ShardStack(Sequence):
    """Every device's training shard in one zero-padded block.

    x: (n, m_max, d) and y: (n, m_max). Device device_ids[k] owns the
    first counts[k] rows of block k; every row past them is zero.
    Indexing yields :class:`LocalDataset` views into the block, so the
    samples are held once.
    """

    x: np.ndarray
    y: np.ndarray
    counts: np.ndarray
    device_ids: tuple[int, ...]

    def __post_init__(self):
        n = len(self.device_ids)
        if self.x.ndim != 3 or self.x.shape[:2] != self.y.shape or self.y.shape[0] != n \
                or self.counts.shape != (n,):
            raise ValueError(
                f"inconsistent shard stack: x {self.x.shape}, y {self.y.shape}, "
                f"counts {self.counts.shape}, {len(self.device_ids)} device ids"
            )

    @classmethod
    def of(cls, ds) -> "ShardStack":
        """One device's shard as a stack of one, without copying; a bare
        :class:`Dataset` is labelled device 0."""
        device_id = ds.device_id if isinstance(ds, LocalDataset) else 0
        data = ds.data if isinstance(ds, LocalDataset) else ds
        return cls(data.x[None], data.y[None], np.array([len(data)]), (device_id,))

    def __len__(self) -> int:
        return len(self.device_ids)

    def __getitem__(self, k: int) -> LocalDataset:
        m = int(self.counts[k])
        return LocalDataset(self.device_ids[k], Dataset(self.x[k, :m], self.y[k, :m]))

    def rows(self, start: int, stop: int) -> "ShardStack":
        """Devices start..stop-1 as a stack viewing the same block."""
        return ShardStack(
            self.x[start:stop], self.y[start:stop],
            self.counts[start:stop], self.device_ids[start:stop],
        )


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def _read_u32(buf: bytes, offset: int, path: str, what: str) -> int:
    if offset + 4 > len(buf):
        raise ValueError(
            f"{path}: truncated at byte {offset}, expected 4-byte {what}"
        )
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label file pair into a flat-feature dataset.

    Pixels are scaled to [0, 1] by dividing the raw byte by 255; labels
    keep their integer value cast to float. Sample order is file order.
    Gzip-compressed files are detected by magic and inflated.
    """
    img = _read_bytes(images_path)
    magic = _read_u32(img, 0, images_path, "magic")
    if magic != IMAGES_MAGIC:
        raise ValueError(
            f"{images_path}: bad magic at offset 0, expected {IMAGES_MAGIC:#010x}, "
            f"got {magic:#010x}"
        )
    count = _read_u32(img, 4, images_path, "image count")
    rows = _read_u32(img, 8, images_path, "row count")
    cols = _read_u32(img, 12, images_path, "column count")
    need = 16 + count * rows * cols
    if len(img) < need:
        raise ValueError(
            f"{images_path}: truncated pixel data, expected {need} bytes, got {len(img)}"
        )

    lab = _read_bytes(labels_path)
    lmagic = _read_u32(lab, 0, labels_path, "magic")
    if lmagic != LABELS_MAGIC:
        raise ValueError(
            f"{labels_path}: bad magic at offset 0, expected {LABELS_MAGIC:#010x}, "
            f"got {lmagic:#010x}"
        )
    lcount = _read_u32(lab, 4, labels_path, "label count")
    if len(lab) < 8 + lcount:
        raise ValueError(
            f"{labels_path}: truncated label data, expected {8 + lcount} bytes, "
            f"got {len(lab)}"
        )
    if count != lcount:
        raise ValueError(
            f"image/label count mismatch: {images_path} has {count}, "
            f"{labels_path} has {lcount}"
        )

    pixels = np.frombuffer(img, dtype=np.uint8, count=count * rows * cols, offset=16)
    x = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    y = np.frombuffer(lab, dtype=np.uint8, count=lcount, offset=8).astype(np.float64)
    return Dataset(x, y)


def write_idx_images(path: str, images: np.ndarray) -> None:
    """Write a (n, rows, cols) uint8 array in IDX image format."""
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"expected (n, rows, cols) array, got shape {images.shape}")
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path: str, labels: np.ndarray) -> None:
    """Write a (n,) uint8 array in IDX label format."""
    labels = np.asarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise ValueError(f"expected 1-D label array, got shape {labels.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def binarize(ds: Dataset, class_a: int, class_b: int) -> Dataset:
    """Keep only samples labeled class_a or class_b, relabeled 0.0 / 1.0.

    Order is preserved. Raises when the classes coincide or when no
    sample survives.
    """
    if class_a == class_b:
        raise ValueError(f"class_a and class_b must differ, both are {class_a}")
    mask = (ds.y == class_a) | (ds.y == class_b)
    if not mask.any():
        raise ValueError(
            f"no samples with label {class_a} or {class_b} in dataset of {len(ds)}"
        )
    x = ds.x[mask]
    y = np.where(ds.y[mask] == class_b, 1.0, 0.0)
    return Dataset(x, y)


def synth_logistic(n: int, d: int, w_true, rng: RngStream) -> Dataset:
    """Generate a logistic task with known ground truth.

    Features are i.i.d. standard normal; each label is 1.0 with
    probability sigmoid(w_true . x).
    """
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    w_true = as_params(w_true)
    if w_true.shape[0] != d:
        raise ValueError(f"dimension mismatch: w_true has {w_true.shape[0]}, d is {d}")
    x = rng.gen.standard_normal((n, d))
    p = sigmoid(x @ w_true)
    y = (rng.gen.random(n) < p).astype(np.float64)
    return Dataset(x, y)


def partition_iid(
    ds: Dataset, n_devices: int, sizes: Sequence[int], rng: RngStream
) -> ShardStack:
    """Shuffle once, then deal contiguous shards of the given sizes.

    Device n (1-based) receives exactly sizes[n-1] samples; shards are
    disjoint and dealt straight into one zero-padded stack.
    """
    if n_devices < 1:
        raise ValueError(f"need at least one device, got {n_devices}")
    sizes = [int(s) for s in sizes]
    if len(sizes) != n_devices:
        raise ValueError(f"got {len(sizes)} sizes for {n_devices} devices")
    if any(s < 1 for s in sizes):
        raise ValueError(f"every device needs at least one sample, sizes={sizes}")
    total = sum(sizes)
    if total > len(ds):
        raise ValueError(
            f"insufficient samples: need {total} for {n_devices} devices, have {len(ds)}"
        )
    perm = rng.gen.permutation(len(ds))
    x = np.zeros((n_devices, max(sizes), ds.dim))
    y = np.zeros((n_devices, max(sizes)))
    start = 0
    for k, size in enumerate(sizes):
        idx = perm[start : start + size]
        x[k, :size] = ds.x[idx]
        y[k, :size] = ds.y[idx]
        start += size
    return ShardStack(x, y, np.array(sizes), tuple(range(1, n_devices + 1)))
