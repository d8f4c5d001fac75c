"""Dataset loading (IDX format), synthetic task generation, and IID
partitioning across devices."""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence

import numpy as np

from .numerics import RngStream, as_params, sigmoid
from .record import Record

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
# Feature bytes generated or copied per chunk; the chunk buffer is all
# that is held beside the destination, and a pool that fits is one
# chunk. On crowd_noise (3.3 MB pool) the setup peaks that tracemalloc
# sees are 4.52 MB at 512 KiB and 4.81 MB at 768 KiB.
CHUNK_BYTES = 1 << 19


class Dataset(Record):
    """Ordered sample collection stored as stacked arrays.

    x: (n, d) float64 features; y: (n,) float64 labels, in
    file/generation order.
    """

    x: np.ndarray
    y: np.ndarray

    def _check(self):
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"inconsistent dataset arrays: x {self.x.shape}, y {self.y.shape}"
            )

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


class ShardStack(Record):
    """Every device's training shard in one zero-padded, feature-major
    block.

    x: (n, d, m_max) and y: (n, m_max). Block k is device device_ids[k]'s
    shard as a C-contiguous d x m_max array, one row per feature: the
    device owns its first counts[k] columns and the first counts[k]
    labels of y[k], and every entry past them is zero. Feature-major,
    local training's per-device products run over the samples: the
    margins are one axpy per feature and the gradient one dot product
    per feature, each counts[k] long, where a sample-major block would
    make them counts[k] products d long. Only this module and training
    read the axis order. Stacks compare and hash by identity: their
    arrays have no truth value.
    """

    x: np.ndarray
    y: np.ndarray
    counts: np.ndarray
    device_ids: tuple[int, ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def _check(self):
        n = len(self.device_ids)
        if self.x.ndim != 3 or (self.x.shape[0], self.x.shape[2]) != self.y.shape \
                or self.y.shape[0] != n or self.counts.shape != (n,):
            raise ValueError(
                f"inconsistent shard stack: x {self.x.shape} must be (n, d, m), "
                f"y {self.y.shape} (n, m), counts {self.counts.shape} (n,), "
                f"for n = {n} device ids"
            )

    @classmethod
    def of(cls, ds: Dataset) -> "ShardStack":
        """A dataset as a stack of one, device 0: a feature-major copy."""
        return cls(np.ascontiguousarray(ds.x.T)[None], ds.y[None], np.array([len(ds)]), (0,))

    def __len__(self) -> int:
        return len(self.device_ids)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def rows(self, start: int, stop: int) -> "ShardStack":
        """Devices start..stop-1 as a stack viewing the same block; the
        slices of a checked stack need no check of their own."""
        return ShardStack._unchecked(
            self.x[start:stop], self.y[start:stop],
            self.counts[start:stop], self.device_ids[start:stop],
        )

    def pooled(self) -> Dataset:
        """Every device's samples as one sample-major dataset, device by
        device, each in its shard's order."""
        held = np.arange(self.y.shape[1]) < self.counts[:, None]
        return Dataset(self.x.transpose(0, 2, 1)[held], self.y[held])


def _read_idx(path: str, magic: int, what: str) -> np.ndarray:
    """The payload of an IDX file as a uint8 array of the shape its
    header gives: a big-endian magic, whose low byte is the number of
    dimensions, then one big-endian u32 size per dimension. A
    gzip-compressed file is detected by magic and inflated. what names
    the payload in the error for a file cut short."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        # Imported here: only a gzipped file needs it.
        import gzip

        raw = gzip.decompress(raw)
    start = 4 + 4 * (magic & 0xFF)
    header = struct.unpack_from(f">{min(len(raw), start) // 4}I", raw)
    if header and header[0] != magic:
        raise ValueError(
            f"{path}: bad magic at offset 0, expected {magic:#010x}, got {header[0]:#010x}"
        )
    if len(header) * 4 < start:
        raise ValueError(
            f"{path}: truncated at byte {len(header) * 4}, inside its {start}-byte header"
        )
    shape = header[1:]
    need = start + math.prod(shape)
    if len(raw) < need:
        raise ValueError(f"{path}: truncated {what} data, expected {need} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, count=need - start, offset=start).reshape(shape)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label file pair into a flat-feature dataset.

    Pixels are scaled to [0, 1] by dividing the raw byte by 255; labels
    keep their integer value cast to float. Sample order is file order.
    Gzip-compressed files are detected by magic and inflated.
    """
    pixels = _read_idx(images_path, IMAGES_MAGIC, "pixel")
    labels = _read_idx(labels_path, LABELS_MAGIC, "label")
    count, rows, cols = pixels.shape
    if count != len(labels):
        raise ValueError(
            f"image/label count mismatch: {images_path} has {count}, "
            f"{labels_path} has {len(labels)}"
        )
    x = pixels.reshape(count, rows * cols).astype(np.float64)
    x /= 255.0
    return Dataset(x, labels.astype(np.float64))


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


def _chunk_rows(n: int, d: int) -> int:
    """Rows per chunk: as many d-wide float64 rows as fit in CHUNK_BYTES,
    at least one and at most n, so a pool that fits is one chunk."""
    return max(1, min(n, CHUNK_BYTES // (8 * d)))


def synth_logistic(
    n: int, d: int, w_true, rng: RngStream, out: Dataset | None = None,
    rows: np.ndarray | None = None,
) -> Dataset:
    """Generate a logistic task with known ground truth.

    Features are i.i.d. standard normal; each label is 1.0 with
    probability sigmoid(w_true . x). Sample i is written to row rows[i]
    of out (default: row i of a new n-row dataset), and out is returned.
    The features are drawn a chunk at a time into one reused buffer and
    scattered to their rows, so no other array holds them whole; the
    labels then take the stream's next n uniforms. The draws are those
    of one (n, d) normal block. A chunk's margins can round differently
    from the whole block's product, which moves a label only if its
    uniform lies within an ulp of its probability.
    """
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    w_true = as_params(w_true)
    if w_true.shape[0] != d:
        raise ValueError(f"dimension mismatch: w_true has {w_true.shape[0]}, d is {d}")
    if out is None:
        out = Dataset(np.empty((n, d)), np.empty(n))
    if rows is None:
        rows = np.arange(n)
    step = _chunk_rows(n, d)
    buf = np.empty((step, d))
    # Each margin waits in its sample's label slot until the uniforms,
    # which follow the last normal in the stream, can be drawn.
    for start in range(0, n, step):
        at = rows[start : start + step]
        chunk = buf[: len(at)]
        rng.gen.standard_normal(out=chunk)
        out.x[at] = chunk
        out.y[at] = chunk @ w_true
    del buf, chunk  # before the label pass allocates
    for start in range(0, n, step):
        at = rows[start : start + step]
        out.y[at] = rng.gen.random(len(at)) < sigmoid(out.y[at])
    return out


def deal_slots(sizes: Sequence[int], n: int, rng: RngStream) -> np.ndarray:
    """The IID dealing rule: shuffle n samples once, then deal contiguous
    runs of the shuffled order, sizes[0] to the first device, and so on.

    Returns, per sample, its slot in the zero-padded stack, or -1 for a
    sample no device receives. Device k's samples take slots
    k*max(sizes) .. k*max(sizes) + sizes[k] - 1; slot s is column
    s % max(sizes) of block s // max(sizes), and entry s of the
    flattened labels.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError(f"every device needs at least one sample, sizes={sizes}")
    total = sum(sizes)
    if total > n:
        raise ValueError(
            f"insufficient samples: need {total} for {len(sizes)} devices, have {n}"
        )
    perm = rng.gen.permutation(n)
    width = max(sizes)
    slots = np.full(n, -1)
    slots[perm[:total]] = np.concatenate(
        [np.arange(k * width, k * width + size) for k, size in enumerate(sizes)]
    )
    return slots


def _stack_of(block: Dataset, sizes: Sequence[int]) -> ShardStack:
    """The shard stack over the first len(sizes) * max(sizes) rows of
    block, as deal_slots lays them out, turned feature-major in place.

    Each device's max(sizes) rows become its d x max(sizes) block, one
    device at a time through a buffer of one block. Filling whole rows
    and then transposing each block writes memory in order; scattering
    a sample straight to its column would touch d cache lines per
    sample.
    """
    n, width, d = len(sizes), max(sizes), block.dim
    rows = block.x[: n * width].reshape(n, width, d)
    x = block.x[: n * width].reshape(n, d, width)
    buf = np.empty((d, width))
    for k in range(n):
        np.copyto(buf, rows[k].T)
        x[k] = buf
    return ShardStack(
        x, block.y[: n * width].reshape(n, width), np.array(sizes), tuple(range(1, n + 1))
    )


def partition_iid(ds: Dataset, sizes: Sequence[int], rng: RngStream) -> ShardStack:
    """Deal the dataset by deal_slots into one zero-padded stack.

    Device n (1-based) receives exactly sizes[n-1] samples; shards are
    disjoint. Samples are copied a chunk at a time, so no second copy of
    the dealt rows is made.
    """
    sizes = [int(s) for s in sizes]
    slots = deal_slots(sizes, len(ds), rng)
    stacked = len(sizes) * max(sizes)
    block = Dataset(np.zeros((stacked, ds.dim)), np.zeros(stacked))
    dealt = np.flatnonzero(slots >= 0)
    step = _chunk_rows(len(dealt), ds.dim)
    for start in range(0, len(dealt), step):
        src = dealt[start : start + step]
        block.x[slots[src]] = ds.x[src]
        block.y[slots[src]] = ds.y[src]
    return _stack_of(block, sizes)


def synth_shards(
    sizes: Sequence[int], n_test: int, d: int, w_true, rng: RngStream,
    partitioner: RngStream,
) -> tuple[ShardStack, Dataset]:
    """A synthetic task generated straight into place.

    Gives what partition_iid(train, sizes, partitioner) and a test set
    give when train is the first sum(sizes) samples of
    synth_logistic(sum(sizes) + n_test, d, w_true, rng) and the test set
    the remaining n_test, in order. The shard stack and the test set
    are views of one zero-filled block, which synth_logistic fills a
    row per sample and _stack_of then turns feature-major where the
    stack lies, so every sample is held once.
    """
    sizes = [int(s) for s in sizes]
    stacked = len(sizes) * max(sizes)
    rows = np.concatenate([
        deal_slots(sizes, sum(sizes), partitioner), np.arange(stacked, stacked + n_test)
    ])
    block = Dataset(np.zeros((stacked + n_test, d)), np.zeros(stacked + n_test))
    synth_logistic(len(rows), d, w_true, rng, block, rows)
    return _stack_of(block, sizes), Dataset(block.x[stacked:], block.y[stacked:])
