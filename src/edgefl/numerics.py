"""Vector primitives, distances, seeded random streams, the shared
projector, and the stage timer.

Model parameters ("params") are flat 1-D float64 arrays. All functions
here except :func:`timed` are pure; the only stateful object is
:class:`RngStream`, which is never shared between consumers.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from functools import cached_property

import numpy as np

NORM_FLOOR = 1e-12


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Backed by the counter-based Philox generator with the key derived
    from the pair, so each consumer (device, attacker, partitioner, ...)
    owns an independent stream whose output does not depend on draw
    interleaving by other consumers or on worker scheduling. The
    generator is built on first use of :attr:`gen`, so a stream that is
    never drawn from costs only its seed check.
    """

    def __init__(self, seed: int, stream_id: str):
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
        self.seed = int(seed)
        self.stream_id = stream_id

    @cached_property
    def gen(self) -> np.random.Generator:
        digest = hashlib.blake2b(self.stream_id.encode("utf-8"), digest_size=8).digest()
        key = int.from_bytes(digest, "big")
        return np.random.Generator(np.random.Philox(key=[self.seed, key]))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id!r})"


def as_params(values) -> np.ndarray:
    """Coerce to a 1-D float64 parameter vector."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"params must be 1-D, got shape {arr.shape}")
    return arr


def ensure_finite(name: str, values: np.ndarray, device_ids=None) -> np.ndarray:
    """Raise if the array holds NaN or infinities; given one device id
    per entry, the error names the device of the first such entry."""
    finite = np.isfinite(values)
    if not finite.all():
        at = "" if device_ids is None else \
            f", the first at device {device_ids[int(np.argmin(finite))]}"
        raise FloatingPointError(f"{name} contains non-finite entries{at}")
    return values


@np.errstate(over="ignore")
def sigmoid(x, out=None) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)) of an array, written into out
    when given (out may be x); exp overflows to inf for x below about
    -709, which correctly gives 0."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def euclidean_distance(rows, b) -> np.ndarray:
    """Euclidean distance from each row of a 2-D stack to the vector b.

    Each row's squared norm is one stacked per-row dot, the same ddot
    that np.linalg.norm runs on a single vector, so row k gets the bits
    of np.linalg.norm(rows[k] - b).
    """
    b = as_params(b)
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"rows must form a 2-D stack, got shape {rows.shape}")
    if rows.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {rows.shape[1]} vs {b.shape[0]}")
    d = rows - b
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


class Projector:
    """Fixed linear projection into feature space.

    One projector is built per run and shared by every model so the
    projected vectors stay mutually comparable. Random mode draws i.i.d.
    +-1/sqrt(d_feat) entries, which preserves inner products in
    expectation; identity mode is available for d_feat == dim.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError("projection matrix must be 2-D")

    @classmethod
    def random(cls, dim: int, d_feat: int, rng: RngStream) -> "Projector":
        if d_feat > dim:
            raise ValueError(f"d_feat {d_feat} exceeds model dim {dim}")
        if d_feat < 1:
            raise ValueError(f"d_feat must be positive, got {d_feat}")
        signs = rng.gen.integers(0, 2, size=(d_feat, dim)).astype(np.float64) * 2.0 - 1.0
        return cls(signs / np.sqrt(d_feat))

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls(np.eye(dim))

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]

    def project(self, w) -> np.ndarray:
        """Project a parameter vector, or each row of a 2-D block; row k
        gets the bits of matrix @ w[k], which one gemm would not give."""
        w = np.asarray(w, dtype=np.float64)
        if w.ndim not in (1, 2) or w.shape[-1] != self.input_dim:
            raise ValueError(f"projector expects {self.input_dim}-dim params, got shape {w.shape}")
        return np.matmul(self.matrix, w[..., None])[..., 0]


@contextmanager
def timed(name: str, seconds: dict[str, float] | None):
    """Add the block's wall time into seconds[name], when seconds is given."""
    start = time.perf_counter()
    try:
        yield
    finally:
        if seconds is not None:
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
