"""Server-side sample-weighted aggregation.

The server is honest but blind: the same weighted mean is applied to
every reported update, and nothing in the aggregation path reads the
ground-truth is_malicious flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import as_params, ensure_finite


@dataclass(frozen=True)
class ReportedUpdate:
    """One device's uploaded model plus its self-reported sample count.

    is_malicious is ground-truth bookkeeping for metrics only; the
    aggregation path never branches on it.
    """

    device_id: int
    params: np.ndarray
    reported_samples: int
    is_malicious: bool = False

    def __post_init__(self):
        if self.reported_samples < 1:
            raise ValueError(
                f"device {self.device_id}: reported_samples must be >= 1, "
                f"got {self.reported_samples}"
            )


def aggregate(updates: Sequence[ReportedUpdate]) -> np.ndarray:
    """Weighted mean of all updates, weights = reported samples / total.

    Summation runs in ascending device_id order so the result is
    bit-deterministic regardless of arrival order.
    """
    if not updates:
        raise ValueError("aggregate called with no updates")
    ordered = sorted(updates, key=lambda u: u.device_id)
    params = []
    for u in ordered:
        p = as_params(u.params)
        if params and p.shape[0] != params[0].shape[0]:
            raise ValueError(
                f"dimension mismatch: device {ordered[0].device_id} has "
                f"{params[0].shape[0]}, device {u.device_id} has {p.shape[0]}"
            )
        params.append(p)
    counts = np.array([u.reported_samples for u in ordered], dtype=np.float64)
    weights = counts / counts.sum()
    stacked = np.stack(params)
    out = (weights[:, None] * stacked).sum(axis=0)
    return ensure_finite("aggregated global model", out)
