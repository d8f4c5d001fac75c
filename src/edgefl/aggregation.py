"""Server-side sample-weighted aggregation.

The server is honest but blind: it sees one round's models as a single
(n, dim) block, one row per device in ascending device id, and one
reported sample count per row. The same weighted mean is applied to
every row; the signature carries no malice flag, so nothing here can
read one.
"""

from __future__ import annotations

import numpy as np

from .numerics import ensure_finite


def aggregate(models, counts) -> np.ndarray:
    """Weighted mean of the rows of models, weights = counts / total.

    Rows are summed in the order given, which the caller keeps at
    ascending device id so the result is bit-deterministic.
    """
    models = np.asarray(models, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if models.ndim != 2 or models.shape[0] == 0:
        raise ValueError(f"need a non-empty 2-D block of models, got shape {models.shape}")
    if counts.shape != (models.shape[0],):
        raise ValueError(f"{counts.size} reported counts for {models.shape[0]} models")
    if (counts < 1).any():
        raise ValueError(f"reported sample counts must be >= 1, got {counts.min():g}")
    weights = counts / counts.sum()
    return ensure_finite("aggregated global model", (weights[:, None] * models).sum(axis=0))
