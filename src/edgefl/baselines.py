"""Conventional poisoning baselines used as stealth comparators.

Both ignore the stealth radius by design: their distance signature is
what distance-based detection catches.
"""

from __future__ import annotations

import numpy as np

from .numerics import RngStream, as_params

def gaussian_noise_attack(global_prev, sigma: float, rng: RngStream) -> np.ndarray:
    """Previous global model plus i.i.d. Gaussian noise of scale sigma."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    global_prev = as_params(global_prev)
    return global_prev + sigma * rng.gen.standard_normal(global_prev.shape[0])


def sign_flip_attack(overheard_mean, scale: float) -> np.ndarray:
    """Negated and scaled mean of the overheard models."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return -scale * as_params(overheard_mean)
