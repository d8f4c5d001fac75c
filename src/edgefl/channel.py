"""Device geometry, inverse-square path loss, SNR, and the eavesdropping
gate that decides which benign uplinks an attacker overhears."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class DevicePosition:
    """Position in meters; the server sits at altitude z == 0."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if self.z < 0:
            raise ValueError(f"device altitude must be nonnegative, got {self.z}")


@dataclass(frozen=True)
class ChannelConfig:
    """Propagation constants shared by all links.

    gain_basis is the channel gain at 1 m; transmit_power and
    noise_power are in watts.
    """

    gain_basis: float
    transmit_power: float
    noise_power: float

    def __post_init__(self):
        for name in ("gain_basis", "transmit_power", "noise_power"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"channel.{name} must be positive, got {value}")


def distance(p: DevicePosition, q: DevicePosition) -> float:
    """Straight-line distance in meters."""
    return math.sqrt((p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2)


def channel_gain(d: float, cfg: ChannelConfig) -> float:
    """Inverse-square gain: gain_basis / d^2."""
    if d <= 0:
        raise ValueError(f"co-located transceiver: distance must be positive, got {d}")
    return cfg.gain_basis / (d * d)


def snr(gain: float, cfg: ChannelConfig) -> float:
    """Signal-to-noise ratio for a link with the given gain."""
    if gain < 0:
        raise ValueError(f"gain must be nonnegative, got {gain}")
    return gain * cfg.transmit_power / cfg.noise_power


def eavesdrop_set(
    benign_positions: Mapping[int, DevicePosition],
    attacker_position: DevicePosition,
    cfg: ChannelConfig,
    snr_min: float,
) -> set[int]:
    """Device ids whose uplink the attacker can overhear.

    A device is overheard when the SNR of its link to the attacker is at
    least snr_min (boundary included). snr_min == 0 overhears everyone.
    """
    overheard = set()
    for device_id, pos in benign_positions.items():
        d = distance(pos, attacker_position)
        if snr(channel_gain(d, cfg), cfg) >= snr_min:
            overheard.add(device_id)
    return overheard
