"""Device geometry, inverse-square path loss, SNR, and the eavesdropping
gate that decides which benign uplinks an attacker overhears."""

import math
from typing import Mapping

from .record import Record


class DevicePosition(Record):
    """Position in meters; the server sits at altitude z == 0."""

    x: float
    y: float
    z: float = 0.0

    def _check(self):
        if self.z < 0:
            raise ValueError(f"device altitude must be nonnegative, got {self.z}")


class ChannelConfig(Record):
    """Propagation constants shared by all links.

    gain_basis is the channel gain at 1 m; transmit_power and
    noise_power are in watts. snr_min is the eavesdropping threshold
    (0 overhears everyone).
    """

    gain_basis: float = 1.0
    transmit_power: float = 1.0
    noise_power: float = 1e-4
    snr_min: float = 0.0

    def _check(self):
        for name in ("gain_basis", "transmit_power", "noise_power"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"channel.{name} must be positive, got {value}")
        if not self.snr_min >= 0:
            raise ValueError(f"channel.snr_min must be >= 0, got {self.snr_min}")


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
) -> set[int]:
    """Device ids whose uplink the attacker can overhear.

    A device is overheard when the SNR of its link to the attacker is at
    least cfg.snr_min (boundary included). snr_min == 0 overhears
    everyone.
    """
    overheard = set()
    for device_id, pos in benign_positions.items():
        d = distance(pos, attacker_position)
        if snr(channel_gain(d, cfg), cfg) >= cfg.snr_min:
            overheard.add(device_id)
    return overheard
