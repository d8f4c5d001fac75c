import numpy as np
import pytest

from edgefl.channel import (
    ChannelConfig,
    DevicePosition,
    channel_gain,
    distance,
    eavesdrop_set,
    snr,
)

CFG = ChannelConfig(gain_basis=1.0, transmit_power=1.0, noise_power=0.01)


def test_distance_examples():
    origin = DevicePosition(0.0, 0.0, 0.0)
    assert distance(origin, origin) == 0.0
    assert distance(DevicePosition(3.0, 4.0, 0.0), origin) == 5.0
    # 1 + 4 + 4 = 9 by hand expansion
    assert distance(DevicePosition(1.0, 2.0, 2.0), origin) == 3.0


def test_gain_examples():
    cfg = ChannelConfig(gain_basis=1.0, transmit_power=1.0, noise_power=1.0)
    assert channel_gain(1.0, cfg) == cfg.gain_basis
    assert channel_gain(2.0, cfg) == 0.25
    assert channel_gain(5.0, ChannelConfig(2.0, 1.0, 1.0)) == pytest.approx(0.08, abs=0)
    with pytest.raises(ValueError, match="co-located"):
        channel_gain(0.0, cfg)


def test_snr_examples():
    assert snr(0.0, CFG) == 0.0
    assert snr(0.25, ChannelConfig(1.0, 4.0, 1.0)) == 1.0
    assert snr(0.08, ChannelConfig(1.0, 10.0, 0.2)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        snr(-0.1, CFG)


def test_channel_config_positivity():
    with pytest.raises(ValueError, match="channel.noise_power"):
        ChannelConfig(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="channel.gain_basis"):
        ChannelConfig(-1.0, 1.0, 1.0)


def test_snr_monotone_in_distance():
    distances = np.linspace(0.5, 50.0, 200)
    values = [snr(channel_gain(d, CFG), CFG) for d in distances]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_eavesdrop_formula_chain_oracle():
    # Three devices at distances 1, 2, 10 from the attacker; the boundary
    # SNR at distance 10 equals snr_min and is included.
    attacker = DevicePosition(0.0, 0.0, 0.0)
    positions = {
        1: DevicePosition(1.0, 0.0, 0.0),
        2: DevicePosition(2.0, 0.0, 0.0),
        3: DevicePosition(10.0, 0.0, 0.0),
    }
    expected = set()
    for dev, pos in positions.items():
        d = distance(pos, attacker)
        if channel_gain(d, CFG) * CFG.transmit_power / CFG.noise_power >= 1.0:
            expected.add(dev)
    got = eavesdrop_set(positions, attacker, CFG.replace(snr_min=1.0))
    assert got == expected == {1, 2, 3}
    assert snr(channel_gain(10.0, CFG), CFG) == 1.0  # boundary case


def test_eavesdrop_snr_zero_and_infinite():
    attacker = DevicePosition(50.0, 50.0, 5.0)
    positions = {i: DevicePosition(float(i), 0.0, 0.0) for i in range(1, 6)}
    assert eavesdrop_set(positions, attacker, CFG.replace(snr_min=0.0)) == set(positions)
    assert eavesdrop_set(positions, attacker, CFG.replace(snr_min=float("inf"))) == set()


def test_eavesdrop_monotone_in_threshold_random_geometries():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        positions = {
            i + 1: DevicePosition(*rng.uniform(0, 100, size=2), rng.uniform(0, 10))
            for i in range(n)
        }
        attacker = DevicePosition(*rng.uniform(100.5, 200, size=2), rng.uniform(0, 10))
        lo, hi = sorted(rng.uniform(0, 5, size=2))
        big = eavesdrop_set(positions, attacker, CFG.replace(snr_min=lo))
        assert eavesdrop_set(positions, attacker, CFG.replace(snr_min=hi)) <= big


def test_device_position_altitude_guard():
    with pytest.raises(ValueError):
        DevicePosition(0.0, 0.0, -1.0)
