"""Battery banks must mirror the scalar models' arithmetic exactly.

Every test drives a bank and a row of scalar batteries through the
same draw/recharge/rest sequence and compares the full state — the
vector engine's credibility rests on the bank being the *same* battery
model, just stored column-wise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.battery.ideal import IdealBattery
from repro.battery.thin_film import ThinFilmBattery, ThinFilmParameters
from repro.config import PlatformConfig
from repro.errors import BatteryError, ConfigurationError
from repro.sim.vector_bank import (
    IdealBatteryBank,
    ThinFilmBatteryBank,
    build_battery_bank,
)

CAPACITY = 3_000.0


def thin_film_pair(count: int = 4):
    params = ThinFilmParameters(capacity_pj=CAPACITY)
    bank = ThinFilmBatteryBank(count, params)
    scalars = [ThinFilmBattery(params) for _ in range(count)]
    return bank, scalars


def drive(bank, scalars, frames):
    """Apply ``frames`` of (requests, durations) to both sides.

    The scalar side skips dead cells and zero requests exactly like the
    bank's ``active`` mask does.
    """
    for requests, durations in frames:
        bank.draw(
            np.asarray(requests, dtype=float),
            np.asarray(durations, dtype=float),
        )
        for battery, request, duration in zip(scalars, requests, durations):
            if battery.alive and request > 0.0:
                battery.draw(request, max(duration, 1.0))


class TestThinFilmParity:
    def test_draw_sequence_matches_scalar_cells(self):
        bank, scalars = thin_film_pair()
        frames = [
            ([120.0, 0.0, 55.0, 300.0], [256.0, 0.0, 128.0, 640.0]),
            ([80.0, 410.0, 0.0, 90.0], [128.0, 512.0, 0.0, 256.0]),
            ([260.0, 33.0, 500.0, 12.0], [384.0, 64.0, 1024.0, 32.0]),
        ]
        drive(bank, scalars, frames)
        for i, battery in enumerate(scalars):
            assert bank.delivered[i] == pytest.approx(
                battery.delivered_pj, rel=1e-12
            )
            assert bank.consumed[i] == pytest.approx(
                battery.consumed_pj, rel=1e-12
            )
            assert bool(bank.alive[i]) == battery.alive

    def test_deaths_land_on_the_same_draw_as_the_scalar_model(self):
        bank, scalars = thin_film_pair(count=1)
        battery = scalars[0]
        step = 0
        while battery.alive:
            step += 1
            requests = np.array([400.0])
            durations = np.array([64.0])
            _, died = bank.draw(requests, durations)
            result = battery.draw(400.0, 64.0)
            assert bool(died[0]) == result.died, f"step {step}"
        assert not bank.alive[0]

    def test_recharge_and_rest_match_scalar_cells(self):
        bank, scalars = thin_film_pair(count=2)
        drive(bank, scalars, [([500.0, 900.0], [256.0, 256.0])])
        accepted = bank.recharge(
            np.array([200.0, 5_000.0]), np.array([True, True])
        )
        for i, battery in enumerate(scalars):
            assert accepted[i] == pytest.approx(
                battery.recharge([200.0, 5_000.0][i]), rel=1e-12
            )
        bank.rest(4_096.0, np.array([True, True]))
        for battery in scalars:
            battery.rest(4_096.0)
        for i, battery in enumerate(scalars):
            assert bank.consumed[i] == pytest.approx(
                battery.consumed_pj, rel=1e-12
            )
            assert bank.ema[i] == pytest.approx(
                battery._ema_power, rel=1e-12
            )

    def test_draw_one_is_the_scalar_code_path(self):
        bank, scalars = thin_film_pair(count=2)
        reference = scalars[0]
        for energy, duration in ((150.0, 128.0), (90.0, 64.0), (0.0, 32.0)):
            delivered, died = bank.draw_one(0, energy, duration)
            theirs = reference.draw(energy, duration)
            assert type(delivered) is float and type(died) is bool
            assert delivered == theirs.delivered_pj
            assert bank.voltage_one(0) == theirs.voltage
            assert died == theirs.died
        assert bank.consumed_one(0) == reference.consumed_pj
        assert bank.soc_one(0) == reference.state_of_charge
        assert bank.voltage_one(0) == reference.voltage

    def test_dead_cell_scalar_draw_raises(self):
        bank, _ = thin_film_pair(count=1)
        bank.alive[0] = False
        with pytest.raises(BatteryError):
            bank.draw_one(0, 10.0, 16.0)

    def test_invalid_draw_arguments_rejected(self):
        bank, _ = thin_film_pair(count=1)
        with pytest.raises(ConfigurationError):
            bank.draw_one(0, -1.0, 16.0)
        with pytest.raises(ConfigurationError):
            bank.draw_one(0, 1.0, 0.0)


class TestIdealParity:
    def test_draw_and_recharge_match_scalar_cells(self):
        bank = IdealBatteryBank(3, capacity_pj=500.0)
        scalars = [IdealBattery(capacity_pj=500.0) for _ in range(3)]
        for requests in ([200.0, 0.0, 499.0], [200.0, 450.0, 100.0]):
            bank.draw(np.asarray(requests), np.full(3, 64.0))
            for battery, request in zip(scalars, requests):
                if battery.alive and request > 0.0:
                    battery.draw(request, 64.0)
        accepted = bank.recharge(
            np.array([50.0, 50.0, 50.0]), np.ones(3, dtype=bool)
        )
        for i, battery in enumerate(scalars):
            expected = battery.recharge(50.0) if battery.alive else 0.0
            assert accepted[i] == pytest.approx(expected, rel=1e-12)
            assert bank.delivered[i] == pytest.approx(
                battery.delivered_pj, rel=1e-12
            )
            assert bool(bank.alive[i]) == battery.alive

    def test_draw_one_is_the_scalar_code_path(self):
        bank = IdealBatteryBank(1, capacity_pj=500.0)
        reference = IdealBattery(capacity_pj=500.0)
        for energy in (200.0, 0.0, 450.0):
            theirs = reference.draw(energy, 64.0)
            assert bank.draw_one(0, energy, 64.0) == (
                theirs.delivered_pj,
                theirs.died,
            )
            assert bank.voltage_one(0) == reference.voltage
        assert not bank.alive[0]

    def test_exhaustion_delivers_the_remainder_and_dies(self):
        bank = IdealBatteryBank(1, capacity_pj=100.0)
        delivered, died = bank.draw(np.array([150.0]), np.array([32.0]))
        assert delivered[0] == pytest.approx(100.0)
        assert bool(died[0])
        assert not bank.alive[0]


class TestBankBuilder:
    def test_builder_respects_the_battery_model(self):
        thin = build_battery_bank(PlatformConfig(battery_model="thin-film"), 4)
        assert isinstance(thin, ThinFilmBatteryBank)
        ideal = build_battery_bank(PlatformConfig(battery_model="ideal"), 4)
        assert isinstance(ideal, IdealBatteryBank)

    def test_builder_applies_the_platform_capacity(self):
        platform = PlatformConfig(battery_capacity_pj=1234.0)
        bank = build_battery_bank(platform, 2)
        assert bank.capacity_pj == 1234.0
