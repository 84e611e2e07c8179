"""Unit tests for the ideal and thin-film battery models."""

import numpy as np
import pytest

from repro.battery.ideal import IdealBattery
from repro.battery.monitor import BatteryLevelQuantizer
from repro.battery.thin_film import ThinFilmBattery, ThinFilmParameters
from repro.errors import BatteryError, ConfigurationError


class TestIdealBattery:
    def test_initial_state(self):
        battery = IdealBattery(capacity_pj=1000.0)
        assert battery.alive
        assert battery.state_of_charge == 1.0
        assert battery.delivered_pj == 0.0

    def test_delivers_exactly_requested(self):
        battery = IdealBattery(capacity_pj=1000.0)
        result = battery.draw(300.0, 10)
        assert result.complete
        assert result.delivered_pj == 300.0
        assert battery.state_of_charge == pytest.approx(0.7)

    def test_dies_exactly_at_depletion(self):
        battery = IdealBattery(capacity_pj=100.0)
        result = battery.draw(100.0, 10)
        assert result.died
        assert not battery.alive
        assert battery.wasted_pj == pytest.approx(0.0, abs=1e-6)

    def test_final_draw_partially_delivered(self):
        battery = IdealBattery(capacity_pj=100.0)
        result = battery.draw(150.0, 10)
        assert result.died
        assert result.delivered_pj == pytest.approx(100.0)
        assert not result.complete

    def test_draw_after_death_is_a_bug(self):
        battery = IdealBattery(capacity_pj=10.0)
        battery.draw(10.0, 1)
        with pytest.raises(BatteryError):
            battery.draw(1.0, 1)

    def test_voltage_constant_until_death(self):
        battery = IdealBattery(capacity_pj=100.0, voltage=3.6)
        assert battery.voltage == 3.6
        battery.draw(50.0, 10)
        assert battery.voltage == 3.6
        battery.draw(50.0, 10)
        assert battery.voltage == 0.0

    def test_invalid_draws_rejected(self):
        battery = IdealBattery()
        with pytest.raises(ConfigurationError):
            battery.draw(-1.0, 10)
        with pytest.raises(ConfigurationError):
            battery.draw(1.0, 0)


class TestThinFilmBattery:
    def test_fresh_cell_voltage(self):
        battery = ThinFilmBattery()
        assert battery.voltage == pytest.approx(4.17)
        assert battery.alive

    def test_gentle_discharge_uses_most_of_the_cell(self):
        # Tiny, widely-spaced draws keep the smoothed current near zero,
        # so the cell should deliver >85 % of nominal before 3.0 V.
        battery = ThinFilmBattery(ThinFilmParameters(capacity_pj=10_000.0))
        while battery.alive:
            battery.draw(20.0, 50)
            battery.rest(20_000)
        assert battery.delivered_pj > 0.85 * 10_000.0

    def test_sustained_load_dies_early(self):
        # Back-to-back heavy draws raise the smoothed current, sag the
        # output voltage and kill the cell with energy stranded.
        battery = ThinFilmBattery(ThinFilmParameters(capacity_pj=10_000.0))
        while battery.alive:
            battery.draw(200.0, 15)
        assert battery.delivered_pj < 0.75 * 10_000.0
        assert battery.wasted_pj > 0.0

    def test_rate_penalty_consumes_extra_charge(self):
        battery = ThinFilmBattery()
        for _ in range(50):
            battery.draw(100.0, 10)
        assert battery.consumed_pj > battery.delivered_pj
        assert battery.loss_pj > 0.0

    def test_rest_relaxes_the_load_average(self):
        battery = ThinFilmBattery()
        for _ in range(20):
            battery.draw(150.0, 10)
        loaded = battery.voltage
        battery.rest(100_000)
        assert battery.voltage > loaded

    def test_death_is_permanent(self):
        battery = ThinFilmBattery(ThinFilmParameters(capacity_pj=2_000.0))
        while battery.alive:
            battery.draw(150.0, 10)
        battery.rest(1_000_000)  # long rest must not revive it
        assert not battery.alive
        assert battery.voltage == 0.0

    def test_allow_recovery_survives_voltage_dips(self):
        params = ThinFilmParameters(
            capacity_pj=10_000.0, allow_recovery=True
        )
        battery = ThinFilmBattery(params)
        # The same sustained load that kills the default cell early.
        for _ in range(25):
            if not battery.alive:
                break
            battery.draw(200.0, 15)
        # With recovery the cell survives the dip phase.
        assert battery.delivered_pj >= 4_000.0

    def test_zero_draw_is_free(self):
        battery = ThinFilmBattery()
        result = battery.draw(0.0, 10)
        assert result.delivered_pj == 0.0
        assert battery.consumed_pj == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ThinFilmParameters(capacity_pj=-1)
        with pytest.raises(ConfigurationError):
            ThinFilmParameters(cutoff_voltage=5.0)  # above fresh voltage
        with pytest.raises(ConfigurationError):
            ThinFilmParameters(ema_window_cycles=0)


class TestQuantizer:
    def test_full_battery_reports_top_level(self):
        quantizer = BatteryLevelQuantizer(levels=8)
        assert quantizer.level_of_fraction(1.0) == 7

    def test_empty_battery_reports_zero(self):
        quantizer = BatteryLevelQuantizer(levels=8)
        assert quantizer.level_of_fraction(0.0) == 0

    def test_equal_bands(self):
        quantizer = BatteryLevelQuantizer(levels=4)
        assert quantizer.level_of_fraction(0.10) == 0
        assert quantizer.level_of_fraction(0.30) == 1
        assert quantizer.level_of_fraction(0.60) == 2
        assert quantizer.level_of_fraction(0.90) == 3

    def test_dead_battery_reports_zero(self):
        quantizer = BatteryLevelQuantizer(levels=8)
        battery = IdealBattery(capacity_pj=10.0)
        battery.draw(10.0, 1)
        levels = quantizer.levels_of(
            np.array([battery.state_of_charge]), np.array([battery.alive])
        )
        assert levels.tolist() == [0]

    def test_bits(self):
        assert BatteryLevelQuantizer(levels=8).bits == 3
        assert BatteryLevelQuantizer(levels=16).bits == 4
        assert BatteryLevelQuantizer(levels=3).bits == 2

    def test_needs_two_levels(self):
        with pytest.raises(ConfigurationError):
            BatteryLevelQuantizer(levels=1)

    def test_negative_state_of_charge_clamps_to_zero(self):
        assert BatteryLevelQuantizer(levels=8).level_of_fraction(-0.5) == 0

    def test_overfull_fraction_clamps_to_top_level(self):
        assert BatteryLevelQuantizer(levels=8).level_of_fraction(1.5) == 7

    def test_levels_property_round_trips(self):
        assert BatteryLevelQuantizer(levels=6).levels == 6

    def test_two_levels_need_one_bit(self):
        assert BatteryLevelQuantizer(levels=2).bits == 1

    def test_alive_battery_reports_its_band(self):
        quantizer = BatteryLevelQuantizer(levels=4)
        battery = IdealBattery(capacity_pj=100.0)
        battery.draw(30.0, 10)  # 70 % -> level 2
        levels = quantizer.levels_of(
            np.array([battery.state_of_charge]), np.array([battery.alive])
        )
        assert levels.tolist() == [2]

    def test_array_levels_match_the_scalar_rule(self):
        quantizer = BatteryLevelQuantizer(levels=8)
        socs = [-0.5, 0.0, 1e-12, 0.124999, 0.125, 0.5, 0.999999, 1.0, 1.5]
        alive = [True] * len(socs)
        alive[5] = False  # a dead (or fault-killed) node reports 0
        levels = quantizer.levels_of(np.array(socs), np.array(alive))
        expected = [
            quantizer.level_of_fraction(soc) if up else 0
            for soc, up in zip(socs, alive)
        ]
        assert levels.tolist() == expected
