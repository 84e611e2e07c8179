"""Unit tests for discharge profiles."""

import pytest

from repro.battery.profile import (
    CONSTANT_PROFILE,
    LI_FREE_THIN_FILM_PROFILE,
    DischargeProfile,
)
from repro.errors import ConfigurationError


class TestLiFreeProfile:
    def test_endpoints(self):
        profile = LI_FREE_THIN_FILM_PROFILE
        assert profile.voltage_at(0.0) == pytest.approx(4.17)
        assert profile.voltage_at(1.0) == pytest.approx(2.50)

    def test_monotone_non_increasing(self):
        profile = LI_FREE_THIN_FILM_PROFILE
        samples = [profile.voltage_at(i / 100) for i in range(101)]
        assert all(b <= a + 1e-12 for a, b in zip(samples, samples[1:]))

    def test_crosses_death_threshold_near_end(self):
        # The 3.0 V threshold must sit deep into the discharge so an
        # unloaded cell wastes little (paper Fig 2 shape).
        dod = LI_FREE_THIN_FILM_PROFILE.dod_at_voltage(3.0)
        assert 0.9 < dod < 1.0

    def test_plateau_region(self):
        # Mid-discharge voltage sits in the 3.4-3.8 V plateau.
        for dod in (0.3, 0.4, 0.5, 0.6):
            v = LI_FREE_THIN_FILM_PROFILE.voltage_at(dod)
            assert 3.4 < v < 3.8

    def test_clamping_outside_range(self):
        profile = LI_FREE_THIN_FILM_PROFILE
        assert profile.voltage_at(-0.5) == profile.full_voltage
        assert profile.voltage_at(1.5) == profile.empty_voltage


class TestInverseLookup:
    def test_round_trip(self):
        profile = LI_FREE_THIN_FILM_PROFILE
        for dod in (0.1, 0.35, 0.6, 0.9):
            voltage = profile.voltage_at(dod)
            assert profile.dod_at_voltage(voltage) == pytest.approx(
                dod, abs=1e-6
            )

    def test_above_full_voltage(self):
        assert LI_FREE_THIN_FILM_PROFILE.dod_at_voltage(5.0) == 0.0

    def test_below_empty_voltage(self):
        assert LI_FREE_THIN_FILM_PROFILE.dod_at_voltage(1.0) == 1.0

    def test_usable_fraction(self):
        # The fraction of the cell used up when it reads 3.0 V lies past
        # the 3.4-3.8 V plateau; at 4.5 V none of it is.
        profile = LI_FREE_THIN_FILM_PROFILE
        used = profile.dod_at_voltage(3.0)
        assert 0.6 < used < 1.0
        assert profile.voltage_at(used) == pytest.approx(3.0, abs=1e-6)
        assert profile.dod_at_voltage(4.5) == 0.0


class TestValidation:
    def test_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            DischargeProfile(points=((0.0, 3.6),))

    def test_must_span_zero_to_one(self):
        with pytest.raises(ConfigurationError):
            DischargeProfile(points=((0.1, 3.6), (1.0, 3.0)))
        with pytest.raises(ConfigurationError):
            DischargeProfile(points=((0.0, 3.6), (0.9, 3.0)))

    def test_dod_must_increase(self):
        with pytest.raises(ConfigurationError):
            DischargeProfile(
                points=((0.0, 3.6), (0.5, 3.5), (0.5, 3.4), (1.0, 3.0))
            )

    def test_voltage_must_not_increase(self):
        with pytest.raises(ConfigurationError):
            DischargeProfile(points=((0.0, 3.0), (1.0, 3.6)))

    def test_constant_profile_is_flat(self):
        assert CONSTANT_PROFILE.voltage_at(0.2) == CONSTANT_PROFILE.voltage_at(
            0.8
        )
