"""Unit tests for units and the exception hierarchy."""

import pytest

from repro.errors import (
    BatteryError,
    ConfigurationError,
    DeadNodeError,
    MappingError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
    UnreachableModuleError,
)
from repro.units import (
    DEFAULT_CLOCK_HZ,
    mw_to_pj_per_cycle,
    require_non_negative,
    require_positive,
)


class TestUnits:
    def test_paper_controller_power_conversion(self):
        # 6.94 mW at 100 MHz = 69.4 pJ per cycle (paper Sec 7.3).
        assert mw_to_pj_per_cycle(6.94) == pytest.approx(69.4)

    def test_default_clock(self):
        assert DEFAULT_CLOCK_HZ == 100e6

    def test_validators(self):
        assert require_positive("x", 1.0) == 1.0
        assert require_non_negative("x", 0.0) == 0.0
        with pytest.raises(ConfigurationError):
            require_positive("x", 0.0)
        with pytest.raises(ConfigurationError):
            require_non_negative("x", -1.0)


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc_type in (
            ConfigurationError,
            TopologyError,
            MappingError,
            RoutingError,
            BatteryError,
            SimulationError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)

    def test_unreachable_module_carries_context(self):
        error = UnreachableModuleError(2, origin=7)
        assert error.module == 2
        assert error.origin == 7
        assert "module 2" in str(error)
        assert isinstance(error, RoutingError)

    def test_dead_node_error_message(self):
        error = DeadNodeError(3, "transmit")
        assert "node 3" in str(error)
        assert "transmit" in str(error)
