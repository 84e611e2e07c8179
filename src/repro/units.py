"""Physical units and conversion helpers.

The library keeps all quantities in a fixed set of base units so that
numeric values can be combined without conversion mistakes:

========================  =======================================
Quantity                  Base unit
========================  =======================================
Energy                    picojoule (pJ)
Power                     milliwatt (mW) at model boundaries,
                          converted to pJ/cycle internally
Time                      clock cycle of the platform clock
Voltage                   volt (V)
Current                   milliampere (mA)
Length                    centimetre (cm)
========================  =======================================

The paper reports module energies in pJ, line energies in pJ per
bit-switch, controller power in mW at a 100 MHz clock, and battery
capacity in pJ, which makes this choice of base units the one with the
fewest conversions.
"""

from __future__ import annotations

from .errors import ConfigurationError

#: Default platform clock frequency used throughout the paper (Sec 5.1.1).
DEFAULT_CLOCK_HZ = 100_000_000.0

PJ_PER_J = 1e12
MW_PER_W = 1e3


def mw_to_pj_per_cycle(power_mw: float, clock_hz: float = DEFAULT_CLOCK_HZ) -> float:
    """Convert a power in milliwatts to energy per clock cycle in pJ.

    Example: the paper's 4x4 mesh controller consumes a dynamic power of
    6.94 mW at 100 MHz, i.e. ``mw_to_pj_per_cycle(6.94) == 69.4`` pJ per
    cycle.
    """
    if clock_hz <= 0:
        raise ConfigurationError(f"clock frequency must be positive, got {clock_hz}")
    watts = power_mw / MW_PER_W
    joules_per_cycle = watts / clock_hz
    return joules_per_cycle * PJ_PER_J


def require_positive(name: str, value: float) -> float:
    """Validate that ``value`` is strictly positive; return it unchanged."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is >= 0; return it unchanged."""
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")
    return value

