"""Quantised battery-level reporting.

The EAR weighting function consumes a *reported battery level*
``N_B(j)`` with ``0 <= N_B(j) < N_B`` (paper Sec 6) — an integer that the
node uploads to the central controller during its TDMA slot.  The
quantiser maps a battery's state of charge onto that integer scale.  A
change of level is what triggers both an upload and, at the controller,
a routing recomputation ("when the currently reported system information
differs from the previous one"); the engines quantise a whole frame's
cells at once with :meth:`BatteryLevelQuantizer.levels_of`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError

#: Default number of quantisation levels (3 bits of status payload).
DEFAULT_LEVELS = 8


class BatteryLevelQuantizer:
    """Maps state of charge onto ``levels`` discrete report values."""

    def __init__(self, levels: int = DEFAULT_LEVELS):
        if levels < 2:
            raise ConfigurationError(
                f"need at least 2 battery levels, got {levels}"
            )
        self._levels = int(levels)

    @property
    def levels(self) -> int:
        """The number of quantisation levels ``N_B``."""
        return self._levels

    @property
    def bits(self) -> int:
        """Bits needed to encode one level report."""
        return max(1, math.ceil(math.log2(self._levels)))

    def level_of_fraction(self, state_of_charge: float) -> int:
        """Quantise a state-of-charge fraction in [0, 1].

        A full battery reports ``levels - 1``; a dead or empty battery
        reports 0.  The mapping is ``floor(soc * levels)`` clamped to the
        valid range, so each level covers an equal SoC band.
        """
        if state_of_charge <= 0.0:
            return 0
        level = int(state_of_charge * self._levels)
        return min(self._levels - 1, level)

    def levels_of(
        self, state_of_charge: np.ndarray, alive: np.ndarray
    ) -> np.ndarray:
        """:meth:`level_of_fraction` over arrays of cells, 0 where a cell
        (or its node) is not alive."""
        levels = np.minimum(
            self._levels - 1, (state_of_charge * self._levels).astype(np.int64)
        )
        levels[(state_of_charge <= 0.0) | ~alive] = 0
        return levels
