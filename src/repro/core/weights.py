"""Phase 1 of EAR/SDR: the battery weighting function (paper Sec 6).

SDR weighs each directed interconnect by its physical length ``L_ij``.
EAR multiplies the length by a decreasing function of the *receiving*
node's reported battery level:

    W_ij^(EAR) = f(N_B(j)) * L_ij

so paths through energy-depleted nodes look long, and traffic drifts
toward well-charged regions.  The paper's weighting function is

    f(n) = Q^(2 * (N_B - 1 - n)),   Q > 0,

equal to 1 for a full battery and growing geometrically as the level
drops ("Q ... a constant to strengthen the impact of the battery
information").  The printed formula in the DATE'05 PDF is typeset
ambiguously; this reconstruction is monotone, equals unity at full
charge, and reproduces the paper's qualitative behaviour — it is kept
pluggable, and the weighting ablation bench sweeps ``Q``.

:class:`~repro.core.costs.BatteryTerm` applies ``f`` to the
``(K, M)`` edge array the cost pipeline weighs; the dense ``K x K``
weight matrices live in the tests as the oracle the pipeline is pinned
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

#: Default strengthening constant; calibrated so EAR lands in the
#: paper's 44.5-48.2 % band of the analytical bound (see EXPERIMENTS.md).
DEFAULT_Q = 1.6


@dataclass(frozen=True)
class BatteryWeightFunction:
    """The paper's ``f(n) = Q^(2*(N_B - 1 - n))`` weighting function.

    Args:
        q: Strengthening constant ``Q`` (> 0; values > 1 make depleted
            nodes expensive, ``q == 1`` degenerates EAR into SDR).
        levels: Number of battery levels ``N_B``.
    """

    q: float = DEFAULT_Q
    levels: int = 8

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise ConfigurationError(f"Q must be positive, got {self.q}")
        if self.levels < 1:
            raise ConfigurationError(
                f"levels must be >= 1, got {self.levels}"
            )

    def __call__(self, level: int) -> float:
        """Weight multiplier for a node reporting battery ``level``."""
        if not 0 <= level < self.levels:
            raise ConfigurationError(
                f"battery level {level} outside 0..{self.levels - 1}"
            )
        return self.q ** (2 * (self.levels - 1 - level))

    def table(self) -> np.ndarray:
        """Vector of multipliers indexed by level (used for vectorising)."""
        return np.array([self(level) for level in range(self.levels)])
