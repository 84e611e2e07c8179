"""Phase 1 of EAR/SDR: interconnect weight matrices (paper Sec 6).

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .view import NetworkView

#: Default strengthening constant; calibrated so EAR lands in the
#: paper's 44.5-48.2 % band of the analytical bound (see EXPERIMENTS.md).
DEFAULT_Q = 1.6


# ----------------------------------------------------------------------
# Shared scale helper (the cost-pipeline primitive)
# ----------------------------------------------------------------------
def scale_weights(weights: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Scale a weight matrix elementwise and re-zero the diagonal.

    ``multipliers`` is either a dense per-link ``(K, K)`` matrix or a
    ``(1, K)`` row that scales column ``j`` — the receiving endpoint.
    ``inf`` entries stay ``inf`` (``inf * x == inf`` for positive
    multipliers) and the diagonal is re-zeroed, so the Floyd–Warshall
    conventions survive.  Returns a new matrix; the input is unchanged.
    """
    weights = weights * multipliers
    np.fill_diagonal(weights, 0.0)
    return weights


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


def _masked_lengths(view: NetworkView) -> np.ndarray:
    """Length matrix with rows/columns of dead nodes removed (set inf).

    A dead node can neither originate, relay, nor receive packets, so
    every interconnect touching it disappears from the graph.  Diagonal
    stays 0 (the Floyd–Warshall convention W_ii = 0).
    """
    weights = np.array(view.lengths, dtype=float, copy=True)
    dead = ~view.alive
    weights[dead, :] = np.inf
    weights[:, dead] = np.inf
    np.fill_diagonal(weights, 0.0)
    return weights


def sdr_weight_matrix(view: NetworkView) -> np.ndarray:
    """``W^(SDR)``: pure line lengths over the live subgraph."""
    return _masked_lengths(view)


def battery_scale(
    weights: np.ndarray,
    view: NetworkView,
    weight_function: BatteryWeightFunction,
) -> np.ndarray:
    """Scale column ``j`` (the receiving endpoint) by ``f(N_B(j))``."""
    if weight_function.levels != view.levels:
        raise ConfigurationError(
            f"weight function expects {weight_function.levels} levels but "
            f"the view reports {view.levels}"
        )
    # Battery levels are validated against the view, so no saturating
    # cap is needed here.
    multipliers = weight_function.table()[view.battery_levels]
    return scale_weights(weights, multipliers[np.newaxis, :])


def ear_weight_matrix(
    view: NetworkView, weight_function: BatteryWeightFunction
) -> np.ndarray:
    """``W^(EAR)``: lengths scaled by the receiver's battery weight."""
    return battery_scale(_masked_lengths(view), view, weight_function)
