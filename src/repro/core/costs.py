"""Composable routing cost pipeline.

The pipeline weighs the interconnects phase 2 relaxes and nothing
else: the ``(K, M)`` edge array laid out like the view's neighbour
table, entry ``[n, j]`` on the line from ``n`` to ``neighbors[n, j]``.
A :class:`CostTerm` is one multiplicative adjustment to that array, and
a :class:`CostPipeline` is an ordered composition of terms.  Every term
is a *scale* of the running array (never an addition), so ``inf`` for
severed, dead or padding edges survives each step by construction, and
terms whose multipliers do not depend on the running array commute up
to floating point rounding.  The pipeline applies terms in list order:
battery, then wear, then harvest, then congestion for the standard EAR
stack.

Beyond the paper's battery weight, every term is a :class:`LevelChannel`:
an engine-side estimator quantises a per-node or per-link signal into
levels, reports them to the controller only when a level changes (the
battery reports' trigger, paper Sec 5.3), and the channel scales the
receiving link by ``q ** (sign * level)``.  A channel self-gates on the
view: until its first report arrives it is simply inert, so one
pipeline instance serves every phase of a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import ConfigurationError
from .view import NetworkView
from .weights import BatteryWeightFunction


def _at_receivers(multipliers: np.ndarray, view: NetworkView) -> np.ndarray:
    """Per-node ``multipliers`` at every edge's receiving end.

    Indexes the neighbour table into the vector with a sentinel 1.0
    appended, so padding slots (value ``K``) are left unscaled.
    """
    return np.append(multipliers, 1.0)[view.neighbors]


@runtime_checkable
class CostTerm(Protocol):
    """One multiplicative adjustment to the ``(K, M)`` edge weights.

    Implementations must keep ``inf`` entries ``inf`` (severed lines,
    dead endpoints, padding) and must not mutate the input array.
    """

    #: Short identifier used in reprs and reports.
    name: str

    def applies(self, view: NetworkView) -> bool:
        """Whether this term has the telemetry it needs in ``view``."""
        ...

    def apply(self, weights: np.ndarray, view: NetworkView) -> np.ndarray:
        """Return the scaled edge weights (input left unchanged)."""
        ...


@dataclass(frozen=True)
class BatteryTerm:
    """The paper's battery scale: an edge into ``j`` grows by ``f(N_B(j))``.

    Unlike the level channels this term always applies — battery levels
    are mandatory in every :class:`NetworkView`.
    """

    function: BatteryWeightFunction = field(
        default_factory=BatteryWeightFunction
    )
    name: str = field(default="battery", init=False, repr=False)

    def applies(self, view: NetworkView) -> bool:
        return True

    def apply(self, weights: np.ndarray, view: NetworkView) -> np.ndarray:
        if self.function.levels != view.levels:
            raise ConfigurationError(
                f"weight function expects {self.function.levels} levels "
                f"but the view reports {view.levels}"
            )
        # Battery levels are validated against the view, so no saturating
        # cap is needed here.
        multipliers = self.function.table()[view.battery_levels]
        return weights * _at_receivers(multipliers, view)


@dataclass(frozen=True)
class LevelChannel:
    """One level-telemetry cost term and its multiplier table.

    The multiplier is ``m(l) = q ** (sign * min(l, levels - 1))``, where
    ``l`` is a quantised level the engine's estimator reports for every
    node (``keyed="node"``: edges into ``j``, the receiver, are scaled)
    or every link (``keyed="link"``).  Level 0 is unweighted, the factor
    saturates at the level cap like battery levels, and ``q == 1`` is
    *neutral*: the signal is tracked but never reported, so the run
    routes exactly like reactive EAR.

    Args:
        name: Term name in the pipeline and in trace attribution.
        signal: The measured quantity; names the re-plan cause
            (``<signal>-level``) and the trace probe (``<signal>_levels``).
        keyed: ``"node"`` or ``"link"``.
        q: Base of the multiplier (>= 1).
        quantum: Raw signal per level (> 0).
        levels: Level cap (>= 1).
        sign: ``+1`` penalises high levels, ``-1`` rewards them.
        rich_band: Node channels only — apply the factor only to
            receivers reporting a battery level within this many levels
            of full (None: ungated).
    """

    name: str
    signal: str
    keyed: str
    q: float
    quantum: float
    levels: int = 8
    sign: int = 1
    rich_band: int | None = None

    def __post_init__(self) -> None:
        if self.keyed not in ("node", "link"):
            raise ConfigurationError(
                f"{self.name} channel must be keyed 'node' or 'link', "
                f"got {self.keyed!r}"
            )
        if self.q < 1.0:
            raise ConfigurationError(
                f"{self.name} weight base must be >= 1, got {self.q}"
            )
        if self.quantum <= 0:
            raise ConfigurationError(
                f"{self.name} quantum must be positive, got {self.quantum}"
            )
        if self.levels < 1:
            raise ConfigurationError(
                f"{self.name} levels must be >= 1, got {self.levels}"
            )
        if self.sign not in (1, -1):
            raise ConfigurationError(
                f"{self.name} sign must be +1 or -1, got {self.sign}"
            )
        if self.rich_band is not None and self.keyed != "node":
            raise ConfigurationError(
                f"{self.name}: only node channels can gate on battery level"
            )

    @property
    def is_neutral(self) -> bool:
        """True when the channel cannot change any weight."""
        return self.q == 1.0

    def __call__(self, level: int) -> float:
        """Weight multiplier at ``level``."""
        if level < 0:
            raise ConfigurationError(
                f"{self.signal} level must be >= 0, got {level}"
            )
        return self.q ** (self.sign * min(level, self.levels - 1))

    def table(self) -> np.ndarray:
        """Vector of multipliers indexed by level."""
        return np.array([self(level) for level in range(self.levels)])

    # -- CostTerm ------------------------------------------------------
    def applies(self, view: NetworkView) -> bool:
        return self.name in view.channel_levels

    def apply(self, weights: np.ndarray, view: NetworkView) -> np.ndarray:
        # Link levels arrive laid out like the neighbour table, node
        # levels as one per node.
        levels = view.channel_levels[self.name]
        # Reported levels beyond the cap saturate at the table's end.
        multipliers = self.table()[np.minimum(levels, self.levels - 1)]
        if self.keyed == "node":
            if self.rich_band is not None:
                rich = view.battery_levels >= view.levels - self.rich_band
                multipliers = np.where(rich, multipliers, 1.0)
            multipliers = _at_receivers(multipliers, view)
        return weights * multipliers


#: Wear prediction: a link's level is its traversal count in units of
#: ``quantum`` plus one level per degradation event it has suffered, so
#: EAR drifts traffic off heavily-used or previously-degraded lines
#: *before* they sever.  One level looks 10 % longer — deliberately
#: gentler than the battery weight: wear is a *prediction* of failure,
#: not a measured depletion, and an aggressive penalty would fight the
#: battery balancing it rides on.  Calibrated on the wear-aware
#: scenario's attrition grid so the wear weight never shortens lifetime.
WEAR_CHANNEL = LevelChannel(
    name="wear", signal="wear", keyed="link", q=1.1, quantum=96
)

#: Harvest income: a node's level is its smoothed accepted income
#: (pJ/frame) in units of ``quantum``.  One level looks ~23 % *closer* —
#: but only while the receiver still reports a battery level within two
#: levels of full (the top quarter of the default 8-level scale).  A
#: nearly-full harvesting cell rejects income for lack of headroom, so
#: pulling traffic onto it converts otherwise-wasted income into
#: delivered work; below the band the node needs the battery weight's
#: protection instead (income of tens of pJ per frame cannot carry
#: relay duty, and an unconditional bonus measurably shortens lifetime
#: by overloading flexing nodes at end of life).  Calibrated on the
#: harvest-aware scenario grid so the harvest weight gains jobs there.
HARVEST_CHANNEL = LevelChannel(
    name="harvest",
    signal="income",
    keyed="node",
    q=1.3,
    quantum=5.0,
    sign=-1,
    rich_band=2,
)

#: Congestion: a link's level is its smoothed per-frame traversal count
#: in units of ``quantum`` — one job on a small mesh crosses a
#: source-adjacent line a handful of times per frame, so whole-number
#: steps separate the hot corridor from the idle periphery.  One level
#: looks 25 % longer: stronger than wear, because congestion is a
#: *measured* utilisation and the penalty must overcome the battery
#: weight's pull toward the short central corridors for ECMP spreading
#: to engage.  Calibrated on the congestion-relief grid so the hottest
#: link's traffic share drops without shortening lifetime.
CONGESTION_CHANNEL = LevelChannel(
    name="congestion", signal="load", keyed="link", q=1.25, quantum=2.0
)


@dataclass(frozen=True)
class CostPipeline:
    """Ordered composition of cost terms over the live edge lengths.

    The empty pipeline is exactly SDR: the weights are the live
    subgraph's line lengths.  ``CostPipeline.ear(...)`` builds the EAR
    composition: the battery term, then the given level channels in
    order.
    """

    terms: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def ear(
        cls,
        weight_function: BatteryWeightFunction | None = None,
        channels: tuple[LevelChannel, ...] = (),
    ) -> "CostPipeline":
        """The standard EAR pipeline: battery, then each channel."""
        battery = BatteryTerm(
            weight_function
            if weight_function is not None
            else BatteryWeightFunction()
        )
        return cls(terms=(battery, *channels))

    # Returns edge weights under this name because the benchmark's
    # ``cost-pipeline`` span wraps ``CostPipeline.weight_matrix``.
    def weight_matrix(self, view: NetworkView, observer=None) -> np.ndarray:
        """Phase 1: compose all applicable terms over the live edges.

        Returns the ``(K, M)`` edge weights, entry ``[n, j]`` on the
        interconnect from ``n`` to ``view.neighbors[n, j]``.  The seed
        is the view's edge lengths with ``inf`` wherever either
        endpoint is dead: a dead node can neither originate, relay nor
        receive packets.

        ``observer`` is an optional telemetry callback invoked once per
        *applied* term with ``(name, before, after)`` — the running
        edge weights on either side of the term — so a trace can
        attribute a re-plan's weight changes to individual cost terms.
        The composition itself is untouched by it.
        """
        # The padding value K indexes a sentinel False appended to alive.
        alive = np.append(view.alive, False)
        weights = np.where(
            view.alive[:, np.newaxis] & alive[view.neighbors],
            view.edge_lengths,
            np.inf,
        )
        for term in self.terms:
            if term.applies(view):
                scaled = term.apply(weights, view)
                if observer is not None:
                    observer(term.name, weights, scaled)
                weights = scaled
        return weights

    def term(self, name: str) -> CostTerm | None:
        """First term with the given name, or None."""
        for term in self.terms:
            if term.name == name:
                return term
        return None

    def __repr__(self) -> str:
        names = "+".join(term.name for term in self.terms) or "sdr"
        return f"CostPipeline({names})"
