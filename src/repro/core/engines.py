"""The EAR and SDR routing engines.

"For a fair comparison, the proposed energy-aware routing strategy and
its non-energy-aware counterpart are kept exactly the same except their
routing algorithms" (paper Sec 5) — accordingly both engines share
phases 2 and 3 verbatim and differ *only* in the phase 1 edge weights,
which both obtain from a :class:`~repro.core.costs.CostPipeline` (empty
for SDR; the battery term plus any level channels for EAR).
"""

from __future__ import annotations

import abc
import time

import numpy as np

from ..errors import ConfigurationError
from .costs import CostPipeline, LevelChannel
from .phase3 import EcmpSelector, RoutingPlan, select_destinations

# Phase 2 runs through this module-level name because the benchmark's
# ``shortest-paths`` span wraps ``repro.core.engines.floyd_warshall_successors``.
# It is the tree kernel; the dense Floyd–Warshall lives in the tests as
# the oracle the trees are pinned against.
from .trees import shortest_path_trees as floyd_warshall_successors
from .view import NetworkView
from .weights import BatteryWeightFunction


class RoutingEngine(abc.ABC):
    """Base class of the online routing algorithms (paper Sec 6)."""

    #: Short identifier used in configs, reports, and the CLI.
    name: str = "abstract"

    #: ECMP round-robin seed; None disables equal-cost spreading and
    #: every plan routes on the canonical hop table alone.
    _ecmp_seed: int | None = None

    @property
    @abc.abstractmethod
    def pipeline(self) -> CostPipeline:
        """The phase 1 cost pipeline producing the edge weights."""

    def weight_matrix(
        self, view: NetworkView, observer=None
    ) -> np.ndarray:
        """Phase 1: the ``(K, M)`` weights of the directed interconnects.

        ``observer`` is the optional per-term telemetry callback of
        :meth:`~repro.core.costs.CostPipeline.weight_matrix`.
        """
        return self.pipeline.weight_matrix(view, observer=observer)

    def configure_ecmp(self, seed: int | None) -> None:
        """Enable (seeded) or disable equal-cost multi-path spreading."""
        self._ecmp_seed = None if seed is None else int(seed)

    def compute_plan(
        self,
        view: NetworkView,
        term_observer=None,
        timer=None,
    ) -> RoutingPlan:
        """Run all three phases and return the routing plan.

        ``term_observer`` forwards to the cost pipeline (per-term
        weight attribution); ``timer`` is an optional
        ``(name, seconds)`` callback wrapping the ``shortest-paths``
        phase — phase 2 dominates the recompute cost and is the hot
        path a trace wants isolated.
        """
        weights = self.weight_matrix(view, observer=term_observer)
        targets = view.targets()
        if timer is not None:
            started = time.perf_counter()
            trees = floyd_warshall_successors(weights, view.neighbors, targets)
            timer("shortest-paths", time.perf_counter() - started)
        else:
            trees = floyd_warshall_successors(weights, view.neighbors, targets)
        destinations, hops = select_destinations(view, trees)
        ecmp = None
        if self._ecmp_seed is not None:
            ecmp = EcmpSelector(
                trees=trees,
                destinations=destinations,
                blocked_ports=view.blocked_ports,
                seed=self._ecmp_seed,
            )
        return RoutingPlan(
            distances=trees.distances,
            destinations=destinations,
            hops=hops,
            view=view,
            ecmp=ecmp,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ShortestDistanceRouting(RoutingEngine):
    """SDR: the non-energy-aware baseline (weights = line lengths).

    The empty cost pipeline: no term touches the live edge lengths.
    """

    name = "sdr"

    def __init__(self) -> None:
        self._pipeline = CostPipeline()

    @property
    def pipeline(self) -> CostPipeline:
        return self._pipeline


class EnergyAwareRouting(RoutingEngine):
    """EAR: lengths scaled by the receiver's battery weight ``f(N_B(j))``.

    The standard EAR pipeline is the battery term followed by the given
    :class:`~repro.core.costs.LevelChannel` terms (wear, harvest,
    congestion), each inert until the view carries its levels.  A fully
    custom :class:`~repro.core.costs.CostPipeline` may be passed
    instead.
    """

    name = "ear"

    def __init__(
        self,
        weight_function: BatteryWeightFunction | None = None,
        channels: tuple[LevelChannel, ...] = (),
        pipeline: CostPipeline | None = None,
    ):
        if pipeline is None:
            pipeline = CostPipeline.ear(weight_function, channels)
        self._pipeline = pipeline

    @property
    def pipeline(self) -> CostPipeline:
        return self._pipeline

    @property
    def weight_function(self) -> BatteryWeightFunction:
        """The battery weighting function ``f`` in use."""
        term = self._pipeline.term("battery")
        if term is None:
            raise ConfigurationError(
                "EAR pipeline has no battery term"
            )
        return term.function

    def __repr__(self) -> str:
        wf = self.weight_function
        parts = [f"q={wf.q}", f"levels={wf.levels}"]
        parts += [
            f"{term.name}_q={term.q}"
            for term in self._pipeline.terms
            if isinstance(term, LevelChannel)
        ]
        return f"EnergyAwareRouting({', '.join(parts)})"


def routing_engine(
    name: str,
    weight_function: BatteryWeightFunction | None = None,
    channels: tuple[LevelChannel, ...] = (),
) -> RoutingEngine:
    """Factory by short name (``"ear"`` or ``"sdr"``)."""
    normalized = name.strip().lower()
    if normalized == "ear":
        return EnergyAwareRouting(weight_function, channels)
    if normalized == "sdr":
        return ShortestDistanceRouting()
    raise ConfigurationError(
        f"unknown routing engine {name!r}; expected 'ear' or 'sdr'"
    )
