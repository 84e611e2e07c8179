"""The routing engine: EAR and SDR differ only in their cost pipeline.

"For a fair comparison, the proposed energy-aware routing strategy and
its non-energy-aware counterpart are kept exactly the same except their
routing algorithms" (paper Sec 5) — accordingly there is one
:class:`RoutingEngine`, and the two algorithms are two phase 1
:class:`~repro.core.costs.CostPipeline` values: the empty pipeline is
SDR, ``CostPipeline.ear(weight_function, channels)`` (the battery term
plus any level channels) is EAR.  Phases 2 and 3 are shared verbatim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .costs import CostPipeline
from .phase3 import EcmpSelector, RoutingPlan, select_destinations

# Phase 2 runs through this module-level name because the benchmark's
# ``shortest-paths`` span wraps ``repro.core.engines.floyd_warshall_successors``.
# It is the tree kernel; the dense Floyd–Warshall lives in the tests as
# the oracle the trees are pinned against.
from .trees import shortest_path_trees as floyd_warshall_successors
from .view import NetworkView


@dataclass
class RoutingEngine:
    """The online routing algorithm (paper Sec 6).

    Args:
        pipeline: The phase 1 cost pipeline (empty: SDR).
        ecmp_seed: Equal-cost multi-path round-robin seed; None
            disables the spreading, and every plan routes on the
            canonical hop table alone.
    """

    pipeline: CostPipeline = field(default_factory=CostPipeline)
    ecmp_seed: int | None = None

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
        weights = self.pipeline.weight_matrix(view, observer=term_observer)
        targets = view.targets()
        started = time.perf_counter() if timer is not None else 0.0
        trees = floyd_warshall_successors(weights, view.neighbors, targets)
        if timer is not None:
            timer("shortest-paths", time.perf_counter() - started)
        destinations, hops = select_destinations(view, trees)
        ecmp = None
        if self.ecmp_seed is not None:
            ecmp = EcmpSelector(
                trees=trees,
                destinations=destinations,
                blocked_ports=view.blocked_ports,
                seed=self.ecmp_seed,
            )
        return RoutingPlan(
            distances=trees.distances,
            destinations=destinations,
            hops=hops,
            view=view,
            ecmp=ecmp,
        )
