"""The paper's core contribution: the routing problem, EAR/SDR, Theorem 1.

Three-phase online routing (paper Sec 6):

1. **Phase 1** — assign a weight to every directed interconnect:
   ``W^(SDR) = L_ij`` for the shortest-distance baseline,
   ``W^(EAR) = f(N_B(j)) * L_ij`` for the energy-aware algorithm, where
   ``f`` is a decreasing function of the reported battery level.  The
   :class:`~repro.core.costs.CostPipeline` weighs only the lines that
   exist: a ``(K, M)`` array laid out like the neighbour table.
2. **Phase 2** — shortest paths toward what the job walk asks for: one
   multi-source tree per module (rooted at its live duplicates) plus one
   rooted at the sink, grown together by a vectorised Bellman–Ford over
   a ``(K, p + 1)`` block (:mod:`repro.core.trees`).  The paper's
   all-pairs Floyd–Warshall (Fig 5), the literal Fig 6 walk and the
   dense ``K x K`` weight matrices live in the tests as the oracles the
   package is pinned against.
3. **Phase 3** — pick, for every node and every module type, the
   duplicate with the least (weighted) distance and the next hop toward
   it, avoiding ports that are currently deadlocked (paper Fig 6).

The analytical side (paper Sec 4) is :mod:`repro.core.upper_bound`:
Theorem 1's closed-form bound ``J* = B*K / sum(H_i)`` and optimal
replication ``n_i* = K * H_i / sum(H)``, cross-checked by a brute-force
optimiser of the underlying max-min program.
"""

from .costs import (
    CONGESTION_CHANNEL,
    HARVEST_CHANNEL,
    WEAR_CHANNEL,
    BatteryTerm,
    CostPipeline,
    CostTerm,
    LevelChannel,
)
from .engines import (
    EnergyAwareRouting,
    RoutingEngine,
    ShortestDistanceRouting,
    routing_engine,
)
from .parameters import ApplicationProfile
from .phase3 import EcmpSelector, RoutingPlan, select_destinations
from .trees import ShortestPathTrees, line_slots, shortest_path_trees
from .upper_bound import UpperBoundResult, optimize_duplicates, theorem1
from .view import NetworkView
from .weights import BatteryWeightFunction

__all__ = [
    "CONGESTION_CHANNEL",
    "HARVEST_CHANNEL",
    "WEAR_CHANNEL",
    "ApplicationProfile",
    "BatteryTerm",
    "BatteryWeightFunction",
    "CostPipeline",
    "CostTerm",
    "EcmpSelector",
    "EnergyAwareRouting",
    "LevelChannel",
    "NetworkView",
    "RoutingEngine",
    "RoutingPlan",
    "ShortestDistanceRouting",
    "ShortestPathTrees",
    "UpperBoundResult",
    "line_slots",
    "optimize_duplicates",
    "routing_engine",
    "select_destinations",
    "shortest_path_trees",
    "theorem1",
]
