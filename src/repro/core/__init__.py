"""The paper's core contribution: the routing problem, EAR/SDR, Theorem 1.

Three-phase online routing (paper Sec 6):

1. **Phase 1** — assign a weight to every directed interconnect:
   ``W^(SDR) = L_ij`` for the shortest-distance baseline,
   ``W^(EAR) = f(N_B(j)) * L_ij`` for the energy-aware algorithm, where
   ``f`` is a decreasing function of the reported battery level.
2. **Phase 2** — shortest paths toward what the job walk asks for: one
   multi-source tree per module (rooted at its live duplicates) plus one
   rooted at the sink, grown together by a vectorised Bellman–Ford over
   a ``(K, p + 1)`` block (:mod:`repro.core.trees`).  The paper's
   all-pairs Floyd–Warshall (Fig 5) stays in
   :mod:`repro.core.floyd_warshall` as the test oracle.
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
from .floyd_warshall import (
    equal_cost_successors,
    extract_path,
    floyd_warshall_successors,
    reference_floyd_warshall,
)
from .parameters import ApplicationProfile
from .phase3 import EcmpSelector, RoutingPlan, select_destinations
from .trees import ShortestPathTrees, neighbor_table, shortest_path_trees
from .upper_bound import UpperBoundResult, optimize_duplicates, theorem1
from .view import NetworkView
from .weights import (
    BatteryWeightFunction,
    ear_weight_matrix,
    sdr_weight_matrix,
)

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
    "ear_weight_matrix",
    "equal_cost_successors",
    "extract_path",
    "floyd_warshall_successors",
    "neighbor_table",
    "optimize_duplicates",
    "reference_floyd_warshall",
    "routing_engine",
    "sdr_weight_matrix",
    "select_destinations",
    "shortest_path_trees",
    "theorem1",
]
