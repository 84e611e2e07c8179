#!/usr/bin/env python
"""Using the routing core on a custom fabric and a custom application.

The paper stresses that "the methodology and theoretical results
presented here apply to any e-textile distributed system".  This example
exercises exactly that generality **without the mesh defaults**:

* a hand-woven, irregular fabric (a sleeve strip with a branch),
* a custom 2-module application profile (a sense->compress pipeline
  instead of AES),
* Theorem 1 evaluated for that application,
* the EAR engine driven directly through its three phases, showing how
  routing decisions change as batteries are reported lower.

Run:  python examples/custom_topology_app.py
"""

import numpy as np

from repro import ApplicationProfile, EnergyAwareRouting, theorem1
from repro.core.trees import line_slots
from repro.core.view import NetworkView
from repro.core.weights import BatteryWeightFunction
from repro.mesh.mapping import ModuleMapping
from repro.mesh.topology import Topology


def build_sleeve() -> Topology:
    """A sleeve strip 0-1-2-3-4-5 with a branch 2-6-7 (8 nodes).

    Long lines along the sleeve (4 cm), short lines on the branch (1 cm).
    """
    sleeve = Topology(8, name="sleeve-with-branch")
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)):
        sleeve.add_edge(u, v, 4.0)
    sleeve.add_edge(2, 6, 1.0)
    sleeve.add_edge(6, 7, 1.0)
    return sleeve


def main() -> None:
    sleeve = build_sleeve()
    # Module 1 = sensing front-ends, module 2 = compressors.
    mapping = ModuleMapping(
        {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1, 7: 2},
        num_modules=2,
    )
    profile = ApplicationProfile(
        name="sense-compress",
        operations={1: 4, 2: 2},                  # f_i per job
        computation_energy_pj={1: 90.0, 2: 210.0},
        communication_energy_pj={1: 150.0, 2: 150.0},
    )

    bound = theorem1(profile, battery_budget_pj=60_000.0, node_budget=8)
    print("=== Custom fabric: sleeve strip with a branch ===\n")
    print(f"application: {profile.name}, H_i = "
          + ", ".join(
              f"H{m}={profile.normalized_energy(m):.0f} pJ"
              for m in profile.modules
          ))
    print(
        f"Theorem 1: J* = {bound.jobs:.1f} jobs; optimal duplicates "
        + ", ".join(
            f"n{m}*={n:.2f}" for m, n in bound.optimal_duplicates.items()
        )
    )

    engine = EnergyAwareRouting(BatteryWeightFunction(q=1.8, levels=8))
    # The fabric's neighbour table and line lengths, built once.
    neighbors, lengths = line_slots(sleeve)

    def plan_for(levels: list[int]):
        view = NetworkView(
            neighbors=neighbors,
            edge_lengths=lengths,
            alive=np.ones(8, dtype=bool),
            battery_levels=np.array(levels),
            levels=8,
            mapping=mapping,
        )
        return engine.compute_plan(view)

    fresh = plan_for([7] * 8)
    print("\nAll batteries full:")
    print(f"  node 4 sends compression jobs to node "
          f"{fresh.destination(4, 2)} "
          f"(path {fresh.path_to_module(4, 2)})")

    # Node 3's battery runs low: node 4 has a genuine alternative (the
    # equally-distant compressor at node 5), and EAR must take it.
    drained = plan_for([7, 7, 7, 0, 7, 7, 7, 7])
    dest = drained.destination(4, 2)
    path = drained.path_to_module(4, 2)
    print("\nNode 3 reports an empty battery:")
    print(f"  node 4 now sends compression jobs to node {dest} "
          f"(path {path})")
    assert dest != 3, "EAR should have avoided the depleted compressor"
    print("  -> EAR shifted the load to the charged duplicate.")

    # At a fabric end-point there may be no alternative at all: node 0's
    # only neighbour is node 1, so if node 1 drains, EAR can only keep
    # the single feasible path (and the controller's view shows why).
    endpoint = plan_for([7, 0, 7, 7, 7, 7, 7, 7])
    path = endpoint.path_to_module(0, 2)
    print("\nNode 1 (node 0's only neighbour) reports empty:")
    print(f"  node 0 still routes via {path} — a physical bottleneck no "
          "routing policy can avoid.")


if __name__ == "__main__":
    main()
