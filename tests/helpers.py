"""Plain-function helpers shared across the test suite.

Kept out of ``conftest.py`` so test modules can import them normally
(``from helpers import make_view``) instead of reaching into pytest's
conftest machinery with relative imports, which breaks collection when
the test tree is not a package.  The ``tests`` directory is on
``pythonpath`` via ``pyproject.toml``.
"""

from __future__ import annotations

import numpy as np

from repro.config import (
    ControlConfig,
    PlatformConfig,
    RoutingOptions,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.trees import line_slots
from repro.core.view import NetworkView
from repro.faults import FaultConfig
from repro.harvest import HarvestConfig


def make_view(
    topology,
    mapping,
    alive=None,
    levels_vector=None,
    levels: int = 8,
    blocked=frozenset(),
    sink=None,
):
    """Helper for tests that need custom views."""
    size = topology.num_nodes
    alive_vec = (
        np.ones(size, dtype=bool) if alive is None else np.asarray(alive)
    )
    level_vec = (
        np.full(size, levels - 1, dtype=int)
        if levels_vector is None
        else np.asarray(levels_vector)
    )
    neighbors, lengths = line_slots(topology)
    return NetworkView(
        neighbors=neighbors,
        edge_lengths=lengths,
        alive=alive_vec,
        battery_levels=level_vec,
        levels=levels,
        mapping=mapping,
        blocked_ports=blocked,
        sink=sink,
    )


def make_config(
    mesh_width: int = 4,
    routing: str = "ear",
    battery: str = "thin-film",
    kind: str = "sequential",
    concurrency: int = 1,
    buffers: int | None = None,
    recovery: bool = True,
    fault_profile: str | None = None,
    fault_seed: int = 0,
    fault_intensity: float = 1.0,
    control: ControlConfig | None = None,
    faults: FaultConfig | None = None,
    wear_aware: bool = False,
    harvest: HarvestConfig | None = None,
    harvest_aware: bool = False,
    routing_opts: RoutingOptions | None = None,
    engine: str = "auto",
    **workload_kwargs,
) -> SimulationConfig:
    """One configuration builder for every engine-driving test.

    Sequential, concurrent and fault-bearing setups all route through
    here so integration, property and fault tests exercise identically
    constructed platforms.  ``workload_kwargs`` pass straight to
    :class:`~repro.config.WorkloadConfig` (``max_jobs``, ``seed``, ...).
    """
    platform_kwargs: dict = {
        "mesh_width": mesh_width,
        "battery_model": battery,
    }
    if buffers is not None:
        platform_kwargs["node_buffer_packets"] = buffers
    if faults is None:
        faults = (
            FaultConfig()
            if fault_profile is None
            else FaultConfig(
                profile=fault_profile,
                seed=fault_seed,
                intensity=fault_intensity,
            )
        )
    return SimulationConfig(
        platform=PlatformConfig(**platform_kwargs),
        control=control if control is not None else ControlConfig(),
        workload=WorkloadConfig(
            kind=kind,
            concurrency=concurrency,
            deadlock_recovery=recovery,
            **workload_kwargs,
        ),
        faults=faults,
        harvest=harvest if harvest is not None else HarvestConfig(),
        routing=routing,
        wear_aware=wear_aware,
        harvest_aware=harvest_aware,
        routing_opts=(
            routing_opts if routing_opts is not None else RoutingOptions()
        ),
        engine=engine,
    )


def build_engine(config: SimulationConfig):
    """The engine ``config`` selects (via the registry), built but not
    run — for tests that poke at engine internals."""
    from repro.sim.et_sim import EtSim

    return EtSim(config).build_engine()
