"""Parallel experiment orchestration for et_sim sweeps.

Every evaluation artifact of the paper — Fig 7 (mesh size x routing),
Fig 8 (mesh size x controller count), Table 2 (ideal-battery bounds) —
is a family of *independent* simulation runs, each fully described by a
:class:`~repro.config.SimulationConfig`.  This package turns that
independence into throughput:

* :class:`~repro.orchestration.runner.ParallelSweepRunner` fans sweep
  points out over a process pool with deterministic per-point seeding
  (records are bit-identical to a sequential run, whatever the worker
  count);
* :class:`~repro.orchestration.cache.SweepCache` memoises finished
  points by a content hash of their configuration, so repeated
  benchmark/CI invocations skip already-computed simulations;
* :mod:`~repro.orchestration.scenarios` is a registry that generates
  the paper's sweep grids — plus larger meshes, mixed workloads and
  battery ablations — at ``smoke``/``quick``/``full`` scales.
"""

from .cache import SweepCache, config_hash
from .runner import (
    ParallelSweepRunner,
    SequentialSweepRunner,
    SweepPoint,
    SweepRecord,
    SweepRunner,
    make_runner,
)
from .scenarios import (
    GOLDEN_QUICK_POINTS,
    GOLDEN_SMOKE_POINTS,
    build_scenario,
    controller_grid,
    derive_seed,
    mesh_routing_grid,
    scenario,
    scenario_names,
    scenarios,
)

__all__ = [
    "GOLDEN_QUICK_POINTS",
    "GOLDEN_SMOKE_POINTS",
    "ParallelSweepRunner",
    "SequentialSweepRunner",
    "SweepCache",
    "SweepPoint",
    "SweepRecord",
    "SweepRunner",
    "build_scenario",
    "config_hash",
    "controller_grid",
    "derive_seed",
    "make_runner",
    "mesh_routing_grid",
    "scenario",
    "scenario_names",
    "scenarios",
]
