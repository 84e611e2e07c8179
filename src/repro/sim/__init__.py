"""et_sim — the cycle-granularity e-textile network simulator.

This is the reproduction of the paper's by-product simulator (Sec 7):
"A cycle-accurate network simulator, et_sim, was implemented. et_sim
supports, in default mode, any 2D mesh network with the mapping technique
described in Sec 5.2."

Three engines share all platform models (batteries in one
struct-of-arrays bank, lines, TDMA control, routing):

* :class:`~repro.sim.sequential_engine.SequentialEngine` — exact engine
  for the paper's main workload, where "a new job is launched when the
  previous one is completed ... no buffering at nodes is needed"
  (Sec 7.1).
* :class:`~repro.sim.concurrent_engine.ConcurrentEngine` — slot-stepped
  engine with finite buffers, link contention and the deadlock-recovery
  protocol, used for the multi-job experiments.
* :class:`~repro.sim.vector_engine.VectorEngine` — sequential-workload
  semantics with every in-frame draw merged into one vectorised draw
  per cell and frame: a little faster on large fabrics, not bit-exact.

Engines are selected by name through
:data:`~repro.sim.registry.ENGINE_REGISTRY`
(``SimulationConfig.engine``, ``"auto"`` resolving to the workload's
historical engine).  :func:`~repro.sim.registry.build_engine` builds
the engine a :class:`~repro.config.SimulationConfig` selects, and
:func:`~repro.sim.et_sim.run_simulation` builds it, runs it to system
death and checks every completed job's ciphertext.
"""

from .et_sim import run_simulation
from .job import Job
from .registry import ENGINE_REGISTRY, build_engine
from .stats import EnergyLedger, NodeStats, SimulationStats
from .workload import JobFactory

__all__ = [
    "ENGINE_REGISTRY",
    "EnergyLedger",
    "Job",
    "JobFactory",
    "NodeStats",
    "SimulationStats",
    "build_engine",
    "run_simulation",
]
