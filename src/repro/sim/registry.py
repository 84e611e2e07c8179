"""First-class engine registry.

An explicit, extensible mapping from engine *names* to builders, the
one way :func:`~repro.sim.et_sim.run_simulation` (and through it the
sweep runner and the CLI) builds an engine: ``SimulationConfig.engine``
selects by name (``"auto"`` resolving to the workload's historical
engine), and unknown names fail with the full list of valid ones.

Builders import lazily so ``import repro.sim`` stays cheap and the
registry never forces NumPy-heavy modules on callers that only need
the sequential engine.
"""

from __future__ import annotations

from ..config import SimulationConfig
from ..errors import ConfigurationError


def _build_sequential(config: SimulationConfig, recorder=None):
    from .sequential_engine import SequentialEngine

    return SequentialEngine(config, recorder)


def _build_concurrent(config: SimulationConfig, recorder=None):
    from .concurrent_engine import ConcurrentEngine

    return ConcurrentEngine(config, recorder)


def _build_vector(config: SimulationConfig, recorder=None):
    from .vector_engine import VectorEngine

    return VectorEngine(config, recorder)


#: Engine name -> builder taking a :class:`SimulationConfig`.
ENGINE_REGISTRY = {
    "sequential": _build_sequential,
    "concurrent": _build_concurrent,
    "vector": _build_vector,
}


def build_engine(config: SimulationConfig, recorder=None):
    """Instantiate the engine ``config`` selects, via the registry.

    Resolves ``"auto"`` through
    :meth:`~repro.config.SimulationConfig.resolved_engine` and rejects
    unknown names with the list of registered ones.  ``recorder`` is an
    optional telemetry sink forwarded to the engine; None keeps the
    zero-overhead null recorder.
    """
    name = config.resolved_engine()
    try:
        builder = ENGINE_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: "
            f"{sorted(ENGINE_REGISTRY)}"
        ) from None
    return builder(config, recorder)
