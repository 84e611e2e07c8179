"""et_sim's one-call entry point: build a configured platform and run it.

:func:`run_simulation` builds the engine ``config.engine`` selects
through the registry (:func:`~repro.sim.registry.build_engine`, where
``"auto"`` keeps the historical workload-kind mapping: the paper's main
experiments use the sequential engine, the deadlock experiments the
concurrent one), runs it to system death and checks every completed
job's ciphertext.  The examples, the benches and the CLI run through it.
"""

from __future__ import annotations

from ..config import SimulationConfig
from ..errors import SimulationError
from . import registry
from .stats import SimulationStats


def run_simulation(
    config: SimulationConfig, recorder=None
) -> SimulationStats:
    """Build a platform from ``config`` and run it to completion.

    ``recorder`` is an optional telemetry sink (see
    :mod:`repro.telemetry`); None keeps the zero-overhead null recorder.

    Raises:
        SimulationError: A completed job failed AES verification: the
            simulator corrupted data.
    """
    # Looked up on the module at call time, so a wrapper installed on
    # ``registry.build_engine`` after import sees every build.
    stats = registry.build_engine(config, recorder).run()
    if stats.verification_failures:
        raise SimulationError(
            f"{stats.verification_failures} completed jobs failed AES "
            "verification — the simulator corrupted data"
        )
    return stats
