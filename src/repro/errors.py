"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from runtime
simulation failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A configuration value is missing, inconsistent, or out of range."""


class TopologyError(ReproError):
    """The network topology is malformed (unknown node, bad edge, ...)."""


class MappingError(ReproError):
    """A module-to-node mapping is invalid for the given topology."""


class RoutingError(ReproError):
    """A routing engine could not produce a usable routing plan."""


class UnreachableModuleError(RoutingError):
    """No live duplicate of a required module type is reachable.

    In the paper's terminology the *critical nodes* are dead: raising this
    error is how the routing layer signals system death to the simulator.
    """

    def __init__(self, module: int, origin: int | None = None):
        self.module = module
        self.origin = origin
        where = f" from node {origin}" if origin is not None else ""
        super().__init__(
            f"no live, reachable duplicate of module {module}{where}"
        )


class BatteryError(ReproError):
    """A battery model was used inconsistently (e.g. drawing from a dead cell)."""


class DeadNodeError(ReproError):
    """An operation was attempted on a node whose battery is depleted."""

    def __init__(self, node: int, action: str = "operate"):
        self.node = node
        self.action = action
        super().__init__(f"node {node} is dead and cannot {action}")


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class CalibrationError(ReproError):
    """A calibration routine could not match its target values."""
