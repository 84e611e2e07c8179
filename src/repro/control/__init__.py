"""TDMA control mechanism and central controllers (paper Sec 5.3).

The e-textile platform separates *data* (dedicated point-to-point textile
lines) from *control* (a narrow shared medium, 2 bits wide by default,
time-division multiplexed).  Nodes report quantised battery status and
deadlock flags in their upload slots; one active central controller
re-runs the routing algorithm whenever the reported information changes
and downloads the updated routing-table entries in the download phase.
Controllers can be replicated with fail-over (paper Sec 7.3 / Fig 8):
the active controller burns energy per control action, idle spares leak
slowly, and when the active one dies the next takes over.
"""

from .controller import ControlPlane, FrameOutcome
from .controller_power import ControllerEnergyModel, ControllerPowerReference
from .deadlock import BlockedPortRegistry, DeadlockPolicy
from .tdma import TdmaSchedule

__all__ = [
    "BlockedPortRegistry",
    "ControlPlane",
    "ControllerEnergyModel",
    "ControllerPowerReference",
    "DeadlockPolicy",
    "FrameOutcome",
    "TdmaSchedule",
]
