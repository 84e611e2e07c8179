"""Energy harvesting for the e-textile platform.

The paper's batteries only drain; this package adds the income side a
modern e-textile actually has — triboelectric motion harvesting
(texTENG), photovoltaic yarn, and I²We-style power sharing over the
conductive fabric.  Income schedules are deterministic functions of a
:class:`HarvestConfig` plus the topology, so harvest-bearing runs stay
replayable, cacheable and bit-identical across the sequential and
concurrent engines.
"""

from .config import (
    HARDWARE_PLACEMENTS,
    HARVEST_PROFILES,
    MOTION_PROFILES,
    HarvestConfig,
    HarvestHardware,
)
from .schedule import (
    HarvestSchedule,
    build_harvest_schedule,
    flex_weights,
    hardware_scale,
)

__all__ = [
    "HARDWARE_PLACEMENTS",
    "HARVEST_PROFILES",
    "MOTION_PROFILES",
    "HarvestConfig",
    "HarvestHardware",
    "HarvestSchedule",
    "build_harvest_schedule",
    "flex_weights",
    "hardware_scale",
]
