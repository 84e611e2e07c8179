"""Battery substrate for the e-textile platform.

The paper attaches a Li-free thin-film battery [10] to every node and
models it with a discrete-time approximation in the style of Benini et
al. [8] (Sec 5.1.3).  The program runs every cell — mesh nodes,
controller units, ``repro battery-curve`` — in the struct-of-arrays
banks of :mod:`repro.sim.vector_bank`; this package holds what they
share (the electrical parameters, the discharge profile, the level
quantiser) and the two scalar models, one object per cell, which are
the banks' test oracle:

* :class:`~repro.battery.ideal.IdealBattery` — constant output voltage,
  100 % conversion efficiency until depletion.  The paper switches to
  this model for the Table 2 comparison against the analytical bound.
* :class:`~repro.battery.thin_film.ThinFilmBattery` — open-circuit
  voltage follows a digitised discharge profile (the paper's Fig 2),
  load current is smoothed with an exponential moving average, the
  loaded voltage sags across an internal resistance, delivery incurs a
  rate-capacity penalty, and the cell dies permanently once the loaded
  voltage drops below the 3.0 V threshold — wasting whatever energy
  remains, exactly as the paper specifies.

:class:`~repro.battery.monitor.BatteryLevelQuantizer` produces the
quantised battery levels ``N_B(j)`` that nodes report to the central
controller and that the EAR weighting function consumes.
"""

from .base import Battery, DrawResult
from .ideal import IdealBattery
from .monitor import BatteryLevelQuantizer
from .profile import LI_FREE_THIN_FILM_PROFILE, DischargeProfile
from .thin_film import ThinFilmBattery, ThinFilmParameters

__all__ = [
    "Battery",
    "BatteryLevelQuantizer",
    "DischargeProfile",
    "DrawResult",
    "IdealBattery",
    "LI_FREE_THIN_FILM_PROFILE",
    "ThinFilmBattery",
    "ThinFilmParameters",
]
