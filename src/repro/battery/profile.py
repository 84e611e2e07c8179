"""Discharge voltage profiles ``V_oc(DoD)``.

The paper's Fig 2 reproduces the discharge curve of a Li-free thin-film
battery from Neudecker et al. [10] and states that the nominal capacity
is shrunk to 60 000 pJ with the voltage profile compressed horizontally
in proportion (Sec 5.1.3).  Only the *shape* of the curve enters the
model, expressed here as open-circuit voltage versus depth of discharge
(DoD, the consumed fraction of nominal capacity).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class DischargeProfile:
    """Piecewise-linear open-circuit voltage curve.

    Args:
        points: Sequence of ``(dod, voltage)`` pairs with ``dod`` rising
            from 0.0 to 1.0 and voltage non-increasing.
        name: Label used in reports.
    """

    points: tuple[tuple[float, float], ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ConfigurationError("a discharge profile needs >= 2 points")
        dods = [p[0] for p in self.points]
        volts = [p[1] for p in self.points]
        if abs(dods[0]) > 1e-12 or abs(dods[-1] - 1.0) > 1e-12:
            raise ConfigurationError(
                "discharge profile must span DoD 0.0 .. 1.0, got "
                f"{dods[0]} .. {dods[-1]}"
            )
        if any(b <= a for a, b in zip(dods, dods[1:])):
            raise ConfigurationError("profile DoD values must strictly increase")
        if any(b > a + 1e-12 for a, b in zip(volts, volts[1:])):
            raise ConfigurationError("profile voltage must be non-increasing")
        if volts[-1] < 0:
            raise ConfigurationError("profile voltage must be non-negative")
        # voltage_at sits on the simulator's per-draw hot path; keep the
        # knot abscissae ready instead of rebuilding them every call.
        # (object.__setattr__ because the dataclass is frozen; the cache
        # is not a field, so equality/serialisation are unaffected.)
        object.__setattr__(self, "_dods", tuple(dods))

    @property
    def full_voltage(self) -> float:
        """Open-circuit voltage of a fresh cell."""
        return self.points[0][1]

    @property
    def empty_voltage(self) -> float:
        """Open-circuit voltage of a fully discharged cell."""
        return self.points[-1][1]

    def voltage_at(self, dod: float) -> float:
        """Open-circuit voltage at depth of discharge ``dod``.

        Values outside [0, 1] are clamped, which keeps the battery model
        robust against floating-point overshoot on the final draw.
        """
        if dod <= 0.0:
            return self.full_voltage
        if dod >= 1.0:
            return self.empty_voltage
        idx = bisect.bisect_right(self._dods, dod)
        (d0, v0), (d1, v1) = self.points[idx - 1], self.points[idx]
        frac = (dod - d0) / (d1 - d0)
        return v0 + frac * (v1 - v0)

    def dod_at_voltage(self, voltage: float) -> float:
        """Smallest DoD at which the open-circuit voltage falls to
        ``voltage`` (inverse of :meth:`voltage_at` on the non-increasing
        curve).  Returns 0.0 if the cell starts below ``voltage`` and 1.0
        if it never drops that low.
        """
        if voltage >= self.full_voltage:
            return 0.0
        if voltage < self.empty_voltage:
            return 1.0
        for (d0, v0), (d1, v1) in zip(self.points, self.points[1:]):
            if v1 <= voltage <= v0:
                if abs(v0 - v1) < 1e-12:
                    return d0
                frac = (v0 - voltage) / (v0 - v1)
                return d0 + frac * (d1 - d0)
        return 1.0


#: Digitised shape of the Li-free thin-film cell discharge curve
#: (paper Fig 2, after Neudecker, Dudney and Bates [10]): a fresh cell
#: near 4.17 V, a long sloping plateau through ~3.6 V, and a knee that
#: crosses the paper's 3.0 V death threshold shortly before exhaustion.
LI_FREE_THIN_FILM_PROFILE = DischargeProfile(
    points=(
        (0.00, 4.17),
        (0.03, 3.98),
        (0.10, 3.85),
        (0.25, 3.74),
        (0.45, 3.65),
        (0.60, 3.58),
        (0.75, 3.48),
        (0.85, 3.38),
        (0.92, 3.22),
        (0.955, 3.02),
        (0.975, 2.80),
        (1.00, 2.50),
    ),
    name="li-free-thin-film",
)

#: Idealised flat profile used by the ideal battery model: constant
#: voltage until the store is empty.
CONSTANT_PROFILE = DischargeProfile(
    points=((0.0, 3.6), (1.0, 3.6)),
    name="constant-3.6V",
)
