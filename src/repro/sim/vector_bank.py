"""Struct-of-arrays battery banks: the program's one cell model.

Every cell the program runs lives in a bank: every engine's mesh cells,
the controllers' fail-over chain (one cell per unit; an infinite unit
is an ideal cell of infinite capacity) and the one-cell discharges of
``repro battery-curve``.  A bank keeps its cells column-wise, one NumPy
array per state variable, so the parts of a TDMA frame that treat every
cell alike run as array passes.  The scalar classes of
:mod:`repro.battery` hold one Python object per cell and are the banks'
test oracle: each bank is the *same* battery model as its scalar class,
arithmetic line by line — EMA smoothing, discharge-curve interpolation,
rate-capacity penalty, death conditions:

* ``draw_one`` / ``recharge_one`` run the scalar code path on one
  index (per-hop and compute draws, the power bus, the controllers),
  and the other ``*_one`` methods read one cell's charge, voltages,
  current and losses: the engines address each mesh cell by its node
  id.  ``draw_one`` returns ``(delivered, died)`` as a Python float and
  bool, like ``draw`` and ``draw_uniform`` return their arrays;
* ``draw_uniform``, ``recharge`` and ``rest`` apply one draw, recharge
  or rest to every masked cell (the frame's status uploads and harvest
  income) and match the scalar model bit for bit: the EMA factor comes
  from one ``math.exp`` and the rate penalty from Python's ``**`` per
  cell, because numpy's array ``exp`` and ``**`` round differently;
  every other step is + - * / min max, which numpy rounds exactly as
  Python does.

Only ``draw`` differs: the vector engine's merged per-frame draw takes a
different duration per cell and keeps numpy's ``exp`` and ``**``, so
its cells agree with scalar cells to float precision, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..battery.ideal import DEFAULT_VOLTAGE
from ..battery.thin_film import _PJ_PER_CYCLE_TO_MW, ThinFilmParameters
from ..errors import BatteryError, ConfigurationError


def _check_draw_args(energy_pj: float, duration_cycles: float) -> None:
    if energy_pj < 0:
        raise ConfigurationError(f"cannot draw negative energy {energy_pj}")
    if duration_cycles <= 0:
        raise ConfigurationError(
            f"draw duration must be positive, got {duration_cycles}"
        )


class IdealBatteryBank:
    """Array-of-cells version of :class:`~repro.battery.ideal.IdealBattery`."""

    def __init__(
        self,
        count: int,
        capacity_pj: float,
        voltage: float = DEFAULT_VOLTAGE,
    ):
        if capacity_pj <= 0:
            raise ConfigurationError("battery capacity must be positive")
        self.capacity_pj = float(capacity_pj)
        self._voltage = float(voltage)
        self.delivered = np.zeros(count, dtype=float)
        self.recharged = np.zeros(count, dtype=float)
        self.alive = np.ones(count, dtype=bool)

    # -- vector operations (one call per frame) -------------------------
    def draw(
        self, requests: np.ndarray, durations: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``requests[i]`` pJ from every cell; zero requests and
        dead cells are untouched.  Returns ``(delivered, died)``."""
        active = self.alive & (requests > 0.0)
        available = self.capacity_pj - (self.delivered - self.recharged)
        delivered = np.where(
            active, np.minimum(requests, available), 0.0
        )
        self.delivered += delivered
        died = active & (
            self.delivered - self.recharged >= self.capacity_pj - 1e-9
        )
        self.alive &= ~died
        return delivered, died

    def draw_uniform(
        self, energy_pj: float, duration_cycles: float, mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The scalar draw of ``energy_pj`` on every masked living cell.

        Returns ``(delivered, died)`` over all cells, 0 and False where
        nothing was drawn.
        """
        _check_draw_args(energy_pj, duration_cycles)
        mask = mask & self.alive
        available = self.capacity_pj - (self.delivered - self.recharged)
        delivered = np.where(mask, np.minimum(energy_pj, available), 0.0)
        self.delivered += delivered
        died = mask & (
            self.delivered - self.recharged >= self.capacity_pj - 1e-9
        )
        self.alive &= ~died
        return delivered, died

    def recharge(
        self, offers: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Accept up to ``offers[i]`` into each masked living cell."""
        ok = mask & self.alive & (offers > 0.0)
        headroom = np.maximum(0.0, self.delivered - self.recharged)
        accepted = np.where(ok, np.minimum(offers, headroom), 0.0)
        self.recharged += accepted
        return accepted

    def rest(self, duration_cycles: float, mask: np.ndarray) -> None:
        """No-op: an ideal cell has no load-history state."""

    def soc_vector(self) -> np.ndarray:
        consumed = self.delivered - self.recharged
        return np.minimum(1.0, np.maximum(0.0, 1.0 - consumed / self.capacity_pj))

    # -- scalar access (per-hop draws, harvest, power sharing) ----------
    def consumed_one(self, i: int) -> float:
        return float(self.delivered[i] - self.recharged[i])

    def loss_one(self, i: int) -> float:
        return 0.0

    def voltage_one(self, i: int) -> float:
        return self._voltage if self.alive[i] else 0.0

    def soc_one(self, i: int) -> float:
        return min(1.0, max(0.0, 1.0 - self.consumed_one(i) / self.capacity_pj))

    def draw_one(
        self, i: int, energy_pj: float, duration_cycles: float
    ) -> tuple[float, bool]:
        """``IdealBattery.draw`` on cell ``i``: ``(delivered, died)``."""
        if not self.alive[i]:
            raise BatteryError("cannot draw from a dead battery")
        _check_draw_args(energy_pj, duration_cycles)
        available = self.capacity_pj - self.consumed_one(i)
        delivered = min(energy_pj, available)
        self.delivered[i] += delivered
        died = self.consumed_one(i) >= self.capacity_pj - 1e-9
        if died:
            self.alive[i] = False
        return delivered, died

    def recharge_one(self, i: int, energy_pj: float) -> float:
        if energy_pj < 0:
            raise ConfigurationError(
                f"cannot recharge negative energy {energy_pj}"
            )
        if not self.alive[i]:
            return 0.0
        accepted = min(energy_pj, max(0.0, self.consumed_one(i)))
        self.recharged[i] += accepted
        return accepted


class ThinFilmBatteryBank:
    """Array-of-cells version of
    :class:`~repro.battery.thin_film.ThinFilmBattery`."""

    def __init__(self, count: int, params: ThinFilmParameters):
        self._p = params
        self.capacity_pj = params.capacity_pj
        self.consumed = np.zeros(count, dtype=float)
        self.delivered = np.zeros(count, dtype=float)
        self.recharged = np.zeros(count, dtype=float)
        self.ema = np.zeros(count, dtype=float)
        self.alive = np.ones(count, dtype=bool)
        dods = [dod for dod, _ in params.profile.points]
        volts = [volt for _, volt in params.profile.points]
        self._dods = np.array(dods)
        self._max_knot = len(dods) - 1
        # One column per curve segment for the vectorised lookup: start
        # DoD, DoD span, start voltage, voltage span.  The first and
        # last columns hold the curve's ends with a 0 V span, so a DoD
        # outside the curve evaluates to the end voltage exactly, as the
        # scalar early returns do.
        self._segments = np.array(
            [
                [0.0, *dods[:-1], 0.0],
                [1.0, *(b - a for a, b in zip(dods, dods[1:])), 1.0],
                [volts[0], *volts[:-1], volts[-1]],
                [0.0, *(b - a for a, b in zip(volts, volts[1:])), 0.0],
            ]
        )
        # Running knot minimum: ``_volts_cummin[k]`` bounds the curve
        # from below on every DoD up to knot ``k`` without assuming the
        # profile is monotonic — the healthy-bank fast paths of the
        # array draws use it to prove no cell can be near the cutoff.
        self._volts_cummin = np.minimum.accumulate(volts)

    @property
    def parameters(self) -> ThinFilmParameters:
        return self._p

    # -- vectorised discharge curve -------------------------------------
    def _voltage_at(self, dod: np.ndarray) -> np.ndarray:
        """Piecewise-linear ``V_oc(DoD)``, vectorised.

        Interpolates with the same association order as the scalar
        ``DischargeProfile.voltage_at`` (``v0 + frac * (v1 - v0)``) so
        both paths round identically.  Built from direct ufunc/method
        calls — this sits on the once-per-frame hot path and the
        ``np.clip``-style wrappers dominate at mesh-sized arrays.
        """
        segment = self._dods.searchsorted(dod, side="right")
        d0, span, v0, dv = self._segments.take(segment, axis=1)
        return v0 + (dod - d0) / span * dv

    def _ocv_vector(self, consumed: np.ndarray) -> np.ndarray:
        # A DoD beyond 1 lands on the end segment, as ``min(1, dod)``
        # would: no clamp needed.
        return self._voltage_at(consumed / self.capacity_pj)

    @staticmethod
    def _current_ma_vector(ema: np.ndarray, ocv: np.ndarray) -> np.ndarray:
        # No load current at 0 V: dividing by inf gives exactly 0.
        return ema * _PJ_PER_CYCLE_TO_MW / np.where(ocv > 0.0, ocv, np.inf)

    # -- vector operations (one call per frame) -------------------------
    def draw(
        self, requests: np.ndarray, durations: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``requests[i]`` pJ over ``durations[i]`` cycles per cell.

        Zero requests and dead cells are untouched (the scalar model's
        early returns); everything else is the scalar draw arithmetic
        applied element-wise.  Returns ``(delivered, died)``.
        """
        p = self._p
        active = self.alive & (requests > 0.0)
        safe_durations = np.maximum(durations, 1.0)
        alpha = 1.0 - np.exp(-safe_durations / p.ema_window_cycles)
        power = requests / safe_durations
        self.ema = np.where(
            active, self.ema + alpha * (power - self.ema), self.ema
        )
        ocv_before = self._ocv_vector(self.consumed)
        ratio = (
            self._current_ma_vector(self.ema, ocv_before)
            / p.reference_current_ma
        )
        penalty = 1.0 + p.rate_penalty_coeff * ratio ** p.rate_penalty_exponent
        charge_needed = requests * penalty
        available = self.capacity_pj - self.consumed

        exhausted = active & (charge_needed >= available - 1e-9)
        delivered = np.where(
            exhausted,
            np.maximum(0.0, available / penalty),
            np.where(active, requests, 0.0),
        )
        self.consumed = np.where(
            exhausted,
            self.capacity_pj,
            np.where(active, self.consumed + charge_needed, self.consumed),
        )
        self.delivered += delivered
        died = active & self._fatal(self.consumed, self.ema, exhausted)
        self.alive &= ~died
        return delivered, died

    def _fatal(
        self, consumed: np.ndarray, ema: np.ndarray, exhausted: np.ndarray
    ) -> np.ndarray:
        """Which cells a draw just killed: ``exhausted``, or below the
        cutoff voltage (open-circuit, or loaded unless recovery is on).

        The scalar model clamps the loaded voltage at 0 V; the cutoff is
        positive, so the clamp cannot change the comparison.
        """
        if self._voltage_safe(consumed, ema):
            return exhausted
        p = self._p
        ocv = self._ocv_vector(consumed)
        fatal = exhausted | (ocv < p.cutoff_voltage)
        if not p.allow_recovery:
            sag = (
                self._current_ma_vector(ema, ocv)
                * p.internal_resistance_ohm
                / 1e3
            )
            fatal |= ocv - sag < p.cutoff_voltage
        return fatal

    def _voltage_safe(self, consumed: np.ndarray, ema: np.ndarray) -> bool:
        """True when none of these cells can be at a fatal voltage.

        Bounds the cells by their worst: the open-circuit voltage of the
        deepest discharge (via the running knot minimum, so
        non-monotonic curves stay safe) minus the sag of the hardest
        smoothed load.  When even that pessimistic composite clears the
        cutoff by far more than rounding can move it, the per-cell
        post-draw voltage scan — half the cost of a healthy-bank draw —
        is provably a no-op and is skipped.
        """
        p = self._p
        dod_max = min(1.0, float(consumed.max()) / self.capacity_pj)
        knot = int(self._dods.searchsorted(dod_max, side="right")) - 1
        knot = max(0, min(knot, self._max_knot))
        ocv_floor = min(
            float(self._volts_cummin[knot]), p.profile.voltage_at(dod_max)
        )
        if ocv_floor <= 0.0:
            return False
        sag_ceiling = (
            float(ema.max())
            * _PJ_PER_CYCLE_TO_MW
            / ocv_floor
            * p.internal_resistance_ohm
            / 1e3
        )
        return ocv_floor - sag_ceiling >= p.cutoff_voltage + 1e-9

    def draw_uniform(
        self, energy_pj: float, duration_cycles: float, mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The scalar draw of ``energy_pj`` on every masked living cell.

        One array pass that rounds exactly as ``draw_one`` does on each
        cell: the EMA factor is one ``math.exp`` of the shared duration
        and the rate penalty takes Python's ``**`` per cell.  Returns
        ``(delivered, died)`` over all cells, 0 and False where nothing
        was drawn.
        """
        _check_draw_args(energy_pj, duration_cycles)
        delivered = np.zeros(len(self.alive))
        died = np.zeros(len(self.alive), dtype=bool)
        cells = (mask & self.alive).nonzero()[0]
        if energy_pj == 0 or not len(cells):
            return delivered, died
        p = self._p
        alpha = 1.0 - math.exp(-duration_cycles / p.ema_window_cycles)
        ema = self.ema[cells]
        ema += alpha * (energy_pj / duration_cycles - ema)
        consumed = self.consumed[cells]
        ratio = (
            self._current_ma_vector(ema, self._ocv_vector(consumed))
            / p.reference_current_ma
        )
        exponent = p.rate_penalty_exponent
        penalty = 1.0 + p.rate_penalty_coeff * np.array(
            [r ** exponent for r in ratio.tolist()]
        )
        charge_needed = energy_pj * penalty
        available = self.capacity_pj - consumed
        exhausted = charge_needed >= available - 1e-9
        drawn = np.where(
            exhausted, np.maximum(0.0, available / penalty), energy_pj
        )
        consumed = np.where(
            exhausted, self.capacity_pj, consumed + charge_needed
        )
        self.ema[cells] = ema
        self.consumed[cells] = consumed
        self.delivered[cells] += drawn
        delivered[cells] = drawn
        died[cells] = self._fatal(consumed, ema, exhausted)
        self.alive &= ~died
        return delivered, died

    def recharge(
        self, offers: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Roll depth of discharge back by the accepted income."""
        ok = mask & self.alive & (offers > 0.0)
        headroom = np.maximum(0.0, self.consumed)
        accepted = np.where(ok, np.minimum(offers, headroom), 0.0)
        self.consumed -= accepted
        self.recharged += accepted
        return accepted

    def rest(self, duration_cycles: float, mask: np.ndarray) -> None:
        if duration_cycles <= 0:
            return
        decay = math.exp(-duration_cycles / self._p.ema_window_cycles)
        self.ema = np.where(mask, self.ema * decay, self.ema)

    def soc_vector(self) -> np.ndarray:
        return 1.0 - np.minimum(1.0, self.consumed / self.capacity_pj)

    # -- scalar access (per-hop draws, harvest, power sharing) ----------
    def consumed_one(self, i: int) -> float:
        return float(self.consumed[i])

    def loss_one(self, i: int) -> float:
        return float(self.consumed[i] + self.recharged[i] - self.delivered[i])

    def _ocv_at(self, consumed: float) -> float:
        return self._p.profile.voltage_at(min(1.0, consumed / self.capacity_pj))

    @staticmethod
    def _current_ma_at(ema: float, ocv: float) -> float:
        return ema * _PJ_PER_CYCLE_TO_MW / ocv if ocv > 0 else 0.0

    def _loaded_at(self, ema: float, ocv: float) -> float:
        sag = self._current_ma_at(ema, ocv) * self._p.internal_resistance_ohm / 1e3
        return max(0.0, ocv - sag)

    def voltage_one(self, i: int) -> float:
        if not self.alive[i]:
            return 0.0
        ocv = self._ocv_at(float(self.consumed[i]))
        return self._loaded_at(float(self.ema[i]), ocv)

    def ocv_one(self, i: int) -> float:
        """Cell ``i``'s open-circuit voltage (the load removed)."""
        return self._ocv_at(float(self.consumed[i]))

    def current_ma_one(self, i: int) -> float:
        """Cell ``i``'s smoothed load current in mA."""
        return self._current_ma_at(float(self.ema[i]), self.ocv_one(i))

    def soc_one(self, i: int) -> float:
        return 1.0 - min(1.0, float(self.consumed[i]) / self.capacity_pj)

    def draw_one(
        self, i: int, energy_pj: float, duration_cycles: float
    ) -> tuple[float, bool]:
        """``ThinFilmBattery.draw`` on cell ``i``, reading and writing
        each of the cell's floats once: ``(delivered, died)``."""
        if not self.alive[i]:
            raise BatteryError("cannot draw from a dead battery")
        _check_draw_args(energy_pj, duration_cycles)
        if energy_pj == 0:
            return 0.0, False
        p = self._p
        capacity = self.capacity_pj
        alpha = 1.0 - math.exp(-duration_cycles / p.ema_window_cycles)
        ema = float(self.ema[i])
        ema += alpha * (energy_pj / duration_cycles - ema)
        consumed = float(self.consumed[i])
        ocv = self._ocv_at(consumed)
        ratio = self._current_ma_at(ema, ocv) / p.reference_current_ma
        penalty = (
            1.0 + p.rate_penalty_coeff * ratio ** p.rate_penalty_exponent
        )
        charge_needed = energy_pj * penalty
        available = capacity - consumed

        exhausted = charge_needed >= available - 1e-9
        if exhausted:
            delivered = max(0.0, available / penalty)
            consumed = capacity
        else:
            delivered = energy_pj
            consumed += charge_needed
        self.ema[i] = ema
        self.consumed[i] = consumed
        self.delivered[i] += delivered

        ocv = self._ocv_at(consumed)
        loaded_voltage = self._loaded_at(ema, ocv)
        voltage_death = (
            not p.allow_recovery and loaded_voltage < p.cutoff_voltage
        )
        died = exhausted or voltage_death or ocv < p.cutoff_voltage
        if died:
            self.alive[i] = False
        return delivered, died

    def recharge_one(self, i: int, energy_pj: float) -> float:
        if energy_pj < 0:
            raise ConfigurationError(
                f"cannot recharge negative energy {energy_pj}"
            )
        if not self.alive[i]:
            return 0.0
        accepted = min(energy_pj, max(0.0, float(self.consumed[i])))
        self.consumed[i] -= accepted
        self.recharged[i] += accepted
        return accepted


def build_battery_bank(
    model: str, count: int, capacity_pj: float, thin_film: ThinFilmParameters
):
    """``count`` fresh cells of ``capacity_pj`` each: ``"thin-film"``
    cells with the ``thin_film`` parameters, ``"ideal"`` cells, or
    ``"infinite"`` ones — ideal cells that never run out."""
    if model == "thin-film":
        return ThinFilmBatteryBank(
            count, replace(thin_film, capacity_pj=capacity_pj)
        )
    if model == "infinite":
        capacity_pj = math.inf
    return IdealBatteryBank(count, capacity_pj)
