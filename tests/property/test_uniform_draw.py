"""The bank's uniform draw is the scalar draw, bit for bit.

Every frame, the engines pay the living nodes' status uploads with one
masked ``draw_uniform`` over the battery bank and rest the survivors
with one masked ``rest``.  Those two array passes must equal
``ThinFilmBattery`` / ``IdealBattery`` draw and rest on each cell to the
last bit — delivered energy, death, consumed charge, EMA and voltage —
or the engines' results would drift from the paper's scalar model.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.ideal import IdealBattery
from repro.battery.thin_film import ThinFilmBattery, ThinFilmParameters
from repro.config import ControlConfig
from repro.sim.vector_bank import IdealBatteryBank, ThinFilmBatteryBank

_SCHEDULE = ControlConfig().make_schedule(16)
#: The engines' upload draw (1.7888 pJ over 2 cycles) and frame rest.
UPLOAD = (_SCHEDULE.upload_energy_pj, _SCHEDULE.upload_slot_cycles)
FRAME_CYCLES = _SCHEDULE.frame_cycles

#: One thin-film cell state ``(consumed pJ, EMA pJ/cycle)`` whose rate
#: ratio r under the default upload draw rounds apart as ``r ** 2.0``
#: (libm ``pow``, the scalar model) and ``r * r`` (numpy's array
#: ``** 2.0``), by enough to move the consumed charge.  Seeded search:
#: ``random.Random(2005)``, consumed uniform in [0, 100), EMA uniform in
#: [0, 2), default cell; 188 of 200 000 states had ``r ** 2.0 != r * r``,
#: 9 of them a different consumed charge, and this is the first.
POW_SENSITIVE_STATE = (47.030370942714384, 1.7286819605249457)


def bits(value) -> str:
    return float(value).hex()


def thin_film_cells(params, states):
    """A bank and a row of scalar cells in the same ``states``."""
    bank = ThinFilmBatteryBank(len(states), params)
    cells = []
    for i, (consumed, delivered, recharged, ema, alive) in enumerate(states):
        bank.consumed[i] = consumed
        bank.delivered[i] = delivered
        bank.recharged[i] = recharged
        bank.ema[i] = ema
        bank.alive[i] = alive
        cell = ThinFilmBattery(params)
        cell._consumed = consumed
        cell._delivered = delivered
        cell._recharged = recharged
        cell._ema_power = ema
        cell._alive = alive
        cells.append(cell)
    return bank, cells


def ideal_cells(capacity, states):
    bank = IdealBatteryBank(len(states), capacity)
    cells = []
    for i, (delivered, recharged, alive) in enumerate(states):
        bank.delivered[i] = delivered
        bank.recharged[i] = recharged
        bank.alive[i] = alive
        cell = IdealBattery(capacity)
        cell._delivered = delivered
        cell._recharged = recharged
        cell._alive = alive
        cells.append(cell)
    return bank, cells


def assert_pass_is_scalar(bank, cells, mask, energy, duration, rest):
    """One masked draw and rest of ``bank`` against the scalar cells."""
    delivered, died = bank.draw_uniform(energy, duration, np.array(mask))
    bank.rest(rest, mask & bank.alive)
    for i, cell in enumerate(cells):
        if mask[i] and cell.alive:
            result = cell.draw(energy, duration)
            if cell.alive:
                cell.rest(rest)
            assert bits(delivered[i]) == bits(result.delivered_pj), i
            assert bool(died[i]) == result.died, i
        else:
            assert delivered[i] == 0.0 and not died[i], i
        assert bool(bank.alive[i]) == cell.alive, i
        assert bits(bank.delivered[i]) == bits(cell.delivered_pj), i
        assert bits(bank.consumed_one(i)) == bits(cell.consumed_pj), i
        assert bits(bank.voltage_one(i)) == bits(cell.voltage), i
        if isinstance(cell, ThinFilmBattery):
            assert bits(bank.ema[i]) == bits(cell._ema_power), i


draws = st.one_of(
    st.just(UPLOAD),
    st.tuples(
        st.floats(min_value=0.0, max_value=500.0),
        st.one_of(
            st.integers(min_value=1, max_value=4096),
            st.floats(min_value=0.5, max_value=4096.0),
        ),
    ),
)
rests = st.one_of(st.just(FRAME_CYCLES), st.integers(0, 20_000))
capacities = st.floats(min_value=1_000.0, max_value=60_000.0)


@st.composite
def thin_film_states(draw, capacity):
    """(consumed, delivered, recharged, EMA, alive) of one cell."""
    consumed = draw(st.floats(min_value=0.0, max_value=capacity))
    delivered = draw(st.floats(min_value=0.0, max_value=capacity))
    recharged = draw(st.floats(min_value=0.0, max_value=capacity))
    # Resting loads sit far below 1 pJ/cycle, a cell just hammered by
    # hops well above it: cover both.
    ema = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=0.05),
            st.floats(min_value=0.0, max_value=5.0),
        )
    )
    return consumed, delivered, recharged, ema, draw(st.booleans())


class TestThinFilmUniformDraw:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), capacity=capacities, recovery=st.booleans())
    def test_masked_draw_and_rest_equal_the_scalar_cells(
        self, data, capacity, recovery
    ):
        params = ThinFilmParameters(
            capacity_pj=capacity, allow_recovery=recovery
        )
        states = data.draw(
            st.lists(thin_film_states(capacity), min_size=1, max_size=12)
        )
        mask = np.array(
            data.draw(
                st.lists(
                    st.booleans(), min_size=len(states), max_size=len(states)
                )
            )
        )
        energy, duration = data.draw(draws)
        bank, cells = thin_film_cells(params, states)
        assert_pass_is_scalar(
            bank, cells, mask, energy, duration, data.draw(rests)
        )

    def test_a_ratio_whose_pow_and_square_round_apart(self):
        params = ThinFilmParameters()
        consumed, ema = POW_SENSITIVE_STATE
        energy, duration = UPLOAD
        alpha = 1.0 - math.exp(-duration / params.ema_window_cycles)
        ocv = params.profile.voltage_at(consumed / params.capacity_pj)
        ratio = (
            (ema + alpha * (energy / duration - ema))
            * 0.1
            / ocv
            / params.reference_current_ma
        )
        # The state is only a witness while the two squares differ.
        assert ratio ** 2.0 != ratio * ratio
        for recovery in (False, True):
            params = ThinFilmParameters(allow_recovery=recovery)
            bank, cells = thin_film_cells(
                params, [(consumed, 0.0, 0.0, ema, True)] * 3
            )
            mask = np.ones(3, dtype=bool)
            assert_pass_is_scalar(
                bank, cells, mask, energy, duration, FRAME_CYCLES
            )


class TestIdealUniformDraw:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), capacity=capacities)
    def test_masked_draw_and_rest_equal_the_scalar_cells(
        self, data, capacity
    ):
        size = data.draw(st.integers(min_value=1, max_value=12))
        states = []
        for _ in range(size):
            recharged = data.draw(st.floats(0.0, capacity))
            consumed = data.draw(st.floats(0.0, capacity))
            alive = data.draw(st.booleans())
            states.append((consumed + recharged, recharged, alive))
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        )
        energy, duration = data.draw(draws)
        bank, cells = ideal_cells(capacity, states)
        assert_pass_is_scalar(
            bank, cells, mask, energy, duration, data.draw(rests)
        )
