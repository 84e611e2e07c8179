"""EXP-F2 — paper Fig 2: discharge curve of the Li-free thin-film battery.

Regenerates the voltage-vs-delivered-capacity curve of the battery model
at three discharge rates.  Expected shape: a plateau near 3.4-3.7 V, a
knee crossing the paper's 3.0 V death threshold near the end of the
discharge, and — the property the whole paper rests on — higher rates
dying earlier with more residual (wasted) capacity.
"""

from repro.analysis.tables import format_table
from repro.battery.thin_film import ThinFilmParameters
from repro.sim.vector_bank import ThinFilmBatteryBank


def discharge(step_pj: float, step_cycles: int, rest_cycles: int):
    """Discharge one fresh cell; returns (curve rows, delivered, wasted)."""
    cell = ThinFilmBatteryBank(1, ThinFilmParameters())
    curve = []
    while cell.alive[0]:
        curve.append((float(cell.delivered[0]), cell.voltage_one(0)))
        cell.draw_one(0, step_pj, step_cycles)
        if rest_cycles:
            cell.rest(rest_cycles, cell.alive)
    wasted = max(0.0, cell.capacity_pj - cell.consumed_one(0))
    return curve, float(cell.delivered[0]), wasted


def run_fig2():
    # Three regimes: gentle (well-rested), moderate, sustained heavy.
    regimes = {
        "gentle": discharge(step_pj=60.0, step_cycles=30, rest_cycles=30_000),
        "moderate": discharge(step_pj=150.0, step_cycles=30, rest_cycles=2_000),
        "heavy": discharge(step_pj=300.0, step_cycles=20, rest_cycles=0),
    }
    return regimes


def test_fig2_battery_curve(benchmark, reporter):
    regimes = benchmark.pedantic(run_fig2, rounds=1, iterations=1)

    rows = []
    for name, (curve, delivered, wasted) in regimes.items():
        usable = delivered / (delivered + wasted)
        rows.append(
            (
                name,
                round(delivered, 0),
                round(wasted, 0),
                f"{100 * usable:.1f}%",
            )
        )
    table = format_table(
        ["regime", "delivered (pJ)", "wasted (pJ)", "usable"],
        rows,
        title=(
            "Fig 2 — thin-film discharge: usable capacity vs discharge "
            "rate (60 000 pJ nominal, 3.0 V cut-off)"
        ),
    )

    # Sampled voltage curve of the gentle regime (the Fig 2 shape).
    curve = regimes["gentle"][0]
    samples = curve[:: max(1, len(curve) // 16)]
    curve_table = format_table(
        ["delivered (pJ)", "loaded voltage (V)"],
        [(round(d, 0), round(v, 3)) for d, v in samples],
        title="Gentle-discharge voltage curve",
    )
    reporter.add("Fig 2 battery discharge", table + "\n\n" + curve_table)

    # Shape assertions.
    gentle = regimes["gentle"]
    heavy = regimes["heavy"]
    assert gentle[1] > 0.85 * 60_000.0          # gentle: >85 % usable
    assert heavy[1] < gentle[1]                 # rate-capacity effect
    assert heavy[2] > gentle[2]                 # more waste at high rate
    voltages = [v for _, v in gentle[0]]
    assert max(voltages) > 4.0                  # fresh-cell voltage
    plateau = [v for _, v in gentle[0][len(gentle[0]) // 4 : -5]]
    assert all(3.0 < v < 3.9 for v in plateau)  # plateau region
