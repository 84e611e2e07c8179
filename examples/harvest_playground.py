#!/usr/bin/env python
"""Exploring the energy-harvesting subsystem.

Three short experiments on the paper's 4x4 platform:

1. recharge mechanics — a thin-film cell is drained, refilled, and
   climbs back up the discharge curve (DoD rollback), while a dead
   cell rejects income;
2. income profiles — how much energy `motion`, `solar` and `bus`
   schedules put back into the fabric, and what that buys in jobs
   against the harvest-free twin;
3. harvest-aware routing — reactive EAR vs `--harvest-weight` on the
   same income schedule (the controller learns per-node income rates
   and drains fat harvesting cells so their income is not rejected).

Run:  python examples/harvest_playground.py
"""

from dataclasses import replace

from repro.analysis import harvest_comparison_for, harvest_impact_for
from repro.analysis.tables import format_table
from repro.battery.thin_film import ThinFilmParameters
from repro.config import SimulationConfig
from repro.harvest import HarvestConfig
from repro.sim.et_sim import run_simulation
from repro.sim.vector_bank import ThinFilmBatteryBank


def recharge_mechanics() -> None:
    print("1. recharge mechanics (thin-film DoD rollback)\n")
    cell = ThinFilmBatteryBank(1, ThinFilmParameters())
    rows = []

    def snapshot(stage):
        depth = min(1.0, cell.consumed_one(0) / cell.capacity_pj)
        rows.append(
            (
                stage,
                round(depth, 3),
                round(cell.ocv_one(0), 3),
                round(float(cell.recharged[0]), 1),
                bool(cell.alive[0]),
            )
        )

    snapshot("fresh")
    cell.draw_one(0, 30_000.0, 300_000)
    snapshot("half drained")
    cell.recharge_one(0, 12_000.0)
    snapshot("refilled 12 nJ")
    cell.recharge_one(0, 10**9)
    snapshot("over-refilled (capped)")
    while cell.alive[0]:
        cell.draw_one(0, 5_000.0, 5_000)
    snapshot("driven to death")
    rejected = cell.recharge_one(0, 10_000.0)
    snapshot(f"post-death refill (accepted {rejected:g})")
    print(
        format_table(
            ["stage", "DoD", "OCV (V)", "recharged (pJ)", "alive"], rows
        )
    )


def income_profiles() -> None:
    print("\n2. what each income profile buys (vs harvest-free twin)\n")
    rows = []
    for profile in ("motion", "solar", "bus"):
        config = SimulationConfig(
            harvest=HarvestConfig(
                profile=profile, seed=7, amplitude_pj=60.0
            )
        )
        impact = harvest_impact_for(config)
        rows.append(
            (
                profile,
                impact["jobs_baseline"],
                impact["jobs_harvesting"],
                impact["delivery_gain"],
                impact["harvested_pj"],
                impact["shared_pj"],
            )
        )
    print(
        format_table(
            [
                "profile",
                "jobs (none)",
                "jobs (harvest)",
                "gain",
                "harvested pJ",
                "shared pJ",
            ],
            rows,
        )
    )


def harvest_aware_routing() -> None:
    print("\n3. reactive EAR vs the harvest-aware weight\n")
    config = SimulationConfig(
        harvest=HarvestConfig(profile="motion", seed=7, amplitude_pj=60.0)
    )
    record = harvest_comparison_for(config)
    rows = [(key, value) for key, value in record.items()]
    print(format_table(["metric", "value"], rows))
    aware = run_simulation(replace(config, harvest_aware=True)).summary()
    print(
        f"\nharvest-aware run: {aware['jobs_fractional']} jobs over "
        f"{aware['lifetime_frames']} frames, "
        f"{aware['harvested_pj']} pJ harvested in "
        f"{aware['harvest_events']} pulses"
    )


def main() -> None:
    recharge_mechanics()
    income_profiles()
    harvest_aware_routing()


if __name__ == "__main__":
    main()
