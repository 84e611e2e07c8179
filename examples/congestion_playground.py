#!/usr/bin/env python
"""Spreading hot links on a body-scale fabric with congestion-aware ECMP.

Energy-aware routing picks one minimal-cost next hop per (node,
module) pair, so on a regular mesh every job funnels through the
same few lines next to the source corner — those lines carry an order
of magnitude more packets than the median line, wear out first under
the traversal-wear model, and pull their relay nodes' batteries down
fastest.

This example runs one frame-dominated 16x16 configuration (the
``engine-speed`` bench point's regime: module latencies stretched to a
whole TDMA frame, capacity scaled so the run ends on the job budget)
three ways on the vector engine:

1. **measure-only** — congestion tracking on with a *neutral* penalty
   (q = 1.0): the summary gains the hot-link metrics while every
   routing decision stays bit-identical to plain EAR;
2. **ECMP only** — deterministic round-robin over the equal-cost
   next-hop groups the canonical shortest-path tree hides;
3. **full relief** — ECMP plus the congestion cost term, which reads
   the controller's quantised per-link load levels and multiplies hot
   lines' weights by ``q ^ level``, steering even unequal-cost traffic
   off saturated corridors.

Run:  python examples/congestion_playground.py
"""

from repro import (
    ControlConfig,
    PlatformConfig,
    SimulationConfig,
    WorkloadConfig,
    run_simulation,
)
from repro.analysis import congestion_comparison
from repro.analysis.tables import format_table
from repro.config import RoutingOptions

WIDTH = 16


def frame_cycles_for(width: int) -> int:
    """Grow the TDMA frame until its control section fits the mesh."""
    cycles = 1024
    while cycles < 8 * width * width * 2:
        cycles *= 2
    return cycles


def fabric(routing_opts: RoutingOptions) -> SimulationConfig:
    """The frame-dominated 16x16 point with the given routing options."""
    platform = PlatformConfig(
        mesh_width=WIDTH, battery_capacity_pj=32_000_000.0
    )
    platform = PlatformConfig(
        mesh_width=WIDTH,
        battery_capacity_pj=32_000_000.0,
        compute_cycles={
            module: frame_cycles_for(WIDTH)
            for module in platform.compute_cycles
        },
    )
    return SimulationConfig(
        platform=platform,
        control=ControlConfig(frame_cycles=frame_cycles_for(WIDTH)),
        workload=WorkloadConfig(max_jobs=80),
        routing="ear",
        routing_opts=routing_opts,
        engine="vector",
    )


def main() -> None:
    arms = {
        "measure-only": RoutingOptions(
            congestion_aware=True, congestion_q=1.0
        ),
        "ecmp-only": RoutingOptions(
            congestion_aware=True, congestion_q=1.0, ecmp=True, ecmp_seed=7
        ),
        "full relief": RoutingOptions(
            congestion_aware=True, ecmp=True, ecmp_seed=7
        ),
    }
    summaries = {
        name: run_simulation(fabric(opts)).summary()
        for name, opts in arms.items()
    }

    print(f"=== {WIDTH}x{WIDTH} frame-dominated fabric, 80 jobs ===\n")
    rows = [
        [
            name,
            summary["max_link_traversals"],
            f"{100 * summary['hot_link_share']:.2f}%",
            summary["jobs_completed"],
            summary["lifetime_frames"],
        ]
        for name, summary in summaries.items()
    ]
    print(
        format_table(
            ["arm", "peak link traversals", "hot-link share",
             "jobs", "lifetime"],
            rows,
        )
    )

    report = congestion_comparison(
        summaries["measure-only"], summaries["full relief"]
    )
    print(
        f"\nfull relief cut the peak line's traffic by "
        f"{report['peak_reduction']} traversals "
        f"({100 * report['peak_reduction_fraction']:.1f}%)"
    )
    print(
        "lifetime never paid for the spread: "
        f"{report['lifetime_baseline_frames']} -> "
        f"{report['lifetime_relieved_frames']} frames "
        f"(gain {report['lifetime_gain_frames']})"
    )
    spread_works = (
        report["peak_reduction"] > 0
        and report["lifetime_gain_frames"] >= 0
    )
    print(f"hot-link spread without lifetime cost: {spread_works}")


if __name__ == "__main__":
    main()
