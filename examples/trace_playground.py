#!/usr/bin/env python
"""Watching a congestion-relief run re-plan, through the telemetry layer.

Every engine, the control plane and the sweep runners emit telemetry
through one tiny ``Recorder`` interface.  The default ``NullRecorder``
is gated out of the hot paths — a recorder-free run builds no trace
record and reads no clock — while a ``TraceRecorder`` captures a
structured trace: per-frame probes (alive count, state-of-charge
quantiles, in-flight jobs), quantised link load/wear level crossings,
and discrete events (re-plans with per-cost-term attribution, faults,
deadlock reports, node deaths).

This example runs the congestion-relief smoke point (4x4 mesh, ECMP +
congestion cost term) three ways and shows:

1. **bit-identity** — the summaries with no recorder, the null
   recorder and a full trace recorder are exactly equal;
2. **the re-plan story** — which frames recomputed the routing plan,
   why (battery level crossings vs load level crossings), and how hard
   each cost-pipeline term scaled the links it touched;
3. **the two channels** — ``deterministic_lines()`` repeats exactly
   across runs, while the wall-clock timers live in one trailing
   ``timers`` line that strips away.

Run:  python examples/trace_playground.py
"""

from repro.analysis.trace_summary import trace_summary
from repro.orchestration import build_scenario
from repro.sim.et_sim import run_simulation
from repro.telemetry import NULL_RECORDER, TraceRecorder


def relief_point():
    """The congestion-relief smoke point the CI acceptance trace uses."""
    return next(
        point
        for point in build_scenario("congestion-relief", scale="smoke")
        if point.label == "4x4/relief"
    )


def main() -> None:
    point = relief_point()
    print(f"=== tracing {point.label} (congestion-relief smoke) ===\n")

    # 1. Telemetry never changes what the simulation computes.
    bare = run_simulation(point.config).summary()
    null = run_simulation(point.config, NULL_RECORDER).summary()
    recorder = TraceRecorder()
    traced = run_simulation(point.config, recorder).summary()
    print(f"bare == null-recorder == traced: {bare == null == traced}")
    print(
        f"jobs {traced['jobs_completed']}, "
        f"lifetime {traced['lifetime_frames']} frames, "
        f"{len(recorder.events)} trace line(s) captured\n"
    )

    # 2. The re-plan story: causes and per-term attribution.
    print(trace_summary(recorder.lines(meta={"label": point.label})))

    # 3. Deterministic channel vs wall-clock channel.
    repeat = TraceRecorder()
    run_simulation(point.config, repeat)
    deterministic = (
        recorder.deterministic_lines() == repeat.deterministic_lines()
    )
    print(f"\ndeterministic channel repeats exactly: {deterministic}")
    timers = recorder.timer_stats()
    print(
        f"wall-clock channel: {len(timers)} timer(s) "
        f"({', '.join(sorted(timers))}) — stripped by "
        "deterministic_lines()"
    )

    replans = [
        line for line in recorder.events if line.get("event") == "replan"
    ]
    congested = sum(
        1
        for line in replans
        if any(
            row["term"] == "congestion" and row["links_scaled"]
            for row in line.get("terms", [])
        )
    )
    print(
        f"{len(replans)} re-plan(s); {congested} steered by the "
        "congestion term"
    )


if __name__ == "__main__":
    main()
