#!/usr/bin/env python
"""Print one hash per simulation record, to prove a change moves nothing.

Runs a fixed corpus under a trace recorder and prints one sorted
``label hash`` line per record:

* every smoke and quick scenario point;
* a fault and harvest grid on 4x4 fabrics with 8000 pJ cells: the
  sequential, concurrent (3 jobs in flight) and vector engines, nine
  fault setups, four harvest profiles, and return-to-sink off and on,
  fault and harvest seed 3.

A record's hash covers its ``summary()``, every ledger total and
per-node column as ``float.hex``, and its trace without timings, so a
single ulp anywhere changes it.  The package is imported from ``src/``
under the current directory, so the same script fingerprints any
checkout of the repository:

    python scripts/behaviour_fingerprint.py > new.txt
    (cd ../parent && python /path/to/behaviour_fingerprint.py) > old.txt
    diff old.txt new.txt

``diff`` then names every record that moved.  The corpus takes about a
minute on one core.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np

#: ``(label, FaultConfig keyword arguments)`` of the grid's fault setups.
FAULT_SETUPS = (
    ("none", None),
    ("node-dropout", {"profile": "node-dropout"}),
    ("link-attrition", {"profile": "link-attrition"}),
    ("wash-cycle", {"profile": "wash-cycle"}),
    ("wash-cycle-repair12", {"profile": "wash-cycle", "repair_after_frames": 12}),
    ("tear", {"profile": "tear"}),
    ("tear-repair24", {"profile": "tear", "repair_after_frames": 24}),
    ("tear-crew1", {"profile": "tear", "repair_crew_size": 1}),
    ("moisture", {"profile": "moisture"}),
)
HARVEST_PROFILES = ("none", "motion", "bus", "solar")
ENGINES = ("sequential", "concurrent", "vector")


def _exact(value):
    """JSON-safe exact form: floats as ``float.hex``, arrays as lists."""
    if isinstance(value, np.ndarray):
        return [_exact(item) for item in value.tolist()]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    return value


def record_hash(stats, trace_lines) -> str:
    """Hash of one run: its summary, its exact energy ledger (every
    total and per-node column) and its trace without timings."""
    from repro.telemetry.recorder import strip_timings

    ledger = stats.energy
    document = {
        "summary": stats.summary(),
        "stats": {
            name: value.hex()
            for name, value in vars(stats).items()
            if isinstance(value, float)
        },
        "ledger": {
            name: _exact(value)
            for name, value in vars(ledger).items()
            if name != "nodes"
        },
        "nodes": {name: _exact(value) for name, value in vars(ledger.nodes).items()},
        "trace": strip_timings(trace_lines),
    }
    encoded = json.dumps(document, sort_keys=True, default=str).encode()
    return hashlib.sha256(encoded).hexdigest()


def scenario_records():
    """``(label, stats, trace)`` of every smoke and quick scenario point."""
    from repro.orchestration.runner import execute_point
    from repro.orchestration.scenarios import build_scenario, scenario_names

    for scale in ("smoke", "quick"):
        for name in scenario_names():
            for index, point in enumerate(build_scenario(name, scale)):
                stats = execute_point(point, trace=True)
                label = f"{scale}/{name}/{index}/{point.label}"
                yield label, stats, stats.extra["trace"]


def grid_records():
    """``(label, stats, trace)`` of the fault and harvest grid."""
    from repro.config import PlatformConfig, SimulationConfig, WorkloadConfig
    from repro.faults import FaultConfig
    from repro.harvest import HarvestConfig
    from repro.sim.et_sim import run_simulation
    from repro.telemetry.recorder import TraceRecorder

    for engine in ENGINES:
        kind = "concurrent" if engine == "concurrent" else "sequential"
        for fault_label, fault_kwargs in FAULT_SETUPS:
            faults = (
                FaultConfig()
                if fault_kwargs is None
                else FaultConfig(seed=3, **fault_kwargs)
            )
            for harvest in HARVEST_PROFILES:
                for to_sink in (False, True):
                    config = SimulationConfig(
                        platform=PlatformConfig(
                            mesh_width=4,
                            battery_capacity_pj=8_000.0,
                            return_to_sink=to_sink,
                        ),
                        workload=WorkloadConfig(
                            kind=kind,
                            concurrency=3 if kind == "concurrent" else 1,
                        ),
                        faults=faults,
                        harvest=HarvestConfig(profile=harvest, seed=3),
                        engine=engine,
                    )
                    recorder = TraceRecorder()
                    stats = run_simulation(config, recorder)
                    label = (
                        f"grid/{engine}/{fault_label}/{harvest}/"
                        f"sink-{'on' if to_sink else 'off'}"
                    )
                    yield label, stats, recorder.lines()


def main() -> int:
    sys.path.insert(0, str(pathlib.Path.cwd() / "src"))
    lines = []
    for records in (scenario_records(), grid_records()):
        for label, stats, trace in records:
            lines.append(f"{label} {record_hash(stats, trace)}")
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
