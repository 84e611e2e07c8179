#!/usr/bin/env python
"""Write or check the behaviour lock: three hashes per simulation record.

Runs a fixed corpus of 394 records under a trace recorder:

* every smoke and quick scenario point;
* the full-scale points of the paper's figures (``fig7``, ``table2``,
  ``fig8``) and of the body tier (``vector-mesh``);
* a fault and harvest grid on 4x4 fabrics with 8000 pJ cells: the
  sequential, concurrent (3 jobs in flight) and vector engines, nine
  fault setups, four harvest profiles, and return-to-sink off and on,
  fault and harvest seed 3;
* three multi-hop power-bus runs over torn and repaired lines (the
  grid's bus runs share over one hop only, so they cannot see the order
  in which a repaired line re-enters the bus's neighbour scan): 4x4
  sequential at seeds 0 and 1, and 6x6 concurrent (3 jobs in flight) at
  seed 0, each with ``share_max_hops=2`` and tears repaired after 24
  frames;
* two 4x4 sequential runs with a chain of three controller units, ideal
  cells of 20 000 pJ (all three die in turn) and infinite ones (the
  ``fig8`` points chain thin-film units only).

Each record is hashed in three parts: its ``summary()``; its ledger,
every total and per-node column as ``float.hex``; and its trace without
timings.  A single ulp anywhere in the ledger moves the ``ledger`` part.

With no flag the script writes ``src/repro/orchestration/behaviour.lock``
under the current directory, one sorted ``label summary=... ledger=...
trace=...`` line per record::

    PYTHONPATH=src python scripts/behaviour_fingerprint.py
    PYTHONPATH=src python scripts/behaviour_fingerprint.py --check

``--check`` re-runs the corpus and compares it with the committed lock:
it prints every record whose line differs, naming the parts that moved,
and every label missing from the lock or from the corpus, and exits 1
on any difference.  A refactor proves that no behaviour moved by
leaving the lock unchanged; an intentional change regenerates it (and
the goldens, with ``python -m repro regen-golden``).  The sweep cache
keys every entry by the lock's hash, so a new lock retires every cached
result.  The corpus takes about 40 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.orchestration.runner import SweepPoint

#: The lock file, relative to the repository root.
LOCK = pathlib.Path("src", "repro", "orchestration", "behaviour.lock")

#: The hashed parts of a record, in line order.
PARTS = ("summary", "ledger", "trace")

#: Hex digits kept of each part's sha256.
SHORT = 16

#: Scenarios whose full-scale points join the corpus: the paper's
#: figures at their published sizes and the body tier.
FULL_SCALE = ("fig7", "table2", "fig8", "vector-mesh")

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


def _digest(document) -> str:
    encoded = json.dumps(document, sort_keys=True, default=str).encode()
    return hashlib.sha256(encoded).hexdigest()[:SHORT]


def record_parts(stats, trace_lines) -> dict[str, str]:
    """The short hash of each part of one run: its summary, its exact
    energy ledger (every total and per-node column) and its trace
    without timings."""
    from repro.telemetry.recorder import strip_timings

    ledger = stats.energy
    return {
        "summary": _digest(stats.summary()),
        "ledger": _digest(
            {
                "totals": {
                    name: _exact(value)
                    for name, value in vars(ledger).items()
                    if name != "nodes"
                },
                "nodes": {
                    name: _exact(value)
                    for name, value in vars(ledger.nodes).items()
                },
            }
        ),
        "trace": _digest(strip_timings(trace_lines)),
    }


def _grid_points():
    """The fault and harvest grid's sweep points."""
    from repro.config import PlatformConfig, SimulationConfig, WorkloadConfig
    from repro.faults import FaultConfig
    from repro.harvest import HarvestConfig
    from repro.orchestration.runner import SweepPoint

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
                    label = (
                        f"grid/{engine}/{fault_label}/{harvest}/"
                        f"sink-{'on' if to_sink else 'off'}"
                    )
                    yield SweepPoint(label=label, config=config)


#: ``(engine, mesh width, seed)`` of the multi-hop bus records.
BUS_SCAN_RUNS = (("sequential", 4, 0), ("sequential", 4, 1), ("concurrent", 6, 0))


def _bus_scan_points():
    """The multi-hop bus records' sweep points."""
    from repro.config import PlatformConfig, SimulationConfig, WorkloadConfig
    from repro.faults import FaultConfig
    from repro.harvest import HarvestConfig
    from repro.orchestration.runner import SweepPoint

    for engine, width, seed in BUS_SCAN_RUNS:
        config = SimulationConfig(
            platform=PlatformConfig(
                mesh_width=width, battery_capacity_pj=8_000.0
            ),
            workload=WorkloadConfig(
                kind=engine,
                concurrency=3 if engine == "concurrent" else 1,
            ),
            faults=FaultConfig(
                profile="tear", seed=seed, repair_after_frames=24
            ),
            harvest=HarvestConfig(
                profile="bus", seed=seed, share_max_hops=2
            ),
            engine=engine,
        )
        label = f"bus-scan/{engine}/{width}x{width}/seed-{seed}"
        yield SweepPoint(label=label, config=config)


#: ``(label, ControlConfig keyword arguments)`` of the three-unit
#: controller chains.
CONTROLLER_CHAINS = (
    ("ideal", {"controller_battery": "ideal", "controller_capacity_pj": 20_000.0}),
    ("infinite", {"controller_battery": "infinite"}),
)


def _controller_chain_points():
    """The three-unit controller-chain records' sweep points."""
    from repro.config import ControlConfig, SimulationConfig
    from repro.orchestration.runner import SweepPoint

    for battery, control_kwargs in CONTROLLER_CHAINS:
        config = SimulationConfig(
            control=ControlConfig(num_controllers=3, **control_kwargs)
        )
        label = f"controller-chain/sequential/4x4/{battery}"
        yield SweepPoint(label=label, config=config)


def corpus() -> list[tuple[str, SweepPoint]]:
    """``(label, SweepPoint)`` of every record, built without running
    anything."""
    from repro.orchestration.scenarios import build_scenario, scenario_names

    entries = []
    for scale, names in (
        ("smoke", scenario_names()),
        ("quick", scenario_names()),
        ("full", FULL_SCALE),
    ):
        for name in names:
            for index, point in enumerate(build_scenario(name, scale)):
                entries.append((f"{scale}/{name}/{index}/{point.label}", point))
    entries.extend((point.label, point) for point in _grid_points())
    entries.extend((point.label, point) for point in _bus_scan_points())
    entries.extend(
        (point.label, point) for point in _controller_chain_points()
    )
    return entries


def fingerprint(
    entries: list[tuple[str, SweepPoint]],
) -> dict[str, dict[str, str]]:
    """Run every ``(label, point)`` traced; label -> its part hashes."""
    from repro.orchestration.runner import execute_point

    records = {}
    for label, point in entries:
        stats = execute_point(point, trace=True)
        records[label] = record_parts(stats, stats.extra["trace"])
    return records


def lock_text(records: dict[str, dict[str, str]]) -> str:
    """The lock file: one sorted ``label part=hash ...`` line per record."""
    return "".join(
        " ".join([label, *(f"{part}={records[label][part]}" for part in PARTS)])
        + "\n"
        for label in sorted(records)
    )


def read_lock(text: str) -> dict[str, dict[str, str]]:
    """Parse :func:`lock_text` output back into label -> part hashes."""
    records = {}
    for line in text.splitlines():
        label, *fields = line.split(" ")
        records[label] = dict(field.split("=", 1) for field in fields)
    return records


def differences(
    locked: dict[str, dict[str, str]], fresh: dict[str, dict[str, str]]
) -> list[str]:
    """One line per record that moved, went missing or is new."""
    lines = []
    for label in sorted(locked.keys() | fresh.keys()):
        if label not in fresh:
            lines.append(f"missing from the corpus: {label}")
        elif label not in locked:
            lines.append(f"not in the lock: {label}")
        else:
            moved = [
                part
                for part in PARTS
                if locked[label].get(part) != fresh[label][part]
            ]
            if moved:
                lines.append(f"moved: {label} ({', '.join(moved)})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Write the behaviour lock, or check the corpus against it."
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the committed lock instead of writing it; "
        "exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    root = pathlib.Path.cwd()
    sys.path.insert(0, str(root / "src"))
    lock = root / LOCK
    fresh = fingerprint(corpus())
    if not args.check:
        lock.write_text(lock_text(fresh))
        print(f"wrote {len(fresh)} records to {LOCK}")
        return 0
    locked = read_lock(lock.read_text()) if lock.exists() else {}
    problems = differences(locked, fresh)
    for line in problems:
        print(line)
    print(
        f"{len(fresh)} records checked against {LOCK}: "
        + (f"{len(problems)} differ" if problems else "all unchanged")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
