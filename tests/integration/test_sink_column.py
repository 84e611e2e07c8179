"""The sink tree is grown only in runs that return ciphertexts.

Column 0 of every routing plan routes toward the source block.  Only a
run with ``return_to_sink`` ever walks it, so every other run leaves it
empty: phase 2 then converges once the module trees settle instead of
waiting for the single-rooted sink tree.  These tests pin that nothing
a run reports can tell the difference.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.config import (
    PlatformConfig,
    RoutingOptions,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.phase3 import NO_DESTINATION, SINK
from repro.faults import FaultConfig
from repro.harvest import HarvestConfig
from repro.sim.registry import build_engine

ENGINES = ("sequential", "vector", "concurrent")

#: ``(label, FaultConfig, HarvestConfig)`` of the grid's conditions.
CONDITIONS = (
    ("plain", FaultConfig(), HarvestConfig()),
    (
        "tear-and-repair",
        FaultConfig(profile="tear", seed=3, repair_after_frames=24),
        HarvestConfig(),
    ),
    ("motion", FaultConfig(), HarvestConfig(profile="motion", seed=3)),
)


def grid_config(engine, routing, condition, ecmp) -> SimulationConfig:
    """A short 4x4 run: small cells, a small job budget.

    Six jobs in flight on the concurrent engine contend enough to report
    deadlocks, so phase 3's detour and the escape hops run too.
    """
    _, faults, harvest = condition
    kind = "concurrent" if engine == "concurrent" else "sequential"
    return SimulationConfig(
        platform=PlatformConfig(mesh_width=4, battery_capacity_pj=8_000.0),
        workload=WorkloadConfig(
            kind=kind,
            concurrency=6 if kind == "concurrent" else 1,
            max_jobs=12,
        ),
        faults=faults,
        harvest=harvest,
        routing=routing,
        routing_opts=RoutingOptions(ecmp=ecmp),
        engine=engine,
    )


def run_recording_plans(config, sink_forced=False):
    """Run ``config``; return its stats and every plan its controller made.

    With ``sink_forced`` the control plane is given the source as its
    sink before the run starts, as a run that returns ciphertexts is.
    """
    engine = build_engine(config)
    if sink_forced:
        engine.control._sink = engine.source
    routing = engine.control._engine
    plans = []
    compute_plan = routing.compute_plan

    def recording(*args, **kwargs):
        plan = compute_plan(*args, **kwargs)
        plans.append(plan)
        return plan

    routing.compute_plan = recording
    return engine.run(), plans


def exact(value):
    """A ledger value with every float as ``float.hex``."""
    if isinstance(value, np.ndarray):
        return [exact(item) for item in value.tolist()]
    if isinstance(value, float):
        return value.hex()
    return value


def ledger_of(stats) -> dict:
    ledger = stats.energy
    return {
        "totals": {
            name: exact(value)
            for name, value in vars(ledger).items()
            if name != "nodes"
        },
        "nodes": {
            name: exact(value) for name, value in vars(ledger.nodes).items()
        },
    }


GRID = [
    pytest.param(
        engine,
        routing,
        condition,
        ecmp,
        id=f"{engine}-{routing}-{condition[0]}-ecmp-{'on' if ecmp else 'off'}",
    )
    for engine in ENGINES
    for routing in ("ear", "sdr")
    for condition in CONDITIONS
    for ecmp in (False, True)
]


@pytest.mark.parametrize("engine, routing, condition, ecmp", GRID)
def test_the_sink_tree_is_unobservable_without_return_to_sink(
    engine, routing, condition, ecmp
):
    config = grid_config(engine, routing, condition, ecmp)
    stats, plans = run_recording_plans(config)
    forced, forced_plans = run_recording_plans(config, sink_forced=True)

    assert json.dumps(stats.summary(), sort_keys=True) == json.dumps(
        forced.summary(), sort_keys=True
    )
    assert ledger_of(stats) == ledger_of(forced)
    assert len(plans) == len(forced_plans) > 0
    for plan in plans:
        assert np.isinf(plan.distances[:, SINK]).all()
        assert (plan.destinations[:, SINK] == NO_DESTINATION).all()
        assert (plan.hops[:, SINK] == NO_DESTINATION).all()
    # The forced runs did grow the sink tree: the comparison is not
    # between two empty columns.
    assert np.isfinite(forced_plans[0].distances[:, SINK]).any()


def test_the_grid_reaches_faults_harvest_and_deadlocks():
    """Every condition acts within the job budget."""
    plain, tear, motion = CONDITIONS
    torn, _ = run_recording_plans(grid_config("sequential", "ear", tear, False))
    assert torn.summary()["links_cut"] > 0
    powered, _ = run_recording_plans(
        grid_config("sequential", "ear", motion, False)
    )
    assert powered.energy.harvested_pj > 0.0
    contended, _ = run_recording_plans(
        grid_config("concurrent", "ear", plain, False)
    )
    assert contended.summary()["deadlocks_reported"] > 0


@pytest.mark.parametrize("name", ENGINES)
def test_a_returning_run_grows_the_sink_tree(name):
    config = grid_config(name, "ear", CONDITIONS[0], False)
    config = replace(
        config, platform=replace(config.platform, return_to_sink=True)
    )
    engine = build_engine(config)
    plan = engine.control.bootstrap()
    mesh = engine.num_mesh_nodes
    assert np.isfinite(plan.distances[:mesh, SINK]).all()
    assert plan.distances[engine.source, SINK] == 0.0
