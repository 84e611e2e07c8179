"""Property-based whole-simulation invariants.

The strongest checks in the suite: for randomly drawn (small) platform
configurations the finished simulation must respect Theorem 1, conserve
energy, and functionally verify every completed job.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.theory import bound_for
from repro.config import (
    PlatformConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.sim.et_sim import run_simulation
from repro.sim.registry import build_engine


@st.composite
def small_configs(draw):
    """Small random platforms that simulate in well under a second."""
    width = draw(st.integers(min_value=3, max_value=5))
    routing = draw(st.sampled_from(["ear", "sdr"]))
    battery = draw(st.sampled_from(["ideal", "thin-film"]))
    levels = draw(st.sampled_from([4, 8, 16]))
    q = draw(st.floats(min_value=1.05, max_value=2.5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    mapping = draw(st.sampled_from(["checkerboard", "uniform"]))
    return SimulationConfig(
        platform=PlatformConfig(
            mesh_width=width,
            battery_model=battery,
            battery_levels=levels,
            mapping_strategy=mapping,
            # Shrink the budget so random runs finish quickly.
            battery_capacity_pj=15_000.0,
        ),
        workload=WorkloadConfig(seed=seed, max_frames=20_000),
        routing=routing,
        weight_q=q,
    )


@settings(max_examples=20, deadline=None)
@given(small_configs())
def test_simulation_never_beats_theorem1(config):
    stats = run_simulation(config)
    bound = bound_for(config)
    assert stats.jobs_fractional <= bound.jobs + 1e-6


@settings(max_examples=20, deadline=None)
@given(small_configs())
def test_energy_conservation_holds(config):
    engine = build_engine(config)
    stats = engine.run()
    nominal = (
        config.platform.battery_capacity_pj
        * config.platform.num_mesh_nodes
    )
    delivered = engine.bank.delivered.sum()
    residual = stats.wasted_at_death_pj + stats.stranded_alive_pj
    assert delivered == pytest.approx(stats.energy.node_total_pj, rel=1e-9)
    assert nominal == pytest.approx(
        delivered + stats.conversion_loss_pj + residual, rel=1e-9
    )


@settings(max_examples=15, deadline=None)
@given(small_configs())
def test_all_completed_jobs_verify(config):
    stats = run_simulation(config)
    assert stats.verification_failures == 0


@settings(max_examples=15, deadline=None)
@given(small_configs())
def test_death_cause_is_always_classified(config):
    stats = run_simulation(config)
    assert stats.death_cause in (
        "module-unreachable",
        "source-cut",
        "controller-dead",
        "frame-budget",
        "job-budget",
        "stalled",
    )
