"""Integration tests: full sequential et_sim runs."""

import pytest

from helpers import build_engine, make_config
from repro.config import ControlConfig
from repro.sim.et_sim import run_simulation


def run(width=4, routing="ear", battery="thin-film", **workload_kwargs):
    return run_simulation(
        make_config(
            mesh_width=width,
            routing=routing,
            battery=battery,
            **workload_kwargs,
        )
    )


class TestBasicRuns:
    def test_ear_beats_sdr_on_4x4(self):
        ear = run(routing="ear")
        sdr = run(routing="sdr")
        assert ear.jobs_fractional > 3 * sdr.jobs_fractional

    def test_jobs_complete_and_verify(self):
        stats = run(max_jobs=5)
        assert stats.jobs_completed == 5
        assert stats.verification_failures == 0
        assert stats.death_cause == "job-budget"

    def test_system_dies_of_module_unreachable(self):
        stats = run(routing="ear")
        assert stats.death_cause == "module-unreachable"
        assert stats.jobs_completed > 10

    def test_deterministic_given_seed(self):
        a = run(seed=123)
        b = run(seed=123)
        assert a.jobs_fractional == b.jobs_fractional
        assert a.lifetime_frames == b.lifetime_frames

    def test_different_seeds_still_same_job_count(self):
        # Plaintext content must not change energy behaviour (packet
        # energy is size-based), so job counts agree across seeds.
        a = run(seed=1)
        b = run(seed=2)
        assert a.jobs_completed == b.jobs_completed

    def test_ideal_battery_outlives_thin_film(self):
        ideal = run(battery="ideal")
        thin = run(battery="thin-film")
        assert ideal.jobs_fractional >= thin.jobs_fractional

    def test_partial_progress_reported(self):
        stats = run(routing="ear")
        assert 0.0 <= stats.partial_progress < 1.0


class TestEnergyAccounting:
    def test_energy_conservation(self):
        engine = build_engine(make_config(mesh_width=4, routing="ear"))
        stats = engine.run()
        ledger = stats.energy

        delivered = engine.bank.delivered.sum()
        # Everything delivered by node batteries is accounted in the
        # node-side buckets.
        assert delivered == pytest.approx(ledger.node_total_pj, rel=1e-9)

        # Nominal capacity = delivered + conversion loss + residual.
        nominal = 16 * 60_000.0
        residual = stats.wasted_at_death_pj + stats.stranded_alive_pj
        assert nominal == pytest.approx(
            delivered + stats.conversion_loss_pj + residual, rel=1e-9
        )

    def test_control_overhead_small_on_4x4(self):
        stats = run(routing="ear")
        # Paper Sec 7.1: 2.8 % on the 4x4 mesh.
        assert 0.005 < stats.control_overhead_fraction < 0.06

    def test_sdr_strands_most_of_the_energy(self):
        stats = run(routing="sdr")
        nominal = 16 * 60_000.0
        # SDR dies with the overwhelming share of energy unused.
        assert stats.stranded_alive_pj > 0.6 * nominal

    def test_hops_and_recomputes_counted(self):
        stats = run(routing="ear")
        assert stats.total_hops > stats.jobs_completed * 20
        assert stats.recompute_count > 10


class TestBudgets:
    def test_frame_budget_stops_runaway(self):
        stats = run_simulation(make_config(max_frames=20))
        assert stats.death_cause == "frame-budget"
        assert stats.lifetime_frames == 20

    def test_job_budget(self):
        stats = run(max_jobs=2)
        assert stats.jobs_completed == 2


class TestControllerDeath:
    def test_single_weak_controller_ends_the_system(self):
        config = make_config(
            control=ControlConfig(
                num_controllers=1,
                controller_battery="ideal",
                controller_capacity_pj=5_000.0,
            ),
        )
        stats = run_simulation(config)
        assert stats.death_cause == "controller-dead"

    def test_more_controllers_never_hurt(self):
        jobs = []
        for count in (1, 2, 4):
            config = make_config(
                control=ControlConfig(
                    num_controllers=count,
                    controller_battery="thin-film",
                ),
            )
            jobs.append(run_simulation(config).jobs_fractional)
        assert jobs[0] <= jobs[1] <= jobs[2]


class TestReturnToSink:
    def test_sink_return_costs_jobs(self):
        from dataclasses import replace

        without = make_config(mesh_width=4)
        with_return = replace(
            without, platform=replace(without.platform, return_to_sink=True)
        )
        jobs_with = run_simulation(with_return).jobs_fractional
        jobs_without = run_simulation(without).jobs_fractional
        assert jobs_with < jobs_without
        assert jobs_with > 0
