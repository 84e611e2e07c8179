"""Integration tests: the concurrent (buffered) engine and deadlock
recovery."""

from dataclasses import replace

import pytest

from helpers import make_config
from repro.sim.et_sim import run_simulation
from repro.sim.registry import build_engine


def concurrent_config(
    width=4, concurrency=4, buffers=2, recovery=True, **extra
):
    return make_config(
        mesh_width=width,
        kind="concurrent",
        concurrency=concurrency,
        buffers=buffers,
        recovery=recovery,
        **extra,
    )


class TestConcurrentEngine:
    def test_completes_jobs_and_verifies(self):
        stats = run_simulation(concurrent_config(max_jobs=10))
        assert stats.jobs_completed == 10
        assert stats.verification_failures == 0

    def test_single_job_concurrency_close_to_sequential(self):
        seq_jobs = run_simulation(make_config(mesh_width=4)).jobs_fractional
        conc_jobs = run_simulation(
            concurrent_config(concurrency=1)
        ).jobs_fractional
        # Same platform, same workload semantics: the engines should
        # agree to within a small tolerance (timing details differ).
        assert conc_jobs == pytest.approx(seq_jobs, rel=0.15)

    def test_runs_to_system_death(self):
        stats = run_simulation(concurrent_config(concurrency=4))
        assert stats.death_cause in (
            "module-unreachable",
            "source-cut",
            "stalled",
        )
        assert stats.jobs_completed > 20

    def test_deterministic(self):
        a = run_simulation(concurrent_config(concurrency=4))
        b = run_simulation(concurrent_config(concurrency=4))
        assert a.jobs_completed == b.jobs_completed
        assert a.deadlocks_reported == b.deadlocks_reported


class TestDeadlockRecovery:
    def test_congestion_triggers_deadlock_reports(self):
        stats = run_simulation(
            concurrent_config(width=6, concurrency=8, buffers=1)
        )
        assert stats.deadlocks_reported > 0

    def test_recovery_beats_no_recovery_under_pressure(self):
        with_recovery = run_simulation(
            concurrent_config(width=6, concurrency=8, buffers=1)
        )
        without = run_simulation(
            concurrent_config(
                width=6, concurrency=8, buffers=1, recovery=False
            )
        )
        assert (
            with_recovery.jobs_completed > without.jobs_completed
        )

    def test_no_recovery_stalls(self):
        stats = run_simulation(
            concurrent_config(
                width=6, concurrency=8, buffers=1, recovery=False
            )
        )
        assert stats.death_cause == "stalled"

    def test_recovered_deadlocks_counted(self):
        stats = run_simulation(
            concurrent_config(width=6, concurrency=8, buffers=1)
        )
        assert stats.deadlocks_recovered <= stats.deadlocks_reported
        assert stats.deadlocks_recovered > 0

    def test_ample_buffers_avoid_deadlock(self):
        stats = run_simulation(
            concurrent_config(width=4, concurrency=2, buffers=8, max_jobs=20)
        )
        assert stats.deadlocks_reported == 0
        assert stats.jobs_completed == 20


class TestConcurrencyThroughput:
    def test_energy_conservation_concurrent(self):
        engine = build_engine(concurrent_config(concurrency=4))
        stats = engine.run()
        delivered = engine.bank.delivered.sum()
        assert delivered == pytest.approx(
            stats.energy.node_total_pj, rel=1e-9
        )

    def test_heavy_concurrency_degrades_gracefully(self):
        light = run_simulation(concurrent_config(width=4, concurrency=1))
        heavy = run_simulation(concurrent_config(width=4, concurrency=8))
        # Contention wastes energy on waiting/detours but the system
        # still completes a substantial job count.
        assert heavy.jobs_completed > 0.3 * light.jobs_completed


class TestReturnToSink:
    def test_finished_packets_walk_back_into_the_source(self):
        """With return on, every finished packet walks back into the
        source, the one node with no cell and no kill-record entry."""
        hops = {}
        for return_to_sink in (False, True):
            config = make_config(
                kind="concurrent", concurrency=3, battery="ideal", max_jobs=40
            )
            config = replace(
                config,
                platform=replace(config.platform, return_to_sink=return_to_sink),
            )
            engine = build_engine(config)
            stats = engine.run()
            assert stats.death_cause == "job-budget"
            assert stats.jobs_completed == 40
            assert stats.verification_failures == 0
            ledger = stats.energy
            delivered = engine.bank.delivered.sum()
            assert delivered == pytest.approx(ledger.node_total_pj, rel=1e-9)
            nominal = 16 * config.platform.battery_capacity_pj
            residual = stats.wasted_at_death_pj + stats.stranded_alive_pj
            assert nominal == pytest.approx(
                delivered + stats.conversion_loss_pj + residual, rel=1e-9
            )
            hops[return_to_sink] = stats.total_hops
        assert hops[True] > hops[False]
