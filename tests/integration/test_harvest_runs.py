"""Integration tests: harvest-bearing simulations on both engines.

Covers the recharge path end to end (income extends delivered work),
the I²We power bus (charge moves with conversion loss), the
harvest-aware routing weight (the PR's acceptance criterion: at least
as many jobs as reactive EAR on every pair of the ``harvest-aware``
quick grid), and the paired analysis helpers.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from helpers import build_engine, make_config
from repro.analysis import (
    harvest_comparison,
    harvest_comparison_for,
    harvest_free_twin,
    harvest_impact_for,
)
from repro.harvest import HarvestConfig
from repro.orchestration import build_scenario
from repro.sim.et_sim import run_simulation


def motion_config(**kwargs):
    harvest = HarvestConfig(
        profile=kwargs.pop("profile", "motion"),
        seed=kwargs.pop("harvest_seed", 9),
        amplitude_pj=kwargs.pop("amplitude_pj", 60.0),
        **{
            key: kwargs.pop(key)
            for key in (
                "share_threshold",
                "share_rate_pj",
                "share_efficiency",
            )
            if key in kwargs
        },
    )
    return make_config(harvest=harvest, **kwargs)


class TestHarvestRuns:
    def test_income_extends_delivered_work(self):
        config = motion_config()
        harvesting = run_simulation(config).summary()
        baseline = run_simulation(harvest_free_twin(config)).summary()
        assert harvesting["harvested_pj"] > 0
        assert harvesting["harvest_events"] > 0
        assert (
            harvesting["jobs_fractional"] > baseline["jobs_fractional"]
        )

    def test_harvest_runs_are_deterministic(self):
        config = motion_config(max_jobs=12)
        assert (
            run_simulation(config).summary()
            == run_simulation(config).summary()
        )

    def test_concurrent_engine_harvests_too(self):
        config = motion_config(
            kind="concurrent", concurrency=4, max_jobs=12
        )
        stats = run_simulation(config)
        assert stats.harvested_pj > 0
        assert stats.verification_failures == 0

    def test_recharge_slows_battery_level_decay(self):
        # With income the controller sees fewer (or equal) level-drop
        # recomputations per frame than without, and nodes die later.
        config = motion_config()
        harvesting = run_simulation(config).summary()
        baseline = run_simulation(harvest_free_twin(config)).summary()
        assert (
            harvesting["lifetime_frames"] >= baseline["lifetime_frames"]
        )

    def test_dead_cells_reject_income(self):
        # Run to death: nodes die while income keeps arriving, and no
        # dead cell ever accepts a pulse (its recharge path returns 0,
        # so harvested totals equal the sum over per-node ledgers of
        # what living cells accepted).
        engine = build_engine(motion_config())
        stats = engine.run()
        ledger = stats.energy
        per_node = sum(
            node.harvested_pj for node in ledger.nodes.values()
        )
        assert per_node == pytest.approx(ledger.harvested_pj)
        bank = engine.bank
        for node in range(engine.num_mesh_nodes):
            if not bank.alive[node]:
                assert bank.recharge_one(node, 100.0) == 0.0


class TestPowerBus:
    def test_zero_amplitude_bus_never_shares(self):
        # A zero-amplitude bus has no generators: nothing to harvest
        # and nothing to redistribute.  Even on a long run that opens
        # real SoC gaps between nodes, the run must stay bit-identical
        # to a harvest-free one (the frame hook is fully inert).
        base = make_config(seed=3, max_jobs=60)
        plain = run_simulation(base).summary()
        engine = build_engine(
            dc_replace(
                base,
                harvest=HarvestConfig(profile="bus", amplitude_pj=0.0),
            )
        )
        assert not engine.harvest_active
        assert engine.run().summary() == plain

    def bus_config(self, **kwargs):
        return motion_config(
            profile="bus",
            share_threshold=0.05,
            share_rate_pj=40.0,
            **kwargs,
        )

    def test_bus_moves_charge_with_conversion_loss(self):
        stats = run_simulation(self.bus_config())
        ledger = stats.energy
        assert ledger.shared_pj > 0
        assert ledger.share_tx_pj > ledger.shared_pj
        assert ledger.share_loss_pj == pytest.approx(
            ledger.share_tx_pj - ledger.shared_pj
        )
        # Bus losses surface in the conversion-loss bucket.
        assert stats.conversion_loss_pj >= ledger.share_loss_pj

    def test_bus_narrows_the_charge_spread(self):
        # One shared frame of the bus moves charge from rich donors to
        # their poorest neighbours: by end of run the bus run has moved
        # real energy between cells.
        stats = run_simulation(self.bus_config(max_jobs=30))
        assert stats.shared_pj > 0
        assert stats.verification_failures == 0

    def test_bus_efficiency_bounds_the_arrivals(self):
        config = self.bus_config(share_efficiency=0.6)
        ledger = run_simulation(config).energy
        assert ledger.shared_pj <= 0.6 * ledger.share_tx_pj + 1e-6


class TestHarvestAwareRouting:
    def test_harvest_aware_run_is_deterministic_and_clean(self):
        config = motion_config(harvest_aware=True, max_jobs=12)
        one = run_simulation(config).summary()
        two = run_simulation(config).summary()
        assert one == two
        assert one["verification_failures"] == 0

    def test_harvest_awareness_is_inert_under_sdr(self):
        # SDR never reads income: enabling the flag on an SDR point (as
        # a sweep grid might) must not change a single bit.
        config = motion_config(routing="sdr", max_jobs=10)
        plain = run_simulation(config).summary()
        aware = run_simulation(
            dc_replace(config, harvest_aware=True)
        ).summary()
        assert plain == aware

    def test_harvest_weight_changes_routing_under_income(self):
        # The learned income levels must actually reach the weight
        # matrix: recompute counts diverge once levels start crossing.
        config = motion_config()
        reactive = run_simulation(config).summary()
        aware = run_simulation(
            dc_replace(config, harvest_aware=True)
        ).summary()
        assert aware["recomputes"] != reactive["recomputes"]

    def test_harvest_aware_never_loses_jobs_on_the_quick_grid(self):
        """Acceptance: on the harvest-aware quick grid, the harvest
        bonus completes at least as many jobs as reactive EAR on the
        same income schedule."""
        points = {
            p.label: p
            for p in build_scenario("harvest-aware", scale="quick")
        }
        amplitudes = sorted(
            {
                p.params["amplitude_pj"]
                for p in points.values()
            }
        )
        assert amplitudes  # the grid pairs reactive/aware per amplitude
        for amplitude in amplitudes:
            reactive = run_simulation(
                points[f"a{amplitude:g}/reactive"].config
            ).summary()
            aware = run_simulation(
                points[f"a{amplitude:g}/aware"].config
            ).summary()
            assert (
                aware["jobs_fractional"] >= reactive["jobs_fractional"]
            ), f"harvest-aware lost jobs at amplitude {amplitude}"


class TestHarvestAnalysis:
    def test_harvest_impact_reports_the_gain(self):
        record = harvest_impact_for(motion_config(max_jobs=10))
        assert record["jobs_baseline"] == record["jobs_harvesting"] == 10.0
        assert record["harvested_pj"] >= 0

    def test_harvest_comparison_pairs_reactive_and_aware(self):
        config = motion_config(max_jobs=10)
        record = harvest_comparison_for(config)
        reactive = run_simulation(
            dc_replace(config, harvest_aware=False)
        ).summary()
        aware = run_simulation(
            dc_replace(config, harvest_aware=True)
        ).summary()
        assert record == harvest_comparison(reactive, aware)
        assert record["jobs_gain"] == pytest.approx(
            record["jobs_harvest_aware"] - record["jobs_reactive"]
        )

    def test_harvest_free_twin_strips_everything(self):
        config = motion_config(harvest_aware=True)
        twin = harvest_free_twin(config)
        assert not twin.harvest.is_active
        assert not twin.harvest_aware


class TestHarvestScenarios:
    def test_harvest_motion_smoke_covers_both_engines(self):
        points = build_scenario("harvest-motion", scale="smoke")
        kinds = {p.params["workload"] for p in points}
        assert kinds == {"sequential", "concurrent"}
        assert all(p.config.harvest.profile == "motion" for p in points)

    def test_harvest_aware_grid_pairs_strategies(self):
        points = build_scenario("harvest-aware", scale="quick")
        strategies = {p.params["strategy"] for p in points}
        assert strategies == {"reactive", "aware"}
        by_amplitude: dict[float, set] = {}
        for p in points:
            by_amplitude.setdefault(
                p.params["amplitude_pj"], set()
            ).add(p.params["strategy"])
        assert all(
            pair == {"reactive", "aware"}
            for pair in by_amplitude.values()
        )
        # Paired points share the exact same income schedule.
        for amplitude in by_amplitude:
            pair = [
                p.config.harvest
                for p in points
                if p.params["amplitude_pj"] == amplitude
            ]
            assert pair[0] == pair[1]


class TestLengthScaledBusLoss:
    """The per-segment bus loss scales with physical line length."""

    def test_unit_pitch_reproduces_the_constant_factor_exactly(self):
        # On a uniform-pitch fabric length / pitch == 1.0 and
        # x ** 1.0 == x in IEEE 754, so the length-aware factor is
        # bit-identical to the historical constant-per-hop loss.
        engine = build_engine(make_config())
        pitch = engine.config.platform.link_pitch_cm
        # The memo keys by length alone (the efficiency is a run-wide
        # constant), so clear it between probes.
        for efficiency in (0.6, 0.85, 0.999):
            engine._share_factor_by_length.clear()
            assert (
                engine._share_arrival_factor(pitch, efficiency)
                == efficiency
            )

    def test_longer_lines_lose_proportionally_more(self):
        engine = build_engine(make_config())
        pitch = engine.config.platform.link_pitch_cm
        efficiency = 0.85
        assert engine._share_arrival_factor(
            2 * pitch, efficiency
        ) == pytest.approx(efficiency**2)
        assert engine._share_arrival_factor(
            1.5 * pitch, efficiency
        ) < engine._share_arrival_factor(pitch, efficiency)

    def test_factor_is_memoised_per_length(self):
        engine = build_engine(make_config())
        pitch = engine.config.platform.link_pitch_cm
        engine._share_arrival_factor(pitch, 0.85)
        assert pitch in engine._share_factor_by_length
        again = engine._share_arrival_factor(pitch, 0.85)
        assert again == engine._share_factor_by_length[pitch]
