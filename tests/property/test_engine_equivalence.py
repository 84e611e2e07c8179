"""Cross-engine property / metamorphic tests.

The sequential, concurrent and vector engines share one platform
(``EngineBase``) and differ only in how jobs move and when battery
draws land.  Until now only the golden smoke points pinned their
agreement; this module asserts it three-way over *randomised* small
configurations (Hypothesis):

* **Delivery** — with the concurrent engine throttled to one in-flight
  job, all three engines must complete exactly the same number of jobs
  under a job budget (and corrupt nothing).
* **Conservation** — the energy identity
  ``nominal + harvested == loads + conversion_loss + wasted + stranded``
  must close on every engine, whatever mix of faults, heterogeneous
  harvest hardware and multi-hop bus sharing is active; each per-node
  ledger column sums to its bucket, and the ledger's death record
  names exactly the nodes that left the live set.
* **Event counts** — fault schedules are pure functions of the
  configuration, so once the runs outlive the last scheduled event
  they must have applied identical fault counts; harvest events are
  checked against an independent oracle computed from the income
  schedule itself.

The vector engine intentionally batches draws to frame boundaries, so
EMA trajectories and exact death frames may drift from the sequential
engine; the properties above are exactly the quantities that must not.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import make_config
from repro.faults import FaultConfig, build_fault_schedule
from repro.harvest import HarvestConfig, HarvestHardware, build_harvest_schedule
from repro.sim.registry import build_engine

#: The three engine variants under comparison, as make_config kwargs:
#: the vector engine runs the sequential workload, selected by name.
ENGINE_VARIANTS = {
    "sequential": {"kind": "sequential", "engine": "sequential"},
    "concurrent": {"kind": "concurrent", "engine": "concurrent"},
    "vector": {"kind": "sequential", "engine": "vector"},
}


def harvest_configs(seed: int) -> st.SearchStrategy[HarvestConfig]:
    """Randomised harvest sections, heterogeneous hardware included."""
    hardware = st.builds(
        HarvestHardware,
        equipped_fraction=st.sampled_from([0.25, 0.5, 1.0]),
        placement=st.sampled_from(["flex", "random", "spread"]),
        seed=st.just(seed),
        gain_spread=st.sampled_from([0.0, 0.3]),
    )
    return st.one_of(
        st.just(HarvestConfig()),
        st.builds(
            HarvestConfig,
            profile=st.sampled_from(["motion", "solar", "bus"]),
            seed=st.just(seed),
            amplitude_pj=st.floats(min_value=5.0, max_value=120.0),
            share_max_hops=st.integers(min_value=1, max_value=3),
            hardware=hardware,
        ),
    )


class TestDeliveryAgreement:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50_000),
        battery=st.sampled_from(["ideal", "thin-film"]),
        data=st.data(),
    )
    def test_engines_agree_on_jobs_completed(self, seed, battery, data):
        harvest = data.draw(harvest_configs(seed))
        summaries = {}
        for name, variant in ENGINE_VARIANTS.items():
            config = make_config(
                concurrency=1,
                battery=battery,
                max_jobs=4,
                seed=seed,
                harvest=harvest,
                **variant,
            )
            summaries[name] = build_engine(config).run().summary()
        # Every run must end on the budget, not on an early death.
        for summary in summaries.values():
            assume(summary["death_cause"] == "job-budget")
        completed = {
            name: summary["jobs_completed"]
            for name, summary in summaries.items()
        }
        assert len(set(completed.values())) == 1, completed
        for summary in summaries.values():
            assert summary["verification_failures"] == 0


class TestConservationAgreement:
    @settings(max_examples=12, deadline=None)
    @given(
        engine_name=st.sampled_from(["sequential", "concurrent", "vector"]),
        battery=st.sampled_from(["ideal", "thin-film"]),
        seed=st.integers(min_value=0, max_value=50_000),
        with_faults=st.booleans(),
        data=st.data(),
    )
    def test_identity_closes_under_the_full_feature_mix(
        self, engine_name, battery, seed, with_faults, data
    ):
        harvest = data.draw(harvest_configs(seed))
        faults = (
            FaultConfig(profile="link-attrition", seed=seed, intensity=2.0)
            if with_faults
            else FaultConfig()
        )
        variant = ENGINE_VARIANTS[engine_name]
        config = make_config(
            concurrency=2 if variant["kind"] == "concurrent" else 1,
            battery=battery,
            max_jobs=6,
            seed=seed,
            harvest=harvest,
            faults=faults,
            **variant,
        )
        engine = build_engine(config)
        stats = engine.run()
        ledger = stats.energy
        mesh = config.platform.num_mesh_nodes
        nominal = config.platform.battery_capacity_pj * mesh
        delivered = engine.bank.delivered.sum()
        recharged = engine.bank.recharged.sum()
        residual = stats.wasted_at_death_pj + stats.stranded_alive_pj
        assert delivered == approx(ledger.node_total_pj)
        assert recharged == approx(ledger.harvested_pj + ledger.shared_pj)
        loads = ledger.node_total_pj - ledger.share_tx_pj
        assert nominal + stats.harvested_pj == approx(
            loads + stats.conversion_loss_pj + residual
        )
        nodes = ledger.nodes
        for bucket in (
            "compute_pj",
            "data_tx_pj",
            "upload_pj",
            "share_tx_pj",
            "harvested_pj",
            "shared_pj",
        ):
            assert math.isclose(
                getattr(nodes, bucket).sum(),
                getattr(ledger, bucket),
                rel_tol=1e-9,
                abs_tol=1e-6,
            ), bucket
        dead = set(range(mesh)) - engine._alive_set
        assert set(np.flatnonzero(nodes.died_at_frame >= 0).tolist()) == dead


class TestEventCountAgreement:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50_000),
        profile=st.sampled_from(["link-attrition", "wash-cycle"]),
    )
    def test_engines_agree_on_fault_event_counts(self, seed, profile):
        """The fault schedule is engine-independent: once both runs
        outlive the last scheduled event, every fault counter agrees."""
        faults = FaultConfig(
            profile=profile, seed=seed, intensity=2.0, max_link_fraction=0.15
        )
        counters = []
        for variant in ENGINE_VARIANTS.values():
            config = make_config(
                concurrency=1,
                max_jobs=10,
                seed=seed,
                faults=faults,
                **variant,
            )
            engine = build_engine(config)
            # The whole schedule: the engine's runtime builds only as
            # far as the run reaches.
            schedule = build_fault_schedule(
                faults,
                config.platform.make_topology(),
                config.platform.num_mesh_nodes,
                config.workload.max_frames,
            )
            last_event_frame = max(
                (event.frame for event in schedule), default=0
            )
            stats = engine.run()
            assume(stats.lifetime_frames > last_event_frame)
            counters.append(
                (
                    stats.faults_injected,
                    stats.links_cut,
                    stats.links_degraded,
                    stats.nodes_fault_killed,
                )
            )
        assert counters[0] == counters[1] == counters[2]

    @settings(max_examples=10, deadline=None)
    @given(
        engine_name=st.sampled_from(["sequential", "concurrent", "vector"]),
        profile=st.sampled_from(["motion", "solar"]),
        seed=st.integers(min_value=0, max_value=50_000),
        fraction=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_harvest_event_counts_match_the_schedule_oracle(
        self, engine_name, profile, seed, fraction
    ):
        """Each engine's accepted-pulse count is pinned to an oracle
        computed from the income schedule alone: with no deaths and
        income below the per-frame upload drain, every positive pulse
        after frame 0 is accepted (frame 0 finds full cells), so the
        count is a pure function of the schedule and the lifetime —
        the engine-independent quantity both code paths must agree on.
        """
        # The amplitude must stay below the ~1.8 pJ upload energy every
        # living node pays each frame, so refilled cells always keep
        # headroom and no pulse is ever rejected; income starts at
        # frame 1 because frame 0's cells are only as depleted as the
        # work already dispatched — an engine-dependent quantity.
        harvest = HarvestConfig(
            profile=profile,
            seed=seed,
            amplitude_pj=1.5,
            start_frame=1,
            hardware=HarvestHardware(
                equipped_fraction=fraction, placement="random", seed=seed
            ),
        )
        config = make_config(
            concurrency=1,
            max_jobs=6,
            seed=seed,
            harvest=harvest,
            **ENGINE_VARIANTS[engine_name],
        )
        engine = build_engine(config)
        assert harvest.amplitude_pj <= engine.schedule.upload_energy_pj
        stats = engine.run()
        mesh = config.platform.num_mesh_nodes
        assume(set(range(mesh)) <= engine._alive_set)
        oracle_schedule = build_harvest_schedule(
            harvest, config.platform.make_topology(), mesh
        )
        expected = 0
        for frame in range(1, stats.lifetime_frames):
            income = oracle_schedule.income(frame)
            if income is not None:
                expected += sum(1 for value in income if value > 0.0)
        assert stats.energy.harvest_events == expected


class TestEcmpAgreement:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50_000),
        ecmp_seed=st.integers(min_value=0, max_value=1_000),
        congestion=st.booleans(),
    )
    def test_engines_agree_on_jobs_under_ecmp(
        self, seed, ecmp_seed, congestion
    ):
        """ECMP rotation state is rebuilt with every routing plan and
        advanced once per forwarded packet, so all three engines drive
        identical per-pair call sequences for the same workload — the
        spread hops, and therefore the delivery count, must agree
        three-way just as the canonical-successor path does.
        """
        from repro.config import RoutingOptions

        opts = RoutingOptions(
            congestion_aware=congestion,
            congestion_q=1.25 if congestion else 1.6,
            ecmp=True,
            ecmp_seed=ecmp_seed,
        )
        if not congestion:
            opts = RoutingOptions(ecmp=True, ecmp_seed=ecmp_seed)
        summaries = {}
        for name, variant in ENGINE_VARIANTS.items():
            config = make_config(
                concurrency=1,
                max_jobs=4,
                seed=seed,
                routing_opts=opts,
                **variant,
            )
            summaries[name] = build_engine(config).run().summary()
        for summary in summaries.values():
            assume(summary["death_cause"] == "job-budget")
        completed = {
            name: summary["jobs_completed"]
            for name, summary in summaries.items()
        }
        assert len(set(completed.values())) == 1, completed
        hops = {
            name: summary["total_hops"]
            for name, summary in summaries.items()
        }
        assert len(set(hops.values())) == 1, hops
        for summary in summaries.values():
            assert summary["verification_failures"] == 0


def approx(value: float):
    import pytest

    return pytest.approx(value, rel=1e-9)
