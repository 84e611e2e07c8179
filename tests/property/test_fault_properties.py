"""Property tests of the fault-injection subsystem.

The three load-bearing guarantees:

* determinism — the same seed yields the identical fault schedule and
  the identical run record, across profiles and engines;
* isolation — a run with an empty fault schedule is bit-identical to a
  fault-free run;
* safety — no packet ever traverses a link after it has been cut.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_config
from repro.faults import (
    FAULT_PROFILES,
    FaultConfig,
    FaultRuntime,
    build_fault_schedule,
    fabric_links,
)
from repro.mesh.topology import mesh2d
from repro.sim.et_sim import run_simulation
from repro.sim.sequential_engine import SequentialEngine

ACTIVE_PROFILES = tuple(p for p in FAULT_PROFILES if p != "none")


class TestScheduleDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(ACTIVE_PROFILES),
        width=st.integers(2, 6),
    )
    def test_same_seed_same_schedule(self, seed, profile, width):
        topology = mesh2d(width)
        config = FaultConfig(profile=profile, seed=seed)
        first = build_fault_schedule(
            config, topology, num_mesh_nodes=width * width,
            horizon_frames=10_000,
        )
        second = build_fault_schedule(
            config, mesh2d(width), num_mesh_nodes=width * width,
            horizon_frames=10_000,
        )
        assert first == second
        assert len(first) > 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(ACTIVE_PROFILES),
    )
    def test_events_ordered_and_internal(self, seed, profile):
        topology = mesh2d(4)
        schedule = build_fault_schedule(
            FaultConfig(profile=profile, seed=seed),
            topology,
            num_mesh_nodes=16,
            horizon_frames=10_000,
        )
        frames = [event.frame for event in schedule]
        assert frames == sorted(frames)
        links = set(fabric_links(topology, 16))
        for event in schedule:
            if event.kind == "node-kill":
                assert 0 <= event.node_a < 16
            else:
                pair = (
                    min(event.node_a, event.node_b),
                    max(event.node_a, event.node_b),
                )
                assert pair in links  # never the external source line

    def test_different_seeds_differ(self):
        topology = mesh2d(4)
        schedules = {
            build_fault_schedule(
                FaultConfig(profile="link-attrition", seed=seed),
                topology,
                num_mesh_nodes=16,
                horizon_frames=10_000,
            ).events
            for seed in range(8)
        }
        assert len(schedules) > 1


#: FaultConfig keyword arguments of each repair model: none, a timer
#: per cut, and a crew of two.
REPAIR_MODELS = (
    {},
    {"repair_after_frames": 12},
    {"repair_crew_size": 2, "repair_latency_frames": 20},
)

fault_configs = st.builds(
    lambda profile, seed, repair, corrode, intensity: FaultConfig(
        profile=profile,
        seed=seed,
        intensity=intensity,
        corrode_after_frames=corrode,
        **repair,
    ),
    profile=st.sampled_from(ACTIVE_PROFILES),
    seed=st.integers(0, 2**32 - 1),
    repair=st.sampled_from(REPAIR_MODELS),
    corrode=st.sampled_from((0, 24)),
    intensity=st.sampled_from((0.5, 1.0, 4.0)),
)


class TestScheduleGrowth:
    """A run's fault runtime builds the schedule in doubling horizons;
    that is exact only because the events below a horizon never depend
    on it."""

    @settings(max_examples=60, deadline=None)
    @given(config=fault_configs, horizon=st.integers(1, 1024))
    def test_a_shorter_horizon_builds_a_prefix(self, config, horizon):
        longer = build_fault_schedule(config, mesh2d(5), 25, 2048).events
        shorter = build_fault_schedule(config, mesh2d(5), 25, horizon).events
        assert shorter == longer[: len(shorter)]
        assert all(event.frame >= horizon for event in longer[len(shorter):])

    @settings(max_examples=40, deadline=None)
    @given(
        config=fault_configs,
        max_frames=st.integers(1, 1500),
        steps=st.lists(st.integers(1, 300), max_size=12),
    )
    def test_a_growing_runtime_delivers_the_whole_schedule(
        self, config, max_frames, steps
    ):
        whole = build_fault_schedule(config, mesh2d(5), 25, max_frames)
        eager = FaultRuntime(whole)
        grown = FaultRuntime.for_run(config, mesh2d(5), 25, max_frames)
        frame = 0
        for step in [0, *steps, max_frames]:
            frame = min(frame + step, max_frames - 1)
            assert grown.due(frame) == eager.due(frame)
        assert grown.schedule == whole


class TestRunDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        profile=st.sampled_from(ACTIVE_PROFILES),
    )
    def test_same_seed_identical_run_records(self, seed, profile):
        config = make_config(
            fault_profile=profile, fault_seed=seed, max_jobs=6
        )
        first = run_simulation(config).summary()
        second = run_simulation(config).summary()
        assert first == second

    def test_concurrent_engine_deterministic_under_faults(self):
        config = make_config(
            kind="concurrent",
            concurrency=4,
            fault_profile="link-attrition",
            fault_seed=11,
            max_jobs=12,
        )
        assert (
            run_simulation(config).summary()
            == run_simulation(config).summary()
        )


class TestEmptyScheduleIsolation:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_none_profile_bit_identical_to_fault_free(self, seed):
        # The seed of an inactive profile must be completely inert.
        fault_free = make_config(max_jobs=6)
        empty = replace(
            fault_free, faults=FaultConfig(profile="none", seed=seed)
        )
        assert (
            run_simulation(empty).summary()
            == run_simulation(fault_free).summary()
        )

    def test_zero_link_fraction_cuts_at_most_one(self):
        # max_link_fraction=0 disables attrition cuts entirely.
        config = make_config(
            faults=FaultConfig(
                profile="link-attrition", seed=1, max_link_fraction=0.0
            ),
            max_jobs=6,
        )
        assert run_simulation(config).summary()["links_cut"] == 0


class TestTearCorrelation:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(3, 7),
    )
    def test_tear_bursts_cut_connected_neighbourhoods(self, seed, width):
        """Every tear burst (the link-cut events of one frame) severs a
        *connected* patch of the torn area: each cut link shares an
        endpoint with another cut link of the same burst, or with a
        link severed by an earlier tear (the schedule never re-cuts a
        severed line, so a burst extending an existing tear connects
        through it; single-link tears are trivially connected)."""
        schedule = build_fault_schedule(
            FaultConfig(profile="tear", seed=seed),
            mesh2d(width),
            num_mesh_nodes=width * width,
            horizon_frames=100_000,
        )
        bursts: dict[int, list[tuple[int, int]]] = {}
        for event in schedule:
            if event.kind == "link-cut":
                bursts.setdefault(event.frame, []).append(
                    (event.node_a, event.node_b)
                )
        assert bursts
        torn: list[tuple[int, int]] = []
        for frame in sorted(bursts):
            batch = bursts[frame]
            # Union-find over links sharing endpoints, across this
            # burst plus everything torn before it.
            components = [set(pair) for pair in batch + torn]
            merged = True
            while merged:
                merged = False
                for i in range(len(components)):
                    for j in range(i + 1, len(components)):
                        if components[i] & components[j]:
                            components[i] |= components.pop(j)
                            merged = True
                            break
                    if merged:
                        break
            holding = [
                component
                for component in components
                if any(set(pair) & component for pair in batch)
            ]
            assert len(holding) == 1, (
                f"tear burst {batch} is not a connected patch"
            )
            torn.extend(batch)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_moisture_only_degrades(self, seed):
        schedule = build_fault_schedule(
            FaultConfig(profile="moisture", seed=seed),
            mesh2d(4),
            num_mesh_nodes=16,
            horizon_frames=5_000,
        )
        assert len(schedule) > 0
        assert all(event.kind == "link-degrade" for event in schedule)


class _HopRecordingEngine(SequentialEngine):
    """Sequential engine that logs every hop with the link state."""

    def __init__(self, config):
        super().__init__(config)
        self.violations: list[tuple[int, int]] = []
        #: Every hop as ``(frame, sender, receiver)``.
        self.hops: list[tuple[int, int, int]] = []

    def _transmit(self, sender, receiver, holder):
        if receiver not in self.lengths[sender]:
            self.violations.append((sender, receiver))
        self.hops.append((self.frames_done, sender, receiver))
        return super()._transmit(sender, receiver, holder)


class TestNoTrafficOverCutLinks:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        profile=st.sampled_from(("link-attrition", "wash-cycle")),
    )
    def test_sequential_never_uses_cut_links(self, seed, profile):
        config = make_config(
            fault_profile=profile,
            fault_seed=seed,
            fault_intensity=2.0,
            max_jobs=10,
        )
        engine = _HopRecordingEngine(config)
        stats = engine.run()
        assert engine.violations == []
        assert stats.verification_failures == 0

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        profile=st.sampled_from(("tear", "moisture")),
    )
    def test_correlated_profiles_never_use_cut_links(self, seed, profile):
        config = make_config(
            fault_profile=profile, fault_seed=seed, max_jobs=8
        )
        engine = _HopRecordingEngine(config)
        stats = engine.run()
        assert engine.violations == []
        assert stats.verification_failures == 0

    @pytest.mark.parametrize("seed", (0, 1, 5, 9))
    def test_post_repair_traffic_traverses_the_resewn_line(self, seed):
        """A repair must actually restore routing *over* the line: after
        a cut link is re-sewn, later traffic crosses the re-sewn line
        again (not merely around it)."""
        config = make_config(
            faults=FaultConfig(
                profile="tear", seed=seed, repair_after_frames=24
            ),
            max_jobs=8,
        )
        engine = _HopRecordingEngine(config)
        stats = engine.run()
        assert engine.violations == []
        assert stats.links_repaired > 0
        repair_frames = {
            (event.node_a, event.node_b): event.frame
            for event in engine.faults.schedule
            if event.kind == "link-repair"
        }
        crossings = 0
        for (u, v), frame in repair_frames.items():
            crossings += sum(
                1
                for hop_frame, sender, receiver in engine.hops
                if hop_frame >= frame
                and {sender, receiver} == {u, v}
            )
        assert crossings > 0

    def test_concurrent_run_survives_heavy_attrition(self):
        # _transmit raises SimulationError on any cut-link traversal, so
        # a clean run is itself the safety proof for the buffered engine.
        config = make_config(
            kind="concurrent",
            concurrency=4,
            fault_profile="link-attrition",
            fault_seed=5,
            fault_intensity=4.0,
            max_jobs=15,
        )
        stats = run_simulation(config)
        assert stats.links_cut > 0
        assert stats.verification_failures == 0
