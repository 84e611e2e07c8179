"""Unit tests: fault configuration, schedule generation, runtime state,
and sweep-cache invalidation on fault-profile changes."""

from __future__ import annotations

from dataclasses import replace

import pytest

from helpers import build_engine, make_config
from repro.core.costs import WEAR_CHANNEL
from repro.core.trees import line_slots
from repro.errors import ConfigurationError
from repro.faults import (
    FAULT_PROFILES,
    FaultConfig,
    FaultEvent,
    FaultRuntime,
    FaultSchedule,
    build_fault_schedule,
    fabric_links,
)
from repro.faults.schedule import FIRST_HORIZON_FRAMES
from repro.mesh.topology import attach_external_node, mesh2d
from repro.orchestration import config_hash
from repro.sim.level_estimators import WearEstimator


class TestFaultConfig:
    def test_defaults_are_inactive(self):
        config = FaultConfig()
        assert config.profile == "none"
        assert not config.is_active

    @pytest.mark.parametrize("profile", FAULT_PROFILES[1:])
    def test_active_profiles(self, profile):
        assert FaultConfig(profile=profile).is_active

    def test_rejects_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(profile="meteor-strike")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"intensity": 0.0},
            {"intensity": -1.0},
            {"start_frame": -1},
            {"period_frames": 0},
            {"max_link_fraction": 1.5},
            {"max_node_fraction": 1.0},
            {"degrade_factor": 0.5},
            {"degrade_frames": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultConfig(profile="link-attrition", **kwargs)

    def test_round_trips_through_simulation_config(self):
        config = make_config(fault_profile="wash-cycle", fault_seed=42)
        rebuilt = type(config).from_dict(config.to_dict())
        assert rebuilt.faults == config.faults

    def test_old_documents_without_faults_section_still_load(self):
        config = make_config()
        raw = config.to_dict()
        del raw["faults"]
        assert type(config).from_dict(raw).faults == FaultConfig()


class TestFabricLinks:
    def test_excludes_external_attachments(self):
        topology = mesh2d(4)
        external = attach_external_node(topology, 0, 10.0)
        links = fabric_links(topology, num_mesh_nodes=16)
        assert len(links) == 24  # 2 * 4 * 3 internal mesh lines
        assert all(external not in pair for pair in links)
        assert links == sorted(links)


class TestScheduleBuilders:
    def test_none_profile_is_empty(self):
        schedule = build_fault_schedule(
            FaultConfig(), mesh2d(4), num_mesh_nodes=16, horizon_frames=1000
        )
        assert not schedule.events
        assert len(schedule) == 0

    def test_attrition_respects_link_budget(self):
        config = FaultConfig(
            profile="link-attrition", seed=1, max_link_fraction=0.25
        )
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=100_000
        )
        cuts = [e for e in schedule if e.kind == "link-cut"]
        assert 0 < len(cuts) <= int(24 * 0.25)
        assert len({(e.node_a, e.node_b) for e in cuts}) == len(cuts)

    def test_intensity_accelerates_cadence(self):
        slow = build_fault_schedule(
            FaultConfig(profile="link-attrition", seed=1, intensity=1.0),
            mesh2d(4), num_mesh_nodes=16, horizon_frames=100_000,
        )
        fast = build_fault_schedule(
            FaultConfig(profile="link-attrition", seed=1, intensity=4.0),
            mesh2d(4), num_mesh_nodes=16, horizon_frames=100_000,
        )
        assert fast.events[-1].frame < slow.events[-1].frame

    def test_horizon_caps_events(self):
        schedule = build_fault_schedule(
            FaultConfig(profile="wash-cycle", seed=1),
            mesh2d(4), num_mesh_nodes=16, horizon_frames=200,
        )
        assert all(event.frame < 200 for event in schedule)

    def test_zero_node_fraction_disables_dropout(self):
        schedule = build_fault_schedule(
            FaultConfig(profile="node-dropout", seed=1,
                        max_node_fraction=0.0),
            mesh2d(4), num_mesh_nodes=16, horizon_frames=100_000,
        )
        assert not schedule.events

    def test_dropout_never_touches_the_source(self):
        schedule = build_fault_schedule(
            FaultConfig(profile="node-dropout", seed=1,
                        max_node_fraction=0.9),
            mesh2d(4), num_mesh_nodes=16, horizon_frames=100_000,
        )
        kills = [e for e in schedule if e.kind == "node-kill"]
        assert kills
        assert all(0 <= e.node_a < 16 for e in kills)
        # never every node: the fabric keeps at least one survivor
        assert len(kills) < 16

    def test_event_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultEvent(frame=0, kind="gremlin", node_a=0)


class TestFaultRuntime:
    def make_runtime(self):
        return FaultRuntime(
            FaultSchedule(
                [
                    FaultEvent(frame=2, kind="link-cut", node_a=0, node_b=1),
                    FaultEvent(frame=2, kind="node-kill", node_a=5),
                    FaultEvent(frame=7, kind="link-degrade", node_a=2,
                               node_b=3, factor=2.0, duration_frames=3),
                ]
            )
        )

    def test_due_drains_in_frame_order(self):
        runtime = self.make_runtime()
        assert runtime.due(1) == []
        assert len(runtime.due(2)) == 2
        assert runtime.due(2) == []  # already delivered
        assert len(runtime.due(100)) == 1

    def test_cut_marks_both_directions(self):
        engine = build_engine(make_config())
        engine.faults = self.make_runtime()
        engine._apply_faults(2)
        assert not engine._link_alive(0, 1)
        assert not engine._link_alive(1, 0)
        assert engine._link_alive(0, 4)

    def test_a_cut_drops_its_lines_running_degradation(self):
        """A line degraded for ten frames and cut while degraded stays
        cut: its degradation's expiry must neither re-insert the line's
        working lengths nor overwrite the controller's discovered inf."""
        engine = build_engine(make_config())
        u, v = 5, 6
        engine.faults = FaultRuntime(
            FaultSchedule(
                [
                    FaultEvent(
                        frame=4, kind="link-degrade", node_a=u, node_b=v,
                        factor=2.0, duration_frames=10,
                    ),
                    FaultEvent(frame=6, kind="link-cut", node_a=u, node_b=v),
                ]
            )
        )
        for frame in range(4, 7):
            engine._apply_faults(frame)
        assert (u, v) not in engine.faults.degraded
        engine._note_fault_block(u, v)
        for frame in range(7, 21):
            engine._apply_faults(frame)
        assert v not in engine.lengths[u]
        assert u not in engine.lengths[v]
        assert engine.control.known_length(u, v) == float("inf")
        assert engine.control.known_length(v, u) == float("inf")

    def test_degradation_expiry(self):
        runtime = self.make_runtime()
        runtime.degraded[(2, 3)] = (2.0, 10)
        assert runtime.expire_degradations(9) == []
        assert runtime.expire_degradations(10) == [(2, 3)]
        assert runtime.degraded == {}

    def test_a_run_builds_only_the_frames_it_reaches(self):
        """A wash-cycle engine with the default 200,000-frame budget
        holds the events of its first 64 frames, and a run that stops
        early never builds more.  What it built on the engine's own
        topology, source line included, is the prefix of the schedule a
        fresh fabric gives."""
        config = make_config(fault_profile="wash-cycle", fault_seed=1)
        assert config.workload.max_frames == 200_000
        engine = build_engine(config)
        assert engine.faults.schedule.events
        assert all(
            event.frame < FIRST_HORIZON_FRAMES
            for event in engine.faults.schedule
        )
        stats = engine.run()
        grown = engine.faults.schedule.events
        last = max(event.frame for event in grown)
        assert last >= FIRST_HORIZON_FRAMES
        assert last < 2 * max(stats.lifetime_frames, FIRST_HORIZON_FRAMES)
        whole = build_fault_schedule(
            config.faults,
            config.platform.make_topology(),
            config.platform.num_mesh_nodes,
            config.workload.max_frames,
        )
        assert stats.links_cut > 0
        assert grown == whole.events[: len(grown)]

    def test_growth_doubles_to_the_budget_and_stops(self):
        built = []

        def build(horizon):
            built.append(horizon)
            return FaultSchedule(
                FaultEvent(frame=f, kind="node-kill", node_a=0)
                for f in range(0, horizon, 10)
            )

        runtime = FaultRuntime(build(16), build, 16, 100)
        assert [e.frame for e in runtime.due(15)] == [0, 10]
        assert [e.frame for e in runtime.due(16)] == []
        assert [e.frame for e in runtime.due(70)] == [20, 30, 40, 50, 60, 70]
        assert [e.frame for e in runtime.due(10_000)] == [80, 90]
        assert runtime.due(10_001) == []
        assert built == [16, 32, 100]


class TestTearSchedule:
    def test_tear_cuts_a_neighbourhood_in_one_event(self):
        config = FaultConfig(profile="tear", seed=3)
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=100_000
        )
        cuts = [e for e in schedule if e.kind == "link-cut"]
        assert cuts
        by_frame: dict[int, list] = {}
        for event in cuts:
            by_frame.setdefault(event.frame, []).append(event)
        # Correlation: at least one burst severs several links at once.
        assert max(len(batch) for batch in by_frame.values()) > 1

    def test_tear_respects_link_budget(self):
        config = FaultConfig(
            profile="tear", seed=1, max_link_fraction=0.25
        )
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=100_000
        )
        cuts = [e for e in schedule if e.kind == "link-cut"]
        assert 0 < len(cuts) <= int(24 * 0.25)
        assert len({(e.node_a, e.node_b) for e in cuts}) == len(cuts)

    def test_tear_radius_limits_the_neighbourhood(self):
        topology = mesh2d(6)
        wide = build_fault_schedule(
            FaultConfig(profile="tear", seed=2, tear_radius=2.5),
            topology, num_mesh_nodes=36, horizon_frames=100_000,
        )
        narrow = build_fault_schedule(
            FaultConfig(profile="tear", seed=2, tear_radius=0.8),
            topology, num_mesh_nodes=36, horizon_frames=100_000,
        )
        # Same budget, but the narrow tear needs more bursts: its first
        # burst severs fewer links.
        def first_burst(schedule):
            cuts = [e for e in schedule if e.kind == "link-cut"]
            first = min(e.frame for e in cuts)
            return [e for e in cuts if e.frame == first]

        assert len(first_burst(narrow)) < len(first_burst(wide))

    def test_tear_without_geometry_degrades_to_single_links(self):
        from repro.mesh.topology import Topology

        topology = Topology(4, name="strip")
        for u in range(3):
            topology.add_edge(u, u + 1, 1.0)
        schedule = build_fault_schedule(
            FaultConfig(profile="tear", seed=1, max_link_fraction=1.0),
            topology, num_mesh_nodes=4, horizon_frames=100_000,
        )
        cuts = [e for e in schedule if e.kind == "link-cut"]
        assert cuts
        # No midpoints to correlate on: every burst is one link.
        frames = [e.frame for e in cuts]
        assert len(set(frames)) == len(frames)

    def test_moisture_without_geometry_degrades_single_links(self):
        from repro.mesh.topology import Topology

        topology = Topology(4, name="strip")
        for u in range(3):
            topology.add_edge(u, u + 1, 1.0)
        schedule = build_fault_schedule(
            FaultConfig(profile="moisture", seed=1),
            topology, num_mesh_nodes=4, horizon_frames=500,
        )
        assert len(schedule) > 0
        by_frame: dict[int, int] = {}
        for event in schedule:
            assert event.kind == "link-degrade"
            by_frame[event.frame] = by_frame.get(event.frame, 0) + 1
        assert all(count == 1 for count in by_frame.values())

    def test_rejects_bad_radius(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(profile="tear", tear_radius=0.0)
        with pytest.raises(ConfigurationError):
            FaultConfig(profile="moisture", moisture_radius=-1.0)


class TestMoistureSchedule:
    def test_moisture_degrades_a_region_together(self):
        config = FaultConfig(profile="moisture", seed=5)
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=200
        )
        assert len(schedule) > 0
        assert all(e.kind == "link-degrade" for e in schedule)
        by_frame: dict[int, list] = {}
        for event in schedule:
            by_frame.setdefault(event.frame, []).append(event)
        # A patch of radius 2 on a 4x4 mesh always covers several links.
        assert all(len(batch) > 1 for batch in by_frame.values())
        assert all(
            e.factor == config.degrade_factor
            and e.duration_frames == config.degrade_frames
            for e in schedule
        )

    def test_moisture_patch_drifts(self):
        config = FaultConfig(
            profile="moisture", seed=5, moisture_radius=1.0
        )
        schedule = build_fault_schedule(
            config, mesh2d(6), num_mesh_nodes=36, horizon_frames=2_000
        )
        patches = {}
        for event in schedule:
            patches.setdefault(event.frame, set()).add(
                (event.node_a, event.node_b)
            )
        # The drifting centre produces at least two distinct patches.
        assert len({frozenset(patch) for patch in patches.values()}) > 1


class TestRepairSchedule:
    def test_repair_follows_every_cut(self):
        config = FaultConfig(
            profile="link-attrition", seed=1, repair_after_frames=10
        )
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=100_000
        )
        cuts = {
            (e.node_a, e.node_b): e.frame
            for e in schedule
            if e.kind == "link-cut"
        }
        repairs = {
            (e.node_a, e.node_b): e.frame
            for e in schedule
            if e.kind == "link-repair"
        }
        assert cuts
        assert set(repairs) == set(cuts)
        for pair, frame in repairs.items():
            assert frame == cuts[pair] + 10

    def test_repairs_past_horizon_are_dropped(self):
        config = FaultConfig(
            profile="link-attrition", seed=1, repair_after_frames=10**6
        )
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=1_000
        )
        assert not [e for e in schedule if e.kind == "link-repair"]

    def test_zero_repair_frames_means_no_repairs(self):
        config = FaultConfig(profile="tear", seed=1)
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=100_000
        )
        assert not [e for e in schedule if e.kind == "link-repair"]

    def test_rejects_negative_repair_frames(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(profile="tear", repair_after_frames=-1)

    def test_cutting_profiles_constant_matches_reality(self):
        """:data:`CUTTING_PROFILES` documents which profiles emit
        permanent cuts (and therefore respond to repair_after_frames);
        derive the set empirically so the constant cannot go stale when
        a profile is added."""
        from repro.faults import CUTTING_PROFILES

        cutting = set()
        for profile in FAULT_PROFILES:
            if profile == "none":
                continue
            for seed in range(4):
                schedule = build_fault_schedule(
                    FaultConfig(
                        profile=profile, seed=seed, max_link_fraction=0.5
                    ),
                    mesh2d(4),
                    num_mesh_nodes=16,
                    horizon_frames=50_000,
                )
                if any(e.kind == "link-cut" for e in schedule):
                    cutting.add(profile)
                    break
        assert cutting == set(CUTTING_PROFILES)


class TestWashCycleBudget:
    def test_cut_budget_not_burned_on_duplicates(self):
        # Long horizon: the burst loop offers far more cut opportunities
        # than the budget, so duplicate picks would visibly undershoot.
        config = FaultConfig(
            profile="wash-cycle", seed=9, max_link_fraction=0.25
        )
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=20_000
        )
        cuts = [e for e in schedule if e.kind == "link-cut"]
        assert len(cuts) == int(24 * 0.25)
        # ... and every cut severs a *distinct* line.
        assert len({(e.node_a, e.node_b) for e in cuts}) == len(cuts)

    @pytest.mark.parametrize("seed", range(6))
    def test_cuts_unique_across_seeds(self, seed):
        config = FaultConfig(
            profile="wash-cycle", seed=seed, max_link_fraction=0.5
        )
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=50_000
        )
        cuts = [(e.node_a, e.node_b) for e in schedule if e.kind == "link-cut"]
        assert len(set(cuts)) == len(cuts)


#: Neighbour table of a 2x2 mesh: rows [1, 2], [0, 3], [0, 3], [1, 2].
SQUARE = line_slots(mesh2d(2))[0]


def wear_estimator(quantum: int, levels: int = 8) -> WearEstimator:
    channel = replace(WEAR_CHANNEL, quantum=quantum, levels=levels)
    return WearEstimator(channel, num_mesh_nodes=4)


class TestWearTracking:
    def test_traversals_quantise_into_levels(self):
        wear = wear_estimator(quantum=4)
        for _ in range(3):
            wear.note_traversal(0, 1)
        assert not wear.dirty  # still level 0
        wear.note_traversal(1, 0)  # 4th crossing, either direction
        assert wear.dirty
        # Both directions: node 1 is node 0's first neighbour and node
        # 0 is node 1's.
        levels = wear.levels(SQUARE)
        assert levels[0, 0] == 1
        assert levels[1, 0] == 1

    def test_degradation_counts_as_a_full_level(self):
        wear = wear_estimator(quantum=100)
        wear.note_degraded(2, 3)
        assert wear.dirty
        assert wear.levels(SQUARE)[2, 1] == 1

    def test_levels_saturate(self):
        wear = wear_estimator(quantum=1, levels=4)
        for _ in range(100):
            wear.note_traversal(0, 1)
        assert wear.levels(SQUARE)[0, 0] == 3

    def test_disabled_tracking_is_inert(self):
        # Without the wear channel the engine builds no estimator and
        # counts no traversals.
        engine = build_engine(make_config(fault_profile="wash-cycle"))
        assert engine.estimators == {}
        assert engine._traversal_sinks == ()

    def test_repair_resets_the_wear_history(self):
        wear = wear_estimator(quantum=2)
        for _ in range(6):
            wear.note_traversal(0, 1)
        wear.dirty = False
        wear.forget(1, 0)
        assert wear.traversals == {}
        assert wear.dirty  # the level dropped back to 0
        assert wear.levels(SQUARE)[0, 0] == 0
        engine = build_engine(make_config())
        engine.faults = FaultRuntime(
            FaultSchedule(
                [
                    FaultEvent(frame=1, kind="link-cut", node_a=0, node_b=1),
                    FaultEvent(
                        frame=2, kind="link-repair", node_a=0, node_b=1
                    ),
                ]
            )
        )
        engine._apply_faults(1)
        engine._apply_faults(2)
        assert engine._link_alive(0, 1)
        assert engine._link_alive(1, 0)


class TestSweepCacheInvalidation:
    def test_fault_profile_changes_the_config_hash(self):
        plain = make_config()
        faulty = replace(
            plain, faults=FaultConfig(profile="link-attrition", seed=1)
        )
        assert config_hash(plain) != config_hash(faulty)

    def test_fault_seed_changes_the_config_hash(self):
        one = make_config(fault_profile="link-attrition", fault_seed=1)
        two = make_config(fault_profile="link-attrition", fault_seed=2)
        assert config_hash(one) != config_hash(two)

    def test_identical_fault_configs_share_a_hash(self):
        one = make_config(fault_profile="wash-cycle", fault_seed=4)
        two = make_config(fault_profile="wash-cycle", fault_seed=4)
        assert config_hash(one) == config_hash(two)

    def test_wear_awareness_changes_the_config_hash(self):
        plain = make_config()
        wear = replace(plain, wear_aware=True)
        assert config_hash(plain) != config_hash(wear)

    def test_repair_frames_change_the_config_hash(self):
        one = make_config(fault_profile="tear", fault_seed=1)
        two = replace(
            one, faults=replace(one.faults, repair_after_frames=24)
        )
        assert config_hash(one) != config_hash(two)

    def test_schema_bump_invalidates_older_entries(self, tmp_path):
        """Entries are stamped with the behaviour lock's digest: one an
        older simulator wrote (stamped with a schema number, as before
        the lock, or with another lock's digest) is never served."""
        import hashlib
        import json

        from repro.orchestration.cache import (
            BEHAVIOUR_DIGEST,
            BEHAVIOUR_LOCK,
            SweepCache,
        )

        assert BEHAVIOUR_DIGEST == hashlib.sha256(
            BEHAVIOUR_LOCK.read_bytes()
        ).hexdigest()
        cache = SweepCache(tmp_path)
        key = config_hash(make_config())
        cache.store(key, {"summary": {"jobs_fractional": 1.0}})
        record = dict(cache.lookup(key))
        older = hashlib.sha256(b"an older lock").hexdigest()
        for stale in ({"schema": 8}, {"behaviour": older}):
            entry = {k: v for k, v in record.items() if k != "behaviour"}
            (tmp_path / f"{key}.json").write_text(
                json.dumps({**entry, **stale})
            )
            cache = SweepCache(tmp_path)
            assert cache.lookup(key) is None
            assert cache.misses == 1


class TestMoistureCorrosion:
    def corroding(self, **kwargs) -> FaultConfig:
        return FaultConfig(
            profile="moisture",
            seed=5,
            corrode_after_frames=48,
            degrade_frames=16,
            **kwargs,
        )

    def test_sustained_degradation_corrodes_into_a_cut(self):
        schedule = build_fault_schedule(
            self.corroding(), mesh2d(4), num_mesh_nodes=16,
            horizon_frames=2_000,
        )
        cuts = [e for e in schedule if e.kind == "link-cut"]
        assert cuts, "a long-wet link must corrode through"
        # Corrosion takes cumulative exposure: the threshold of 48 wet
        # frames at 16 frames per burst needs three bursts, so no cut
        # can appear before the third burst of the patch.
        degrades_before = {}
        for event in schedule:
            pair = (event.node_a, event.node_b)
            if event.kind == "link-degrade":
                degrades_before[pair] = degrades_before.get(pair, 0) + 1
            elif event.kind == "link-cut":
                assert degrades_before.get(pair, 0) >= 2

    def test_corroded_links_stop_degrading(self):
        schedule = build_fault_schedule(
            self.corroding(), mesh2d(4), num_mesh_nodes=16,
            horizon_frames=2_000,
        )
        cut_at = {
            (e.node_a, e.node_b): e.frame
            for e in schedule
            if e.kind == "link-cut"
        }
        for event in schedule:
            if event.kind == "link-degrade":
                pair = (event.node_a, event.node_b)
                if pair in cut_at:
                    assert event.frame < cut_at[pair]

    def test_zero_threshold_never_corrodes(self):
        config = FaultConfig(profile="moisture", seed=5)
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=2_000
        )
        assert not [e for e in schedule if e.kind == "link-cut"]

    def test_corrosion_reuses_the_repair_machinery(self):
        schedule = build_fault_schedule(
            self.corroding(repair_after_frames=20),
            mesh2d(4), num_mesh_nodes=16, horizon_frames=2_000,
        )
        cuts = {
            (e.node_a, e.node_b): e.frame
            for e in schedule
            if e.kind == "link-cut"
        }
        repairs = {
            (e.node_a, e.node_b): e.frame
            for e in schedule
            if e.kind == "link-repair"
        }
        assert cuts
        for pair, frame in repairs.items():
            assert frame == cuts[pair] + 20

    def test_corroding_moisture_run_severs_and_recovers(self):
        from repro.sim.et_sim import run_simulation

        config = make_config(
            faults=FaultConfig(
                profile="moisture",
                seed=5,
                corrode_after_frames=16,
                degrade_frames=16,
                repair_after_frames=24,
            ),
            max_jobs=12,
        )
        stats = run_simulation(config)
        assert stats.links_cut > 0
        assert stats.links_degraded > 0
        assert stats.verification_failures == 0

    def test_exposure_never_outruns_wall_clock_wetness(self):
        # Refresh bursts extend a wet period, they must not
        # double-count the overlap: no link can corrode earlier than
        # corrode_after_frames after it first got wet, regardless of
        # burst cadence or intensity.
        for intensity in (1.0, 4.0):
            config = FaultConfig(
                profile="moisture",
                seed=5,
                intensity=intensity,
                corrode_after_frames=48,
                degrade_frames=16,
            )
            schedule = build_fault_schedule(
                config, mesh2d(4), num_mesh_nodes=16,
                horizon_frames=2_000,
            )
            first_wet: dict[tuple[int, int], int] = {}
            cuts = {}
            for event in schedule:
                pair = (event.node_a, event.node_b)
                if event.kind == "link-degrade":
                    first_wet.setdefault(pair, event.frame)
                elif event.kind == "link-cut":
                    cuts[pair] = event.frame
            assert cuts
            for pair, cut_frame in cuts.items():
                assert cut_frame >= first_wet[pair] + 48

    def test_rejects_negative_corrode_threshold(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(profile="moisture", corrode_after_frames=-1)


class TestRepairCrew:
    def crew_config(self, size: int, latency: int = 8) -> FaultConfig:
        return FaultConfig(
            profile="link-attrition",
            seed=1,
            repair_crew_size=size,
            repair_latency_frames=latency,
        )

    def schedule_for(self, config: FaultConfig, horizon=100_000):
        return build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=horizon
        )

    def test_crew_repairs_every_cut_oldest_first(self):
        schedule = self.schedule_for(self.crew_config(size=1, latency=8))
        cuts = [e for e in schedule if e.kind == "link-cut"]
        repairs = [e for e in schedule if e.kind == "link-repair"]
        assert len(repairs) == len(cuts)
        # One mender: repairs are strictly serial, in cut order, each
        # taking at least the latency.
        by_pair = {(e.node_a, e.node_b): e.frame for e in repairs}
        previous_done = None
        for cut in sorted(cuts, key=lambda e: e.frame):
            done = by_pair[(cut.node_a, cut.node_b)]
            assert done >= cut.frame + 8
            if previous_done is not None:
                assert done >= previous_done + 8
            previous_done = done

    def test_bigger_crew_repairs_sooner(self):
        solo = self.schedule_for(self.crew_config(size=1, latency=30))
        team = self.schedule_for(self.crew_config(size=4, latency=30))

        def total_severed_frames(schedule):
            cut_at = {}
            severed = 0
            for event in schedule:
                pair = (event.node_a, event.node_b)
                if event.kind == "link-cut":
                    cut_at[pair] = event.frame
                elif event.kind == "link-repair":
                    severed += event.frame - cut_at.pop(pair)
            return severed

        assert total_severed_frames(team) < total_severed_frames(solo)

    def test_crew_is_mutually_exclusive_with_timers(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(
                profile="tear",
                repair_after_frames=10,
                repair_crew_size=2,
            )

    def test_crew_repairs_queue_behind_capacity(self):
        # A tear burst severs several links at once; a single slow
        # mender works through the backlog, so the k-th repair lands at
        # least k latencies after the burst.
        config = FaultConfig(
            profile="tear",
            seed=3,
            max_link_fraction=0.2,
            repair_crew_size=1,
            repair_latency_frames=12,
        )
        schedule = build_fault_schedule(
            config, mesh2d(4), num_mesh_nodes=16, horizon_frames=100_000
        )
        repairs = sorted(
            e.frame for e in schedule if e.kind == "link-repair"
        )
        assert repairs
        for index in range(1, len(repairs)):
            assert repairs[index] >= repairs[index - 1] + 12

    def test_crew_run_repairs_links_live(self):
        from repro.sim.et_sim import run_simulation

        config = make_config(
            faults=FaultConfig(
                profile="tear",
                seed=3,
                max_link_fraction=0.15,
                repair_crew_size=1,
                repair_latency_frames=12,
            ),
            max_jobs=10,
        )
        stats = run_simulation(config)
        assert stats.links_cut > 0
        assert stats.links_repaired > 0
        assert stats.verification_failures == 0

    def test_rejects_bad_crew_parameters(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(profile="tear", repair_crew_size=-1)
        with pytest.raises(ConfigurationError):
            FaultConfig(profile="tear", repair_latency_frames=0)
