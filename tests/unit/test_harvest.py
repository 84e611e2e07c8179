"""Unit tests: harvest configuration, income schedules, the income
estimator, the harvest channel's bonus, and cache invalidation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from dense_routing import dense_of
from helpers import make_config, make_view
from repro.config import SimulationConfig
from repro.core.costs import HARVEST_CHANNEL, CostPipeline
from repro.core.trees import line_slots
from repro.errors import ConfigurationError
from repro.harvest import (
    HARVEST_PROFILES,
    HarvestConfig,
    HarvestHardware,
    build_harvest_schedule,
    flex_weights,
    hardware_scale,
)
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import Topology, attach_external_node, mesh2d
from repro.orchestration import config_hash
from repro.sim.level_estimators import IncomeEstimator
from repro.sim.registry import build_engine


class TestHarvestConfig:
    def test_defaults_are_inactive(self):
        config = HarvestConfig()
        assert config.profile == "none"
        assert not config.is_active
        assert not config.shares_power

    @pytest.mark.parametrize("profile", HARVEST_PROFILES[1:])
    def test_active_profiles(self, profile):
        assert HarvestConfig(profile=profile).is_active

    def test_only_bus_shares_power(self):
        assert HarvestConfig(profile="bus").shares_power
        assert not HarvestConfig(profile="motion").shares_power
        assert not HarvestConfig(profile="solar").shares_power

    def test_rejects_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            HarvestConfig(profile="nuclear")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"amplitude_pj": -1.0},
            {"period_frames": 0},
            {"duty": 1.5},
            {"duty": -0.1},
            {"day_frames": 1},
            {"start_frame": -1},
            {"share_threshold": 0.0},
            {"share_threshold": 1.5},
            {"share_efficiency": 0.0},
            {"share_efficiency": 1.2},
            {"share_rate_pj": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            HarvestConfig(profile="bus", **kwargs)

    def test_round_trips_through_simulation_config(self):
        config = make_config(
            harvest=HarvestConfig(profile="bus", seed=42, amplitude_pj=80.0)
        )
        rebuilt = type(config).from_dict(config.to_dict())
        assert rebuilt.harvest == config.harvest

    def test_old_documents_without_harvest_section_still_load(self):
        config = make_config()
        raw = config.to_dict()
        del raw["harvest"]
        assert type(config).from_dict(raw).harvest == HarvestConfig()

    def test_simulation_config_validates_harvest_knobs(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(harvest_q=0.9)
        with pytest.raises(ConfigurationError):
            SimulationConfig(harvest_quantum=0.0)

    def test_harvest_function_gated_by_flag(self):
        assert SimulationConfig().level_channels() == ()
        (channel,) = SimulationConfig(harvest_aware=True).level_channels()
        assert channel.name == "harvest"
        assert channel.q >= 1.0


class TestHarvestHardware:
    def test_default_is_uniform(self):
        hardware = HarvestHardware()
        assert hardware.is_uniform
        assert hardware.equipped_fraction == 1.0

    def test_fraction_or_spread_break_uniformity(self):
        assert not HarvestHardware(equipped_fraction=0.5).is_uniform
        assert not HarvestHardware(gain_spread=0.2).is_uniform

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"equipped_fraction": 0.0},
            {"equipped_fraction": 1.5},
            {"placement": "orbital"},
            {"gain_spread": -0.1},
            {"gain_spread": 1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            HarvestHardware(**kwargs)

    def test_share_max_hops_validated(self):
        with pytest.raises(ConfigurationError):
            HarvestConfig(profile="bus", share_max_hops=0)

    def test_round_trips_through_simulation_config(self):
        config = make_config(
            harvest=HarvestConfig(
                profile="motion",
                share_max_hops=3,
                hardware=HarvestHardware(
                    equipped_fraction=0.4,
                    placement="random",
                    seed=9,
                    gain_spread=0.25,
                ),
            )
        )
        rebuilt = type(config).from_dict(config.to_dict())
        assert rebuilt.harvest == config.harvest
        assert rebuilt.harvest.hardware == config.harvest.hardware


class TestHardwareScale:
    def scale(self, **kwargs):
        return hardware_scale(HarvestHardware(**kwargs), mesh2d(4), 16)

    def test_uniform_hardware_is_all_ones(self):
        assert self.scale() == [1.0] * 16

    @pytest.mark.parametrize("placement", ["flex", "random", "spread"])
    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.75])
    def test_equipped_count_follows_the_fraction(self, placement, fraction):
        scale = self.scale(
            equipped_fraction=fraction, placement=placement, seed=5
        )
        equipped = sum(1 for gain in scale if gain > 0)
        assert equipped == max(1, round(fraction * 16))

    def test_flex_placement_prefers_corners(self):
        scale = self.scale(equipped_fraction=0.25, placement="flex")
        corners = [0, 3, 12, 15]
        assert all(scale[node] > 0 for node in corners)
        assert scale[5] == 0.0  # inner node flexes least

    def test_random_placement_is_seed_deterministic(self):
        one = self.scale(equipped_fraction=0.5, placement="random", seed=3)
        two = self.scale(equipped_fraction=0.5, placement="random", seed=3)
        other = self.scale(equipped_fraction=0.5, placement="random", seed=4)
        assert one == two
        assert one != other

    def test_gain_spread_stays_in_band(self):
        scale = self.scale(
            equipped_fraction=1.0, gain_spread=0.3, seed=2
        )
        assert all(0.7 <= gain <= 1.3 for gain in scale)
        assert len(set(scale)) > 1  # manufacturing variation is real

    def test_non_equipped_nodes_get_zero_schedule_income(self):
        config = HarvestConfig(
            profile="motion",
            seed=1,
            hardware=HarvestHardware(
                equipped_fraction=0.25, placement="spread", seed=1
            ),
        )
        schedule = build_harvest_schedule(config, mesh2d(4), 16)
        vector = next(
            v for f in range(600) if (v := schedule.income(f)) is not None
        )
        for node in range(16):
            if schedule.hardware[node] == 0.0:
                assert vector[node] == 0.0

    def test_expected_income_weights_follow_the_hardware(self):
        config = HarvestConfig(
            profile="solar",
            hardware=HarvestHardware(
                equipped_fraction=0.5, placement="spread"
            ),
        )
        schedule = build_harvest_schedule(config, mesh2d(4), 16)
        weights = schedule.expected_income_weights()
        for node in range(16):
            assert (weights[node] > 0) == (schedule.hardware[node] > 0)

    def test_inactive_schedule_expects_zero_income(self):
        schedule = build_harvest_schedule(HarvestConfig(), mesh2d(4), 16)
        assert schedule.expected_income_weights() == [0.0] * 16


class TestFlexWeights:
    def test_centre_flexes_least(self):
        topology = mesh2d(4)
        weights = flex_weights(topology, 16)
        assert len(weights) == 16
        # Corners are the furthest from the centroid, inner nodes the
        # closest; every weight stays within the documented band.
        assert all(0.25 <= w <= 1.0 for w in weights)
        corner = weights[0]
        inner = weights[5]  # (2, 2) on the 4x4 mesh
        assert corner > inner
        assert corner == pytest.approx(1.0)

    def test_geometry_free_fabric_degrades_to_uniform(self):
        topology = Topology(4)
        for u, v in ((0, 1), (1, 2), (2, 3)):
            topology.add_edge(u, v, 2.0)
        assert flex_weights(topology, 4) == [1.0, 1.0, 1.0, 1.0]


class TestHarvestSchedule:
    def schedule(self, **kwargs):
        config = HarvestConfig(profile="motion", seed=7, **kwargs)
        return build_harvest_schedule(config, mesh2d(4), 16)

    def test_none_profile_never_yields_income(self):
        schedule = build_harvest_schedule(HarvestConfig(), mesh2d(4), 16)
        assert not schedule.is_active
        assert all(schedule.income(frame) is None for frame in range(200))

    def test_zero_amplitude_is_inactive(self):
        schedule = build_harvest_schedule(
            HarvestConfig(profile="motion", amplitude_pj=0.0), mesh2d(4), 16
        )
        assert not schedule.is_active

    def test_motion_is_deterministic(self):
        one = [self.schedule().income(frame) for frame in range(300)]
        two = [self.schedule().income(frame) for frame in range(300)]
        assert one == two

    def test_motion_mixes_active_and_idle_windows(self):
        incomes = [self.schedule().income(frame) for frame in range(600)]
        assert any(v is None for v in incomes)
        assert any(v is not None for v in incomes)

    def test_motion_income_is_constant_within_a_window(self):
        schedule = self.schedule(period_frames=16)
        by_window: dict[int, set] = {}
        for frame in range(320):
            vector = schedule.income(frame)
            by_window.setdefault(frame // 16, set()).add(
                tuple(vector) if vector is not None else None
            )
        assert all(len(values) == 1 for values in by_window.values())

    def test_motion_concentrates_on_high_flex_nodes(self):
        schedule = self.schedule()
        vector = next(
            v for f in range(600) if (v := schedule.income(f)) is not None
        )
        assert vector[0] > vector[5]  # corner beats inner node

    def test_start_frame_delays_income(self):
        schedule = self.schedule(start_frame=100)
        assert all(schedule.income(f) is None for f in range(100))

    def test_solar_ramp_cycles_day_and_night(self):
        config = HarvestConfig(profile="solar", day_frames=100,
                               amplitude_pj=50.0)
        schedule = build_harvest_schedule(config, mesh2d(4), 16)
        day = schedule.income(25)   # mid-day: peak of the sine
        night = schedule.income(75)  # mid-night
        assert night is None
        assert day is not None
        assert all(v == pytest.approx(50.0) for v in day)
        # Uniform across the fabric: no flex weighting for light.
        assert len(set(day)) == 1


class TestHarvestRuntime:
    """The harvest channel's income estimator."""

    def runtime(self):
        return IncomeEstimator(HARVEST_CHANNEL, num_mesh_nodes=16)

    def test_tracking_disabled_without_quantum(self):
        with pytest.raises(ConfigurationError):
            replace(HARVEST_CHANNEL, quantum=0.0)
        # A harvest-blind engine builds no income estimator at all.
        engine = build_engine(
            make_config(harvest=HarvestConfig(profile="motion"))
        )
        assert "harvest" not in engine.estimators

    def test_levels_rise_with_sustained_income(self):
        runtime = self.runtime()
        for _ in range(400):
            runtime.observe_frame([20.0] * 16)
        assert runtime.dirty
        fabric = mesh2d(4)
        attach_external_node(fabric, 0, 10.0)
        vector = runtime.levels(line_slots(fabric)[0])
        assert vector.shape == (17,)
        assert vector[16] == 0  # the external source never harvests
        # The moving average converges on 20 pJ/frame from below, so
        # the quantised level settles one below the exact quotient.
        assert all(vector[:16] == 3)
        assert runtime.snapshot() == {node: 3 for node in range(16)}

    def test_levels_saturate_at_cap(self):
        runtime = self.runtime()
        for _ in range(1000):
            runtime.observe_frame([10_000.0] * 16)
        assert all(runtime.levels(line_slots(mesh2d(4))[0]) == 7)

    def test_dirty_only_on_level_crossings(self):
        runtime = self.runtime()
        runtime.observe_frame([0.0] * 16)
        assert not runtime.dirty


class TestHarvestWeightFunction:
    """Harvest specifics of the shared contract in TestLevelChannel."""

    def test_level_zero_is_unweighted(self):
        assert HARVEST_CHANNEL(0) == 1.0

    def test_richer_is_cheaper(self):
        values = [HARVEST_CHANNEL(level) for level in range(8)]
        assert values == sorted(values, reverse=True)
        assert all(v <= 1.0 for v in values)

    def test_saturates_at_level_cap(self):
        channel = replace(HARVEST_CHANNEL, levels=4)
        assert channel(3) == channel(99)

    def test_q_one_degenerates_to_reactive(self):
        assert replace(HARVEST_CHANNEL, q=1.0).is_neutral

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            replace(HARVEST_CHANNEL, q=0.5)
        with pytest.raises(ConfigurationError):
            HARVEST_CHANNEL(-1)


class TestApplyHarvestBonus:
    def test_bonus_applies_only_to_nearly_full_receivers(self):
        topology = mesh2d(3)
        mapping = checkerboard_mapping(topology, range(9))
        channel = replace(HARVEST_CHANNEL, q=1.5)
        # Node 0 reports full and harvesting, node 1 depleted and
        # harvesting: only the full one gets cheaper.
        levels_vector = np.full(9, 7, dtype=int)
        levels_vector[1] = 2
        income = np.zeros(9, dtype=int)
        income[0] = 3
        income[1] = 3
        view = make_view(topology, mapping, levels_vector=levels_vector)
        edges = CostPipeline.ear().weight_matrix(view)
        view_income = replace_income(view, income)
        boosted = dense_of(
            channel.apply(edges.copy(), view_income), view.neighbors
        )
        base = dense_of(edges, view.neighbors)
        assert boosted[3, 0] == pytest.approx(base[3, 0] * channel(3))
        # Node 1 is below the rich band: untouched.
        assert boosted[0, 1] == pytest.approx(base[0, 1])
        # Rich band boundary honoured exactly.
        assert (view.levels - channel.rich_band) <= 7

    def test_bonus_preserves_floyd_warshall_conventions(self):
        topology = mesh2d(3)
        mapping = checkerboard_mapping(topology, range(9))
        channel = replace(HARVEST_CHANNEL, q=1.5)
        income = np.full(9, 5, dtype=int)
        view = make_view(topology, mapping)
        view_income = replace_income(view, income)
        base = CostPipeline.ear().weight_matrix(view)
        boosted = channel.apply(base.copy(), view_income)
        # The corners' padding slots stay inf.
        assert np.isinf(base).any()
        assert np.all(np.isinf(boosted) == np.isinf(base))


def replace_income(view, income):
    return type(view)(
        neighbors=view.neighbors,
        edge_lengths=view.edge_lengths,
        alive=view.alive,
        battery_levels=view.battery_levels,
        levels=view.levels,
        mapping=view.mapping,
        blocked_ports=view.blocked_ports,
        channel_levels={"harvest": income},
    )


class TestCacheInvalidation:
    def test_harvest_profile_changes_the_hash(self):
        plain = make_config()
        harvesting = replace(
            plain, harvest=HarvestConfig(profile="motion")
        )
        assert config_hash(plain) != config_hash(harvesting)

    def test_harvest_seed_changes_the_hash(self):
        one = make_config(harvest=HarvestConfig(profile="motion", seed=1))
        two = make_config(harvest=HarvestConfig(profile="motion", seed=2))
        assert config_hash(one) != config_hash(two)

    def test_harvest_aware_flag_changes_the_hash(self):
        plain = make_config(harvest=HarvestConfig(profile="motion"))
        aware = replace(plain, harvest_aware=True)
        assert config_hash(plain) != config_hash(aware)

    def test_hardware_spec_changes_the_hash(self):
        base = make_config(harvest=HarvestConfig(profile="motion"))
        hetero = replace(
            base,
            harvest=replace(
                base.harvest,
                hardware=HarvestHardware(equipped_fraction=0.5),
            ),
        )
        assert config_hash(base) != config_hash(hetero)

    def test_share_max_hops_changes_the_hash(self):
        base = make_config(harvest=HarvestConfig(profile="bus"))
        multi = replace(
            base, harvest=replace(base.harvest, share_max_hops=3)
        )
        assert config_hash(base) != config_hash(multi)

    def test_mapping_strategy_changes_the_hash(self):
        base = make_config(harvest=HarvestConfig(profile="motion"))
        aware = replace(
            base,
            platform=replace(
                base.platform, mapping_strategy="harvest-proportional"
            ),
        )
        assert config_hash(base) != config_hash(aware)

    def test_crew_and_corrosion_knobs_change_the_hash(self):
        base = make_config(fault_profile="moisture")
        corroding = replace(
            base, faults=replace(base.faults, corrode_after_frames=64)
        )
        crewed = replace(
            base, faults=replace(base.faults, repair_crew_size=2)
        )
        assert len({
            config_hash(base), config_hash(corroding), config_hash(crewed)
        }) == 3
