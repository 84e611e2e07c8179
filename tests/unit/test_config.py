"""Unit tests for the configuration layer (repro.config)."""

import math
from dataclasses import replace

import pytest

from repro.config import (
    ControlConfig,
    PlatformConfig,
    RoutingOptions,
    SimulationConfig,
    WorkloadConfig,
)
from repro.errors import ConfigurationError
from repro.sim.vector_bank import (
    IdealBatteryBank,
    ThinFilmBatteryBank,
    build_battery_bank,
)


def mesh_cells(platform, count):
    """``count`` cells of the platform's battery model, as the engines
    build them."""
    return build_battery_bank(
        platform.battery_model,
        count,
        platform.battery_capacity_pj,
        platform.thin_film,
    )


def controller_cells(control):
    """The control config's fail-over chain, as the engines build it."""
    return build_battery_bank(
        control.controller_battery,
        control.num_controllers,
        control.controller_capacity_pj,
        control.controller_thin_film,
    )


class TestPlatformConfig:
    def test_defaults_match_paper(self):
        platform = PlatformConfig()
        assert platform.mesh_width == 4
        assert platform.battery_capacity_pj == 60_000.0
        assert platform.battery_model == "thin-film"
        assert platform.num_mesh_nodes == 16

    def test_rectangular(self):
        platform = PlatformConfig(mesh_width=4, mesh_height=6)
        assert platform.num_mesh_nodes == 24
        assert platform.height == 6

    def test_topology_includes_mesh_metadata(self):
        topo = PlatformConfig(mesh_width=5).make_topology()
        assert topo.num_nodes == 25
        assert topo.mesh_width == 5

    def test_battery_factory(self):
        cells = mesh_cells(PlatformConfig(), 3)
        assert isinstance(cells, ThinFilmBatteryBank)
        assert len(cells.alive) == 3
        ideal = mesh_cells(PlatformConfig(battery_model="ideal"), 3)
        assert isinstance(ideal, IdealBatteryBank)

    def test_battery_capacity_flows_through(self):
        platform = PlatformConfig(battery_capacity_pj=1234.0)
        cells = mesh_cells(platform, 1)
        assert cells.capacity_pj == 1234.0
        # Only the capacity is the platform's; the cell model is kept.
        assert cells.parameters == replace(
            platform.thin_film, capacity_pj=1234.0
        )

    def test_hop_energy_near_paper_calibration(self):
        assert PlatformConfig().hop_energy_pj() == pytest.approx(
            116.7, abs=0.5
        )

    def test_mapping_strategies(self):
        platform = PlatformConfig(mapping_strategy="uniform")
        topo = platform.make_topology()
        mapping = platform.make_mapping(topo)
        counts = mapping.duplicate_counts()
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_proportional_needs_energies(self):
        platform = PlatformConfig(mapping_strategy="proportional")
        topo = platform.make_topology()
        with pytest.raises(ConfigurationError):
            platform.make_mapping(topo)
        mapping = platform.make_mapping(
            topo, normalized_energies={1: 2.0, 2: 1.5, 3: 3.0}
        )
        assert sum(mapping.duplicate_counts().values()) == 16

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlatformConfig(mesh_width=1)
        with pytest.raises(ConfigurationError):
            PlatformConfig(battery_model="nuclear")
        with pytest.raises(ConfigurationError):
            PlatformConfig(source_attach_xy=(9, 1))
        with pytest.raises(ConfigurationError):
            PlatformConfig(battery_levels=1)
        with pytest.raises(ConfigurationError):
            PlatformConfig(node_buffer_packets=0)


class TestControlConfig:
    def test_schedule_built_for_mesh(self):
        schedule = ControlConfig().make_schedule(16)
        assert schedule.num_nodes == 16
        assert schedule.medium_width_bits == 2

    def test_infinite_controllers(self):
        cells = controller_cells(ControlConfig(num_controllers=3))
        assert isinstance(cells, IdealBatteryBank)
        assert len(cells.alive) == 3
        assert cells.capacity_pj == math.inf

    def test_thin_film_controllers_use_controller_cell(self):
        config = ControlConfig(
            num_controllers=2, controller_battery="thin-film"
        )
        cells = controller_cells(config)
        assert isinstance(cells, ThinFilmBatteryBank)
        assert len(cells.alive) == 2
        # The controller cell is the low-impedance variant.
        assert cells.parameters.internal_resistance_ohm < 20_000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ControlConfig(num_controllers=0)
        with pytest.raises(ConfigurationError):
            ControlConfig(controller_battery="coal")


class TestWorkloadConfig:
    def test_defaults(self):
        workload = WorkloadConfig()
        assert workload.kind == "sequential"
        assert workload.max_jobs is None
        assert len(workload.aes_key) == 16

    def test_key_parsing(self):
        workload = WorkloadConfig(aes_key_hex="00" * 32)
        assert workload.aes_key == bytes(32)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(kind="open-loop")
        with pytest.raises(ConfigurationError):
            WorkloadConfig(concurrency=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(aes_key_hex="0011")
        with pytest.raises(ConfigurationError):
            WorkloadConfig(max_jobs=0)


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.routing == "ear"
        assert config.weight_function().levels == 8

    def test_routing_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(routing="ospf")
        with pytest.raises(ConfigurationError):
            SimulationConfig(weight_q=0.0)

    def test_dict_round_trip(self):
        config = SimulationConfig(
            platform=PlatformConfig(mesh_width=6, battery_model="ideal"),
            control=ControlConfig(num_controllers=4),
            workload=WorkloadConfig(seed=42, max_jobs=7),
            routing="sdr",
            weight_q=2.5,
        )
        restored = SimulationConfig.from_dict(config.to_dict())
        assert restored == config

    def test_dict_round_trip_is_json_safe(self):
        import json

        config = SimulationConfig()
        text = json.dumps(config.to_dict())
        restored = SimulationConfig.from_dict(json.loads(text))
        assert restored == config

    def test_wear_defaults_and_validation(self):
        config = SimulationConfig()
        assert config.wear_aware is False
        assert config.level_channels() == ()
        aware = SimulationConfig(wear_aware=True)
        (wear,) = aware.level_channels()
        assert wear.name == "wear" and wear.q == aware.wear_q
        with pytest.raises(ConfigurationError):
            SimulationConfig(wear_q=0.5)
        with pytest.raises(ConfigurationError):
            SimulationConfig(wear_quantum=0)

    def test_wear_fields_round_trip(self):
        config = SimulationConfig(
            wear_aware=True, wear_q=1.25, wear_quantum=32
        )
        restored = SimulationConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.level_channels()[0].quantum == 32

    def test_old_documents_without_wear_fields_still_load(self):
        raw = SimulationConfig().to_dict()
        for key in ("wear_aware", "wear_q", "wear_quantum"):
            del raw[key]
        assert SimulationConfig.from_dict(raw) == SimulationConfig()


class TestRoutingOptions:
    def test_defaults_are_inert(self):
        config = SimulationConfig()
        assert config.routing_opts == RoutingOptions()
        assert config.level_channels() == ()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RoutingOptions(congestion_q=0.5)
        with pytest.raises(ConfigurationError):
            RoutingOptions(congestion_quantum=0.0)

    def test_congestion_function_only_when_aware(self):
        aware = SimulationConfig(
            routing_opts=RoutingOptions(
                congestion_aware=True, congestion_q=1.5
            )
        )
        (channel,) = aware.level_channels()
        assert channel.name == "congestion" and channel.q == 1.5

    def test_level_channels_follow_the_pipeline_order(self):
        config = SimulationConfig(
            wear_aware=True,
            harvest_aware=True,
            routing_opts=RoutingOptions(congestion_aware=True),
        )
        assert [c.name for c in config.level_channels()] == [
            "wear", "harvest", "congestion",
        ]

    def test_default_options_stay_out_of_the_document(self):
        # The serialised document — and therefore the sweep cache hash
        # — must not change for configs that never touch the new
        # routing options, so the cache keeps hitting across versions.
        raw = SimulationConfig().to_dict()
        assert "routing_opts" not in raw
        assert SimulationConfig.from_dict(raw) == SimulationConfig()

    def test_non_default_options_round_trip(self):
        config = SimulationConfig(
            routing_opts=RoutingOptions(
                congestion_aware=True, congestion_q=1.5, ecmp=True,
                ecmp_seed=11,
            )
        )
        raw = config.to_dict()
        assert raw["routing_opts"]["ecmp_seed"] == 11
        assert SimulationConfig.from_dict(raw) == config

    def test_default_hash_unchanged_by_the_new_section(self):
        from repro.orchestration.cache import config_hash

        default = SimulationConfig()
        explicit = SimulationConfig(routing_opts=RoutingOptions())
        assert config_hash(default) == config_hash(explicit)
        enabled = SimulationConfig(
            routing_opts=RoutingOptions(congestion_aware=True)
        )
        assert config_hash(enabled) != config_hash(default)
