"""Unit tests for the TDMA control mechanism (repro.control)."""

import numpy as np
import pytest

from repro.battery.ideal import IdealBattery
from repro.control.controller import ControlPlane, StatusReport
from repro.control.controller_power import (
    ControllerEnergyModel,
    ControllerPowerReference,
)
from repro.control.deadlock import BlockedPortRegistry, DeadlockPolicy
from repro.control.tdma import TdmaSchedule
from repro.core.costs import (
    CONGESTION_CHANNEL,
    HARVEST_CHANNEL,
    WEAR_CHANNEL,
    CostPipeline,
)
from repro.core.engines import EnergyAwareRouting
from repro.core.view import NetworkView
from repro.core.weights import BatteryWeightFunction
from repro.errors import ConfigurationError
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import mesh2d


class TestTdmaSchedule:
    def test_paper_medium_width(self):
        schedule = TdmaSchedule(num_nodes=16)
        assert schedule.medium_width_bits == 2

    def test_slot_cycles(self):
        schedule = TdmaSchedule(num_nodes=16, status_bits=4)
        assert schedule.upload_slot_cycles == 2  # ceil(4/2)
        assert schedule.download_slot_cycles == 6  # ceil(12/2)

    def test_control_section_fits_in_frame(self):
        schedule = TdmaSchedule(num_nodes=64)
        assert schedule.control_section_cycles <= schedule.frame_cycles
        assert schedule.data_section_cycles > 0

    def test_frame_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            TdmaSchedule(num_nodes=64, frame_cycles=100)

    def test_upload_energy_from_line_model(self):
        schedule = TdmaSchedule(num_nodes=16, medium_segment_cm=1.0)
        assert schedule.upload_energy_pj == pytest.approx(4 * 0.4472)

    def test_frame_of_cycle(self):
        schedule = TdmaSchedule(num_nodes=16, frame_cycles=1000)
        assert schedule.frame_of_cycle(0) == 0
        assert schedule.frame_of_cycle(999) == 0
        assert schedule.frame_of_cycle(1000) == 1


class TestControllerPower:
    def test_reference_numbers_from_paper(self):
        ref = ControllerPowerReference()
        # 6.94 mW at 100 MHz = 69.4 pJ/cycle; 0.57 mW = 5.7 pJ/cycle.
        assert ref.dynamic_pj_per_cycle == pytest.approx(69.4)
        assert ref.leakage_pj_per_cycle == pytest.approx(5.7)

    def test_route_compute_scales_cubically(self):
        model = ControllerEnergyModel(route_compute_coeff_pj=0.001)
        e16 = model.route_compute_energy_pj(16)
        e64 = model.route_compute_energy_pj(64)
        assert e64 == pytest.approx(64 * e16)

    def test_housekeeping_scales_with_mesh(self):
        model = ControllerEnergyModel(housekeeping_per_frame_pj=60.0)
        assert model.housekeeping_energy_pj(16) == pytest.approx(60.0)
        assert model.housekeeping_energy_pj(64) == pytest.approx(240.0)

    def test_rx_energy(self):
        model = ControllerEnergyModel(rx_per_status_pj=8.0)
        assert model.rx_energy_pj(10) == pytest.approx(80.0)
        with pytest.raises(ConfigurationError):
            model.rx_energy_pj(-1)


class TestDeadlockRegistry:
    def test_report_and_expiry(self):
        registry = BlockedPortRegistry(
            DeadlockPolicy(wait_threshold_frames=2, blocked_expiry_frames=5)
        )
        assert registry.report(3, 4, frame=10) is True
        assert registry.is_blocked(3, 4)
        # Re-reporting refreshes the expiry (frame 11 + 5 = 16).
        assert registry.report(3, 4, frame=11) is False  # already known
        assert registry.expire(frame=15) is False
        assert registry.expire(frame=16) is True
        assert not registry.is_blocked(3, 4)

    def test_total_reports_counted(self):
        registry = BlockedPortRegistry(DeadlockPolicy())
        registry.report(0, 1, 0)
        registry.report(0, 1, 1)
        assert registry.total_reports == 2

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            DeadlockPolicy(wait_threshold_frames=0)
        with pytest.raises(ConfigurationError):
            DeadlockPolicy(blocked_expiry_frames=0)


def make_control_plane(batteries=None, lengths=None):
    topo = mesh2d(4)
    mapping = checkerboard_mapping(topo)
    return ControlPlane(
        lengths=topo.length_matrix() if lengths is None else lengths,
        mapping=mapping,
        engine=EnergyAwareRouting(),
        levels=8,
        schedule=TdmaSchedule(num_nodes=16),
        energy_model=ControllerEnergyModel(),
        deadlock_policy=DeadlockPolicy(),
        controller_batteries=batteries if batteries is not None else [None],
    )


class TestControlPlane:
    def test_bootstrap_produces_plan(self):
        plane = make_control_plane()
        plan = plane.bootstrap()
        assert plan is plane.plan
        assert plan.has_destination(0, 3)

    def test_frame_without_changes_keeps_plan(self):
        plane = make_control_plane()
        plane.bootstrap()
        outcome = plane.process_frame(0, reports=[], heartbeat_count=16)
        assert outcome.recomputed is False
        assert outcome.table_entries_sent == 0
        assert plane.recompute_count == 0

    def test_level_change_triggers_recompute(self):
        plane = make_control_plane()
        plane.bootstrap()
        outcome = plane.process_frame(
            0,
            reports=[StatusReport(node=5, level=2, alive=True)],
            heartbeat_count=16,
        )
        assert outcome.recomputed is True
        assert plane.recompute_count == 1

    def test_death_report_reroutes(self):
        plane = make_control_plane()
        plane.bootstrap()
        before = plane.plan.destination(1, 1)  # nearest module-1 node
        outcome = plane.process_frame(
            0,
            reports=[StatusReport(node=before, level=0, alive=False)],
            heartbeat_count=16,
        )
        assert outcome.recomputed
        assert plane.plan.destination(1, 1) != before

    def test_deadlock_report_blocks_port(self):
        plane = make_control_plane()
        plane.bootstrap()
        outcome = plane.process_frame(
            0,
            reports=[
                StatusReport(node=1, level=7, alive=True, blocked_port=0)
            ],
            heartbeat_count=16,
        )
        assert outcome.recomputed
        assert (1, 0) in plane.view().blocked_ports
        assert plane.deadlock_reports == 1

    def test_blocked_port_expires_and_recomputes(self):
        plane = make_control_plane()
        plane.bootstrap()
        plane.process_frame(
            0,
            reports=[
                StatusReport(node=1, level=7, alive=True, blocked_port=0)
            ],
        )
        expiry = DeadlockPolicy().blocked_expiry_frames
        outcome = plane.process_frame(expiry, reports=[])
        assert outcome.recomputed  # expiry changes the view
        assert (1, 0) not in plane.view().blocked_ports

    def test_energy_charged_to_active_controller(self):
        battery = IdealBattery(capacity_pj=1e9)
        plane = make_control_plane(batteries=[battery])
        plane.bootstrap()
        plane.process_frame(0, reports=[], heartbeat_count=16)
        assert battery.delivered_pj > 0

    def test_failover_chain(self):
        # First controller with a tiny battery dies; the spare takes over.
        tiny = IdealBattery(capacity_pj=1.0)
        spare = IdealBattery(capacity_pj=1e9)
        plane = make_control_plane(batteries=[tiny, spare])
        plane.bootstrap()
        outcome = plane.process_frame(0, reports=[], heartbeat_count=16)
        assert outcome.failed_over is True
        assert plane.alive
        outcome = plane.process_frame(1, reports=[], heartbeat_count=16)
        assert outcome.active_controller == 1

    def test_all_controllers_dead(self):
        tiny = IdealBattery(capacity_pj=1.0)
        plane = make_control_plane(batteries=[tiny])
        plane.bootstrap()
        plane.process_frame(0, reports=[], heartbeat_count=16)
        assert not plane.alive
        outcome = plane.process_frame(1, reports=[], heartbeat_count=16)
        assert outcome.controllers_alive == 0
        assert outcome.active_controller is None

    def test_unknown_report_rejected(self):
        plane = make_control_plane()
        plane.bootstrap()
        with pytest.raises(ConfigurationError):
            plane.process_frame(
                0, reports=[StatusReport(node=99, level=0, alive=True)]
            )

    def test_frames_before_bootstrap_rejected(self):
        plane = make_control_plane()
        with pytest.raises(ConfigurationError):
            plane.process_frame(0, reports=[])


class TestDeadNodeTableAccounting:
    """Regression: the controller must not pay to download routing
    tables to dead nodes.  A death flips the corpse's table row to -1
    against the previous tables, and every one of those stale entries
    used to be charged as ``download_tx``."""

    def test_dead_node_rows_not_charged(self):
        import numpy as np

        plane = make_control_plane()
        plane.bootstrap()
        victim = 5
        before = plane._tables_of(plane.plan)
        outcome = plane.process_frame(
            0,
            reports=[StatusReport(node=victim, level=0, alive=False)],
            heartbeat_count=15,
        )
        assert outcome.recomputed
        after = plane._tables_of(plane.plan)
        # The corpse's row flipped to -1 — a non-empty stale diff that
        # the old accounting charged as download_tx.
        assert np.all(after[victim] == -1)
        assert int(np.count_nonzero(after[victim] != before[victim])) > 0
        # The pinned count is the hand diff over *live* rows only.
        alive = plane._node_alive
        hand_count = int(
            np.count_nonzero((after != before) & alive[:, np.newaxis])
        )
        assert outcome.table_entries_sent == hand_count
        assert hand_count < int(np.count_nonzero(after != before))

    def test_download_energy_matches_masked_entries(self):
        plane = make_control_plane()
        plane.bootstrap()
        outcome = plane.process_frame(
            0,
            reports=[StatusReport(node=10, level=0, alive=False)],
            heartbeat_count=15,
        )
        schedule = TdmaSchedule(num_nodes=16)
        assert outcome.controller_energy_pj["download_tx"] == pytest.approx(
            outcome.table_entries_sent * schedule.table_entry_energy_pj
        )


class TestIdleLeakAccounting:
    """Regression: ``idle_leak`` must report what the idle cells
    actually *delivered*, not the nominal per-unit quantum — a unit
    dying mid-draw delivers less."""

    def test_healthy_idle_units_report_nominal_leak(self):
        active = IdealBattery(capacity_pj=1e9)
        idle = IdealBattery(capacity_pj=1e9)
        plane = make_control_plane(batteries=[active, idle])
        plane.bootstrap()
        outcome = plane.process_frame(0, reports=[], heartbeat_count=16)
        idle_cost = ControllerEnergyModel().idle_energy_pj(16)
        assert outcome.controller_energy_pj["idle_leak"] == pytest.approx(
            idle_cost
        )

    def test_dying_idle_unit_reports_delivered_energy(self):
        idle_cost = ControllerEnergyModel().idle_energy_pj(16)
        active = IdealBattery(capacity_pj=1e9)
        # The idle unit holds half a leak quantum: it dies mid-draw and
        # delivers only what it had.
        dying = IdealBattery(capacity_pj=idle_cost / 2)
        plane = make_control_plane(batteries=[active, dying])
        plane.bootstrap()
        outcome = plane.process_frame(0, reports=[], heartbeat_count=16)
        assert outcome.controller_energy_pj["idle_leak"] == pytest.approx(
            idle_cost / 2
        )
        assert not dying.alive
        # The breakdown agrees with the battery's own ledger.
        assert plane.units[1].delivered_pj == pytest.approx(idle_cost / 2)

    def test_dead_idle_unit_contributes_nothing(self):
        active = IdealBattery(capacity_pj=1e9)
        dead = IdealBattery(capacity_pj=1.0)
        dead.draw(2.0, 1.0)  # deplete before the frame
        assert not dead.alive
        plane = make_control_plane(batteries=[active, dead])
        plane.bootstrap()
        outcome = plane.process_frame(0, reports=[], heartbeat_count=16)
        assert outcome.controller_energy_pj["idle_leak"] == 0.0


class TestWearHook:
    def test_update_wear_triggers_recompute(self):
        plane = make_control_plane()
        plane.bootstrap()
        wear = np.zeros((16, 16), dtype=int)
        wear[0, 1] = wear[1, 0] = 3
        plane.update_levels(WEAR_CHANNEL, wear)
        outcome = plane.process_frame(0, reports=[], heartbeat_count=16)
        assert outcome.recomputed
        assert plane.view().channel_levels["wear"][0, 1] == 3
        # No further change, no further recompute.
        outcome = plane.process_frame(1, reports=[], heartbeat_count=16)
        assert not outcome.recomputed


class TestLengthUpdates:
    def test_a_length_update_replans_like_a_fresh_controller(self):
        lengths = mesh2d(4).length_matrix()
        degraded = lengths.copy()
        degraded[1, 5] = degraded[5, 1] = 3.0 * lengths[1, 5]
        cut = degraded.copy()
        cut[4, 5] = cut[5, 4] = np.inf
        plane = make_control_plane()
        plane.bootstrap()
        for frame, new_lengths in enumerate((degraded, cut)):
            before = plane.plan.distances
            plane.update_lengths(new_lengths)
            outcome = plane.process_frame(frame, reports=[], heartbeat_count=16)
            assert outcome.recomputed
            assert not np.array_equal(plane.plan.distances, before)
            fresh = make_control_plane(lengths=new_lengths)
            fresh.bootstrap()
            for table in ("distances", "destinations", "hops"):
                assert np.array_equal(
                    getattr(plane.plan, table), getattr(fresh.plan, table)
                ), table


class TestTermAttribution:
    def test_rows_count_the_edges_each_term_scaled(self):
        # Node 5 is dead, six nodes report below full, and every channel
        # has a level on a link or receiver touching the dead node, which
        # must not count.  Harvest pays only the rich receivers 0 and 14
        # (battery 7 and 6); 6 and 11 are below the band.
        topology = mesh2d(4)
        alive = np.ones(16, dtype=bool)
        alive[5] = False
        battery = np.array([7, 6, 7, 5, 7, 7, 4, 7, 6, 7, 7, 3, 7, 7, 6, 7])
        wear = np.zeros((16, 16), dtype=int)
        congestion = np.zeros((16, 16), dtype=int)
        for levels, u, v, level in (
            (wear, 0, 1, 2),
            (wear, 9, 10, 9),  # past the cap
            (wear, 4, 5, 3),
            (congestion, 2, 3, 1),
            (congestion, 10, 14, 4),
            (congestion, 1, 5, 2),
        ):
            levels[u, v] = levels[v, u] = level
        income = np.zeros(16, dtype=int)
        income[[0, 6, 11, 14]] = [2, 3, 5, 1]
        view = NetworkView(
            lengths=topology.length_matrix(),
            alive=alive,
            battery_levels=battery,
            levels=8,
            mapping=checkerboard_mapping(topology),
            channel_levels={
                "wear": wear,
                "harvest": income,
                "congestion": congestion,
            },
        )
        pipeline = CostPipeline.ear(
            BatteryWeightFunction(),
            (WEAR_CHANNEL, HARVEST_CHANNEL, CONGESTION_CHANNEL),
        )
        rows = []
        pipeline.weight_matrix(view, observer=ControlPlane._term_observer(rows))
        assert rows == [
            {
                "term": "battery",
                "links_scaled": 16,
                "max_factor": 42.949673,
                "min_factor": 2.56,
            },
            {
                "term": "wear",
                "links_scaled": 4,
                "max_factor": 1.948717,
                "min_factor": 1.21,
            },
            {
                "term": "harvest",
                "links_scaled": 5,
                "max_factor": 0.769231,
                "min_factor": 0.591716,
            },
            {
                "term": "congestion",
                "links_scaled": 4,
                "max_factor": 2.441406,
                "min_factor": 1.25,
            },
        ]
