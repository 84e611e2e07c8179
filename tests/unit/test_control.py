"""Unit tests for the TDMA control mechanism (repro.control)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dense_routing import at_slots, length_matrix
from repro.battery.ideal import IdealBattery
from repro.battery.thin_film import ThinFilmBattery
from repro.config import ControlConfig
from repro.control.controller import ControlPlane
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
from repro.core.engines import RoutingEngine
from repro.core.trees import line_slots
from repro.core.view import NetworkView
from repro.core.weights import BatteryWeightFunction
from repro.errors import ConfigurationError
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import mesh2d
from repro.sim.vector_bank import IdealBatteryBank, build_battery_bank
from repro.telemetry.recorder import TraceRecorder


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
        assert schedule.control_section_cycles < schedule.frame_cycles

    def test_frame_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            TdmaSchedule(num_nodes=64, frame_cycles=100)

    def test_upload_energy_from_line_model(self):
        schedule = TdmaSchedule(num_nodes=16, medium_segment_cm=1.0)
        assert schedule.upload_energy_pj == pytest.approx(4 * 0.4472)


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
        assert (3, 4) in registry.blocked_ports()
        # Re-reporting refreshes the expiry (frame 11 + 5 = 16).
        assert registry.report(3, 4, frame=11) is False  # already known
        assert registry.expire(frame=15) is False
        assert registry.expire(frame=16) is True
        assert (3, 4) not in registry.blocked_ports()

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            DeadlockPolicy(wait_threshold_frames=0)
        with pytest.raises(ConfigurationError):
            DeadlockPolicy(blocked_expiry_frames=0)


def ideal_chain(*charges_pj):
    """One ideal controller cell of 1e9 pJ per charge, in chain order,
    drained beforehand to hold that charge (0 leaves it dead)."""
    cells = IdealBatteryBank(len(charges_pj), capacity_pj=1e9)
    for unit, charge in enumerate(charges_pj):
        if charge < 1e9:
            cells.draw_one(unit, 1e9 - charge, 1.0)
    return cells


def make_control_plane(
    cells=None, edge_lengths=None, recorder=None, energy_model=None
):
    """A 4x4 plane; by default one infinite controller unit."""
    topo = mesh2d(4)
    mapping = checkerboard_mapping(topo)
    neighbors, lengths = line_slots(topo)
    return ControlPlane(
        neighbors=neighbors,
        edge_lengths=lengths if edge_lengths is None else edge_lengths,
        mapping=mapping,
        engine=RoutingEngine(CostPipeline.ear()),
        levels=8,
        schedule=TdmaSchedule(num_nodes=16),
        energy_model=energy_model or ControllerEnergyModel(),
        deadlock_policy=DeadlockPolicy(),
        cells=cells if cells is not None else IdealBatteryBank(1, math.inf),
        recorder=recorder,
    )


def process(
    plane, frame, levels=None, dead=(), flags=None, heartbeat_count=16
):
    """Run one frame on the uploads of a full, all-living 4x4 mesh.

    ``levels`` overrides single nodes' uploaded levels (``node ->
    level``), every node in ``dead`` uploads as dead (level 0), and
    ``flags`` are the living nodes' deadlock flags (``node -> blocked
    successor``).
    """
    uploaded = np.full(16, 7, dtype=np.int64)
    for node, level in (levels or {}).items():
        uploaded[node] = level
    alive = np.ones(16, dtype=bool)
    uploaded[list(dead)] = 0
    alive[list(dead)] = False
    return plane.process_frame(
        frame, uploaded, alive, flags or {}, heartbeat_count
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
        outcome = process(plane, 0)
        assert outcome.recomputed is False
        assert outcome.table_entries_sent == 0
        assert plane.recompute_count == 0

    def test_level_change_triggers_recompute(self):
        plane = make_control_plane()
        plane.bootstrap()
        outcome = process(plane, 0, levels={5: 2})
        assert outcome.recomputed is True
        assert plane.recompute_count == 1

    def test_death_report_reroutes(self):
        plane = make_control_plane()
        plane.bootstrap()
        before = plane.plan.destination(1, 1)  # nearest module-1 node
        outcome = process(plane, 0, dead=[before])
        assert outcome.recomputed
        assert plane.plan.destination(1, 1) != before

    def test_deadlock_report_blocks_port(self):
        plane = make_control_plane()
        plane.bootstrap()
        outcome = process(plane, 0, flags={1: 0})
        assert outcome.recomputed
        assert (1, 0) in plane.view().blocked_ports

    def test_blocked_port_expires_and_recomputes(self):
        plane = make_control_plane()
        plane.bootstrap()
        process(plane, 0, flags={1: 0})
        expiry = DeadlockPolicy().blocked_expiry_frames
        outcome = process(plane, expiry)
        assert outcome.recomputed  # expiry changes the view
        assert (1, 0) not in plane.view().blocked_ports

    def test_replan_counts_the_nodes_that_reported(self):
        recorder = TraceRecorder()
        plane = make_control_plane(recorder=recorder)
        plane.bootstrap()
        # Node 5 fell a level, node 1 fell and flagged, node 2 only
        # flagged: three nodes reported, node 1 once.
        process(plane, 0, levels={5: 6, 1: 3}, flags={1: 0, 2: 3})
        assert plane.view().battery_levels[1] == 3
        replan = recorder.events[-1]
        assert replan["event"] == "replan" and replan["frame"] == 0
        assert replan["causes"] == ["battery-level", "deadlock-report"]
        assert replan["reports"] == 3

    def test_energy_charged_to_active_controller(self):
        cells = ideal_chain(1e9)
        plane = make_control_plane(cells)
        plane.bootstrap()
        process(plane, 0)
        assert cells.delivered[0] > 0

    def test_failover_chain(self):
        # First controller with a tiny battery dies; the spare takes over.
        plane = make_control_plane(ideal_chain(1.0, 1e9))
        plane.bootstrap()
        outcome = process(plane, 0)
        assert outcome.failed_over is True
        assert plane.alive
        outcome = process(plane, 1)
        assert outcome.active_controller == 1

    def test_all_controllers_dead(self):
        plane = make_control_plane(ideal_chain(1.0))
        plane.bootstrap()
        process(plane, 0)
        assert not plane.alive
        outcome = process(plane, 1)
        assert outcome.controllers_alive == 0
        assert outcome.active_controller is None

    def test_empty_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            make_control_plane(cells=IdealBatteryBank(0, math.inf))

    def test_frames_before_bootstrap_rejected(self):
        plane = make_control_plane()
        with pytest.raises(ConfigurationError):
            process(plane, 0)


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
        outcome = process(plane, 0, dead=[victim], heartbeat_count=15)
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
        outcome = process(plane, 0, dead=[10], heartbeat_count=15)
        schedule = TdmaSchedule(num_nodes=16)
        assert outcome.controller_energy_pj["download_tx"] == pytest.approx(
            outcome.table_entries_sent * schedule.table_entry_energy_pj
        )


class TestIdleLeakAccounting:
    """Regression: ``idle_leak`` must report what the idle cells
    actually *delivered*, not the nominal per-unit quantum — a unit
    dying mid-draw delivers less."""

    def test_healthy_idle_units_report_nominal_leak(self):
        plane = make_control_plane(ideal_chain(1e9, 1e9))
        plane.bootstrap()
        outcome = process(plane, 0)
        idle_cost = ControllerEnergyModel().idle_energy_pj(16)
        assert outcome.controller_energy_pj["idle_leak"] == pytest.approx(
            idle_cost
        )

    def test_dying_idle_unit_reports_delivered_energy(self):
        idle_cost = ControllerEnergyModel().idle_energy_pj(16)
        # The idle unit holds half a leak quantum: it dies mid-draw and
        # delivers only what it had.
        cells = ideal_chain(1e9, idle_cost / 2)
        before = cells.delivered[1]
        plane = make_control_plane(cells)
        plane.bootstrap()
        outcome = process(plane, 0)
        assert outcome.controller_energy_pj["idle_leak"] == pytest.approx(
            idle_cost / 2
        )
        assert not cells.alive[1]
        # The breakdown agrees with the battery's own ledger.
        assert cells.delivered[1] - before == pytest.approx(idle_cost / 2)

    def test_dead_idle_unit_contributes_nothing(self):
        cells = ideal_chain(1e9, 0.0)  # unit 1 depleted before the frame
        assert not cells.alive[1]
        plane = make_control_plane(cells)
        plane.bootstrap()
        outcome = process(plane, 0)
        assert outcome.controller_energy_pj["idle_leak"] == 0.0


class TestChainMatchesScalarCells:
    """A three-unit chain of bank cells fails over exactly as the same
    chain of scalar oracle cells (a plain float for an infinite unit):
    frame by frame, the idle leak to the bit, the living count, the
    active unit and the fail-over flag.  The 0.1 pJ leak is not dyadic,
    so summing each idle draw's returned ``delivered`` instead of its
    cell's delivered energy after minus before would move the leak's
    last bits."""

    CAPACITY_PJ = 8_000.0

    @staticmethod
    def oracle_cell(model, params):
        if model == "ideal":
            return IdealBattery(capacity_pj=params.capacity_pj)
        if model == "thin-film":
            return ThinFilmBattery(params)
        return 0.0

    @staticmethod
    def oracle_draw(cell, energy_pj, duration):
        """Draw from an oracle cell: ``(cell, delivered before, died)``."""
        if isinstance(cell, float):
            return cell + energy_pj, cell, False
        before = cell.delivered_pj
        return cell, before, cell.draw(energy_pj, duration).died

    @staticmethod
    def oracle_alive(cell):
        return isinstance(cell, float) or cell.alive

    @staticmethod
    def oracle_delivered(cell):
        return cell if isinstance(cell, float) else cell.delivered_pj

    @pytest.mark.parametrize("model", ["ideal", "thin-film", "infinite"])
    def test_three_unit_chain(self, model):
        control = ControlConfig(
            num_controllers=3,
            controller_battery=model,
            controller_capacity_pj=self.CAPACITY_PJ,
        )
        params = replace(
            control.controller_thin_film, capacity_pj=self.CAPACITY_PJ
        )
        energy = ControllerEnergyModel(idle_leak_per_frame_pj=0.1)
        plane = make_control_plane(
            build_battery_bank(model, 3, self.CAPACITY_PJ, params),
            energy_model=energy,
        )
        plane.bootstrap()
        oracle = [self.oracle_cell(model, params) for _ in range(3)]
        idle_cost = energy.idle_energy_pj(16)
        frame_cycles = TdmaSchedule(num_nodes=16).frame_cycles
        failovers = 0
        for frame in range(200):
            # Every third frame a level moves and the plan is recomputed.
            levels = {frame % 16: frame % 7} if frame % 3 == 0 else None
            outcome = process(plane, frame, levels=levels)
            spent = outcome.controller_energy_pj
            living = [u for u in range(3) if self.oracle_alive(oracle[u])]
            leak, died = 0.0, False
            if living:
                active = living[0]
                cost = (
                    spent["rx"]
                    + spent["compute"]
                    + spent["download_tx"]
                    + spent["housekeeping"]
                )
                oracle[active], _, died = self.oracle_draw(
                    oracle[active], cost, frame_cycles
                )
                for unit in living[1:]:
                    oracle[unit], before, _ = self.oracle_draw(
                        oracle[unit], idle_cost, frame_cycles
                    )
                    leak += self.oracle_delivered(oracle[unit]) - before
            living = [u for u in range(3) if self.oracle_alive(oracle[u])]
            assert spent["idle_leak"].hex() == leak.hex(), frame
            assert outcome.controllers_alive == len(living), frame
            assert outcome.active_controller == (
                living[0] if living else None
            ), frame
            assert outcome.failed_over is died, frame
            failovers += died
        if model == "infinite":
            assert failovers == 0 and plane.alive
        else:
            assert failovers == 3 and not plane.alive


class TestWearHook:
    def test_update_wear_triggers_recompute(self):
        plane = make_control_plane()
        plane.bootstrap()
        wear = np.zeros((16, 16), dtype=int)
        wear[0, 1] = wear[1, 0] = 3
        neighbors = plane.view().neighbors
        plane.update_levels(WEAR_CHANNEL, at_slots(wear, neighbors, fill=0))
        outcome = process(plane, 0)
        assert outcome.recomputed
        # Node 0's first slot is the line to node 1.
        assert plane.view().channel_levels["wear"][0, 0] == 3
        # No further change, no further recompute.
        outcome = process(plane, 1)
        assert not outcome.recomputed


class TestLengthUpdates:
    def test_a_length_update_replans_like_a_fresh_controller(self):
        lengths = length_matrix(mesh2d(4))
        degraded = lengths.copy()
        degraded[1, 5] = degraded[5, 1] = 3.0 * lengths[1, 5]
        cut = degraded.copy()
        cut[4, 5] = cut[5, 4] = np.inf
        plane = make_control_plane()
        plane.bootstrap()
        neighbors = plane.view().neighbors
        for frame, (u, v, new_lengths) in enumerate(
            ((1, 5, degraded), (4, 5, cut))
        ):
            before = plane.plan
            known = before.view.edge_lengths.copy()
            plane.update_line(u, v, new_lengths[u, v])
            plane.update_line(v, u, new_lengths[v, u])
            outcome = process(plane, frame)
            assert outcome.recomputed
            assert not np.array_equal(plane.plan.distances, before.distances)
            # The write went to a copy: the old plan's view is intact.
            assert np.array_equal(before.view.edge_lengths, known)
            edges = at_slots(new_lengths, neighbors)
            assert np.array_equal(plane.view().edge_lengths, edges)
            fresh = make_control_plane(edge_lengths=edges)
            fresh.bootstrap()
            for table in ("distances", "destinations", "hops"):
                assert np.array_equal(
                    getattr(plane.plan, table), getattr(fresh.plan, table)
                ), table

    def test_writing_the_known_length_still_replans(self):
        # An expiry, or the repair of a cut no node discovered, writes
        # the length the controller already holds; it re-plans anyway.
        plane = make_control_plane()
        plane.bootstrap()
        known = plane.view().edge_lengths.copy()
        plane.update_line(0, 1, known[0, 0])
        assert process(plane, 0).recomputed
        assert np.array_equal(plane.view().edge_lengths, known)
        assert not process(plane, 1).recomputed


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
        neighbors, lengths = line_slots(topology)
        view = NetworkView(
            neighbors=neighbors,
            edge_lengths=lengths,
            alive=alive,
            battery_levels=battery,
            levels=8,
            mapping=checkerboard_mapping(topology),
            channel_levels={
                "wear": at_slots(wear, neighbors, fill=0),
                "harvest": income,
                "congestion": at_slots(congestion, neighbors, fill=0),
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
