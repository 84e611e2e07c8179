"""Integration tests: full runs under fault injection.

The acceptance pairing: a faulty run must diverge from its fault-free
twin (same platform, same workload, same seeds) while two same-seed
faulty runs stay bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_config
from repro.analysis.faults import (
    fault_free_twin,
    fault_impact,
    fault_impact_for,
)
from repro.core.trees import line_slots
from repro.faults import FaultConfig
from repro.faults.schedule import FaultEvent, FaultRuntime, FaultSchedule
from repro.sim.et_sim import run_simulation
from repro.sim.registry import build_engine


def knows_the_pristine_fabric(engine) -> bool:
    """True when the controller holds every line at its built length."""
    _, pristine = line_slots(engine.topology)
    return np.array_equal(engine.control.view().edge_lengths, pristine)


def cut_lines(engine) -> set[tuple[int, int]]:
    """The directed lines of the fabric with no working length."""
    return {
        (u, v)
        for u, v, _ in engine.topology.edges()
        if v not in engine.lengths[u]
    }


class TestFaultyVersusTwin:
    def test_faulty_run_diverges_and_replays_bit_identically(self):
        faulty_config = make_config(
            fault_profile="link-attrition", fault_seed=7
        )
        faulty_a = run_simulation(faulty_config).summary()
        faulty_b = run_simulation(faulty_config).summary()
        baseline = run_simulation(fault_free_twin(faulty_config)).summary()

        assert faulty_a == faulty_b  # same-seed twins are bit-identical
        assert faulty_a != baseline  # physical faults changed the run
        assert faulty_a["links_cut"] > 0
        assert baseline["links_cut"] == 0

    def test_attrition_costs_delivery(self):
        impact = fault_impact_for(
            make_config(fault_profile="link-attrition", fault_seed=7)
        )
        assert impact["links_cut"] > 0
        assert impact["delivery_loss"] > 0
        assert 0.0 < impact["delivery_loss_fraction"] < 1.0

    def test_node_dropout_shortens_lifetime(self):
        impact = fault_impact_for(
            make_config(fault_profile="node-dropout", fault_seed=3)
        )
        assert impact["nodes_fault_killed"] > 0
        assert impact["lifetime_delta_frames"] < 0

    def test_impact_record_is_consistent(self):
        config = make_config(fault_profile="wash-cycle", fault_seed=2)
        faulty = run_simulation(config).summary()
        baseline = run_simulation(fault_free_twin(config)).summary()
        impact = fault_impact(baseline, faulty)
        assert impact["jobs_baseline"] == baseline["jobs_fractional"]
        assert impact["jobs_faulty"] == faulty["jobs_fractional"]
        assert impact["links_degraded"] == faulty["links_degraded"]


def wash_only(factor: float = 3.0, frames: int = 16) -> "FaultConfig":
    """Wash-cycle profile with permanent cuts disabled: pure transient
    degradation, connectivity guaranteed intact."""
    return FaultConfig(
        profile="wash-cycle",
        seed=9,
        period_frames=2,
        degrade_factor=factor,
        degrade_frames=frames,
        max_link_fraction=0.0,
    )


class TestDegradationSemantics:
    def test_degradation_only_wash_preserves_connectivity(self):
        stats = run_simulation(make_config(faults=wash_only(), max_jobs=8))
        assert stats.links_degraded > 0
        assert stats.links_cut == 0
        assert stats.jobs_completed == 8

    def test_degradation_raises_transport_energy(self):
        base_tx = run_simulation(make_config(max_jobs=8)).energy.data_tx_pj
        worn_tx = run_simulation(
            make_config(faults=wash_only(factor=6.0), max_jobs=8)
        ).energy.data_tx_pj
        assert worn_tx > base_tx

    def test_degradation_expires_and_restores_lengths(self):
        config = make_config(faults=wash_only(frames=4), max_jobs=8)
        engine = build_engine(config)
        engine.run()
        assert engine.links_degraded > 0
        # Flush any still-active transients the way a frame would, then
        # check both pictures are back to pristine (no cuts here).
        for u, v in engine.faults.expire_degradations(10**9):
            engine._rescale_line(u, v)
        assert engine.lengths == build_engine(config).lengths
        assert knows_the_pristine_fabric(engine)


class TestEngineStateUnderFaults:
    def test_cut_lines_leave_the_working_lengths_both_ways(self):
        config = make_config(
            fault_profile="link-attrition", fault_seed=7, max_jobs=10
        )
        engine = build_engine(config)
        engine.run()
        cut = cut_lines(engine)
        assert len(cut) == 2 * engine.links_cut > 0
        assert all((v, u) in cut for u, v in cut)
        # The topology is read-only: it still holds every line as built.
        assert engine.topology.edges() == build_engine(config).topology.edges()

    def test_fault_killed_nodes_report_dead_with_charged_cells(self):
        config = make_config(fault_profile="node-dropout", fault_seed=3)
        engine = build_engine(config)
        stats = engine.run()
        killed = engine._killed.nonzero()[0].tolist()
        assert len(killed) == stats.nodes_fault_killed
        for node in killed:
            assert node not in engine._alive_set
            assert engine.bank.alive[node]  # cell still charged

    def test_energy_conservation_holds_under_faults(self):
        config = make_config(fault_profile="link-attrition", fault_seed=7)
        engine = build_engine(config)
        stats = engine.run()
        delivered = engine.bank.delivered.sum()
        assert delivered == pytest.approx(
            stats.energy.node_total_pj, rel=1e-9
        )
        nominal = engine.num_mesh_nodes * 60_000.0
        residual = stats.wasted_at_death_pj + stats.stranded_alive_pj
        assert nominal == pytest.approx(
            delivered + stats.conversion_loss_pj + residual, rel=1e-9
        )

    def test_cut_with_both_endpoints_dead_is_never_discovered(self):
        """A cut link whose endpoints both die before any dispatch can
        probe it must never raise a link report: dead nodes cannot
        discover anything, so the controller's length picture keeps the
        (physically severed) line until the run ends."""
        engine = build_engine(make_config(max_jobs=12))
        u, v = 10, 11
        engine.faults = FaultRuntime(
            FaultSchedule(
                [
                    FaultEvent(frame=5, kind="link-cut", node_a=u, node_b=v),
                    FaultEvent(frame=5, kind="node-kill", node_a=u),
                    FaultEvent(frame=5, kind="node-kill", node_a=v),
                ]
            )
        )
        base = engine.topology.edge_length(u, v)
        engine.run()
        assert engine.links_cut == 1
        assert engine.nodes_fault_killed == 2
        # Never discovered: the controller's picture still carries the
        # pristine length in both directions.
        assert engine.control.known_length(u, v) == base
        assert engine.control.known_length(v, u) == base
        # The physical record is severed all the same.
        assert cut_lines(engine) == {(u, v), (v, u)}

    def test_degrade_expiry_on_cut_frame_does_not_resurrect_the_line(self):
        """A transient degradation expiring on the very frame its line
        is cut must not restore the severed line in either length
        picture — and discovery afterwards must stick."""
        engine = build_engine(make_config())
        u, v = 5, 6
        base = engine.topology.edge_length(u, v)
        engine.faults = FaultRuntime(
            FaultSchedule(
                [
                    FaultEvent(
                        frame=4, kind="link-degrade", node_a=u, node_b=v,
                        factor=3.0, duration_frames=4,
                    ),
                    FaultEvent(frame=8, kind="link-cut", node_a=u, node_b=v),
                ]
            )
        )
        engine._apply_faults(4)
        assert engine.lengths[u][v] == pytest.approx(base * 3.0)
        assert engine.control.known_length(u, v) == pytest.approx(base * 3.0)
        # Frame 8: the degradation expires *and* the cut fires.
        engine._apply_faults(8)
        assert v not in engine.lengths[u]
        # The cut is undiscovered, so the controller's picture holds the
        # restored pristine length — not the degraded one, not inf.
        assert engine.control.known_length(u, v) == pytest.approx(base)
        # Discovery writes inf; later frames must never restore it.
        engine._note_fault_block(u, v)
        assert engine.control.known_length(u, v) == float("inf")
        for frame in range(9, 30):
            engine._apply_faults(frame)
        assert cut_lines(engine) == {(u, v), (v, u)}
        assert engine.control.known_length(u, v) == float("inf")
        assert engine.control.known_length(v, u) == float("inf")

    def test_deadlock_recovery_survives_attrition(self):
        # Buffered congestion plus live topology changes: the recovery
        # protocol must still fire and still make progress.
        config = make_config(
            kind="concurrent",
            concurrency=8,
            buffers=1,
            mesh_width=6,
            fault_profile="link-attrition",
            fault_seed=5,
            max_jobs=25,
        )
        stats = run_simulation(config)
        assert stats.jobs_completed > 0
        assert stats.verification_failures == 0


def tear_repair_config(**kwargs):
    return make_config(
        faults=FaultConfig(
            profile="tear", seed=0, repair_after_frames=24
        ),
        **kwargs,
    )


class TestRepairSemantics:
    def test_repair_restores_topology_and_length_state(self):
        config = tear_repair_config(max_jobs=8)
        engine = build_engine(config)
        engine.run()
        assert engine.links_cut > 0
        assert engine.links_repaired == engine.links_cut
        # Every cut was re-sewn: no severed state left anywhere, and
        # the controller knows no cut.
        fresh = build_engine(config)
        assert cut_lines(engine) == set()
        assert engine.lengths == fresh.lengths
        assert knows_the_pristine_fabric(engine)
        assert engine.topology.edges() == fresh.topology.edges()

    def test_a_repaired_line_reenters_the_bus_scan_last(self):
        """Re-sewing appends the line to each end's adjacency, and the
        power bus scans neighbours in that order (it breaks ties
        between equal-length paths by it)."""
        engine = build_engine(make_config())
        assert engine._bus_reachable(5, 1)[0] == [1, 4, 6, 9]
        engine.faults = FaultRuntime(
            FaultSchedule(
                [
                    FaultEvent(frame=1, kind="link-cut", node_a=5, node_b=6),
                    FaultEvent(
                        frame=2, kind="link-repair", node_a=5, node_b=6
                    ),
                ]
            )
        )
        engine._apply_faults(1)
        assert engine._bus_reachable(5, 1)[0] == [1, 4, 9]
        engine._apply_faults(2)
        assert engine._bus_reachable(5, 1)[0] == [1, 4, 9, 6]
        assert list(engine.lengths[6])[-1] == 5

    def test_repair_counts_surface_in_summary(self):
        stats = run_simulation(tear_repair_config(max_jobs=8)).summary()
        assert stats["links_repaired"] > 0
        assert stats["links_repaired"] <= stats["links_cut"]
        assert stats["verification_failures"] == 0

    def test_concurrent_engine_survives_tear_and_repair(self):
        config = tear_repair_config(
            kind="concurrent", concurrency=4, max_jobs=10
        )
        stats = run_simulation(config)
        assert stats.links_repaired > 0
        assert stats.verification_failures == 0
        assert (
            run_simulation(config).summary()
            == run_simulation(config).summary()
        )


class TestMoistureRuns:
    def test_moisture_patch_degrades_and_costs_energy(self):
        config = make_config(
            faults=FaultConfig(profile="moisture", seed=4), max_jobs=8
        )
        stats = run_simulation(config)
        assert stats.links_degraded > 0
        assert stats.links_cut == 0
        assert stats.jobs_completed == 8
        base_tx = run_simulation(
            fault_free_twin(config)
        ).energy.data_tx_pj
        assert stats.energy.data_tx_pj > base_tx


class TestWearAwareRouting:
    def test_wear_aware_run_is_deterministic_and_clean(self):
        config = make_config(
            fault_profile="link-attrition",
            fault_seed=11,
            wear_aware=True,
            max_jobs=15,
        )
        first = run_simulation(config).summary()
        assert first == run_simulation(config).summary()
        assert first["verification_failures"] == 0

    def test_wear_awareness_is_inert_under_sdr(self):
        # SDR never reads wear: enabling the flag on an SDR point (as a
        # shared base config does) must not change the run at all — no
        # tracking overhead, no spurious recomputes charged to the
        # controller.
        from dataclasses import replace as dc_replace

        config = make_config(
            fault_profile="link-attrition",
            fault_seed=7,
            routing="sdr",
            max_jobs=20,
        )
        plain = run_simulation(config).summary()
        wear = run_simulation(dc_replace(config, wear_aware=True)).summary()
        assert plain == wear

    def test_wear_weight_changes_routing_under_load(self):
        # Uncapped attrition run: enough traffic for links to cross
        # wear levels, so the weight must actually alter the plan
        # history (recompute counts differ from the reactive twin).
        from dataclasses import replace as dc_replace

        config = make_config(fault_profile="link-attrition", fault_seed=11)
        reactive = run_simulation(config).summary()
        wear = run_simulation(
            dc_replace(config, wear_aware=True)
        ).summary()
        assert wear["recomputes"] != reactive["recomputes"]

    def test_wear_aware_never_shortens_lifetime_on_the_quick_grid(self):
        """Acceptance: on the attrition quick grid, the wear-prediction
        weight yields a lifetime >= reactive EAR's — routing around
        worn lines must not cost lifetime."""
        from repro.orchestration import build_scenario

        points = {
            p.label: p for p in build_scenario("wear-aware", scale="quick")
        }
        intensities = sorted(
            {p.params["fault_intensity"] for p in points.values()}
        )
        assert intensities  # the grid pairs reactive/wear per intensity
        for intensity in intensities:
            reactive = run_simulation(
                points[f"x{intensity:g}/reactive"].config
            ).summary()
            wear = run_simulation(
                points[f"x{intensity:g}/wear"].config
            ).summary()
            assert (
                wear["lifetime_frames"] >= reactive["lifetime_frames"]
            ), f"wear-aware lost lifetime at intensity {intensity}"
