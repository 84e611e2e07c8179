"""Integration tests of engine internals: platform construction, frame
protocol, reporting, the live-node set, finalisation, and the
concurrent engine's recovery mechanics."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import make_config
from repro.config import PlatformConfig, SimulationConfig
from repro.errors import SimulationError
from repro.harvest import HarvestConfig
from repro.sim.base_engine import SystemDead
from repro.sim.concurrent_engine import ConcurrentEngine
from repro.sim.registry import build_engine
from repro.sim.sequential_engine import SequentialEngine
from repro.telemetry.recorder import TraceRecorder


def sequential_engine(**platform_kwargs) -> SequentialEngine:
    if platform_kwargs:
        return SequentialEngine(
            SimulationConfig(
                platform=PlatformConfig(mesh_width=4, **platform_kwargs),
                routing="ear",
            )
        )
    return SequentialEngine(make_config(mesh_width=4))


class TestPlatformConstruction:
    def test_source_attached_outside_the_budget(self):
        engine = sequential_engine()
        assert engine.num_mesh_nodes == 16
        assert engine.topology.num_nodes == 17  # mesh + source
        assert engine.source == 16
        # The source has an infinite supply: no cell, no kill record.
        assert len(engine.bank.alive) == len(engine._killed) == 16
        assert engine.source in engine._alive_set

    def test_source_link_length_respected(self):
        engine = sequential_engine(source_link_cm=25.0)
        attach = engine.topology.neighbors(engine.source)[0]
        assert engine.topology.edge_length(engine.source, attach) == 25.0

    def test_every_mesh_node_has_a_module_and_battery(self):
        engine = sequential_engine()
        for node in range(16):
            assert engine.mapping.module_of(node) in (1, 2, 3)
            assert engine.bank.alive[node]
            assert node in engine._alive_set

    def test_hop_cycles_from_packet_format(self):
        engine = sequential_engine()
        assert engine.hop_cycles == 128  # 128-bit packet, serial line


class TestFrameProtocol:
    def test_frames_fire_on_cycle_boundaries(self):
        engine = sequential_engine()
        engine.control.bootstrap()
        frame_len = engine.schedule.frame_cycles
        engine._advance_time(frame_len - 1)
        assert engine.frames_done == 0
        engine._advance_time(1)
        assert engine.frames_done == 1
        engine._advance_time(3 * frame_len)
        assert engine.frames_done == 4

    def test_heartbeats_charge_upload_energy(self):
        engine = sequential_engine()
        engine.control.bootstrap()
        engine._advance_time(engine.schedule.frame_cycles)
        expected = 16 * engine.schedule.upload_energy_pj
        assert engine.ledger.upload_pj == pytest.approx(expected)

    def test_frame_budget_raises(self):
        engine = SequentialEngine(make_config(max_frames=3))
        engine.control.bootstrap()
        with pytest.raises(SystemDead) as excinfo:
            engine._advance_time(10 * engine.schedule.frame_cycles)
        assert excinfo.value.cause == "frame-budget"

    def test_wait_one_frame_lands_on_boundary(self):
        engine = sequential_engine()
        engine.control.bootstrap()
        engine._advance_time(100)
        engine._wait_one_frame()
        assert engine.cycle % engine.schedule.frame_cycles == 0


class TestTransmitAccounting:
    def test_transmit_charges_the_sender(self):
        engine = sequential_engine()
        engine.control.bootstrap()
        node_before = engine.bank.delivered[0]
        assert engine._transmit(0, 1, holder=0)
        hop = engine.link_model.hop_energy_pj(
            float(engine.lengths[0, 1])
        )
        assert engine.bank.delivered[0] == pytest.approx(
            node_before + hop
        )
        assert engine.ledger.data_tx_pj == pytest.approx(hop)
        assert engine.ledger.nodes.packets_relayed[0] == 0

    def test_relay_counted(self):
        engine = sequential_engine()
        engine.control.bootstrap()
        engine._transmit(1, 2, holder=0)  # sender != holder -> relay
        assert engine.ledger.nodes.packets_relayed[1] == 1

    def test_source_transmissions_not_in_node_budget(self):
        engine = sequential_engine()
        engine.control.bootstrap()
        attach = engine.topology.neighbors(engine.source)[0]
        engine._transmit(engine.source, attach, holder=engine.source)
        assert engine.ledger.data_tx_pj == 0.0
        assert engine.ledger.source_tx_pj > 0.0


def concurrent_engine(**kwargs) -> ConcurrentEngine:
    workload = dict(concurrency=2)
    workload.update(kwargs.pop("workload", {}))
    return ConcurrentEngine(
        make_config(mesh_width=4, kind="concurrent", **workload, **kwargs)
    )


class TestConcurrentInternals:
    def test_injection_keeps_concurrency(self):
        engine = concurrent_engine()
        engine.control.bootstrap()
        engine._inject_jobs()
        assert len(engine.buffers[engine.source]) == 2
        engine._inject_jobs()  # idempotent while 2 are in flight
        assert len(engine.buffers[engine.source]) == 2

    def test_source_buffer_unbounded(self):
        engine = concurrent_engine(workload={"concurrency": 50})
        engine.control.bootstrap()
        engine._inject_jobs()
        assert len(engine.buffers[engine.source]) == 50

    def test_node_death_drops_resident_packets(self):
        engine = concurrent_engine()
        engine.control.bootstrap()
        engine._inject_jobs()
        packet = engine.buffers[engine.source][0]
        engine.buffers[3].append(packet)
        engine.on_node_death(3)
        assert not engine.buffers[3]
        assert engine.jobs_lost == 1

    def test_escape_hops_sorted_by_distance(self):
        engine = concurrent_engine()
        engine.control.bootstrap()
        # From node 5 (coordinates (2,2)) toward node 0 (corner (1,1)):
        # the best escape neighbours are those nearer the corner.
        hops = engine._escape_hops(5, 0)
        assert hops[0] in (1, 4)  # the two neighbours adjacent to 0
        assert set(hops).issubset(set(engine.topology.neighbors(5)))

    def test_slot_cycles_match_hop(self):
        engine = concurrent_engine()
        assert engine.slot_cycles == engine.hop_cycles
        assert engine.slots_per_frame == (
            engine.schedule.frame_cycles // engine.slot_cycles
        )


class TestHeartbeatOrder:
    """One heartbeat in which node ``i`` dies on its status upload while
    nodes ``j < i < k`` carry pending deadlock reports: the frame's
    events, reports and levels must come out in node order."""

    def test_deaths_and_deadlock_reports_interleave_by_node(self):
        recorder = TraceRecorder()
        engine = ConcurrentEngine(
            make_config(mesh_width=4, kind="concurrent", battery="ideal"),
            recorder,
        )
        j, i, k = 2, 5, 9
        bank = engine.bank
        capacity = bank.capacity_pj
        # Less than one upload's energy left: the heartbeat kills i.
        bank.draw_one(i, capacity - 1.0, 100)
        # Half a cell: j and k drop from level 7 to level 3.
        for node in (j, k):
            bank.draw_one(node, capacity / 2, 100)
        engine.pending_deadlock.update({j: 3, k: 13})

        reports, heartbeats = engine._heartbeat_phase()

        assert heartbeats == 16
        events = [
            (line["event"], line["node"])
            for line in recorder.events
            if line["kind"] == "event"
        ]
        assert events == [
            ("deadlock-report", j),
            ("node-death", i),
            ("deadlock-report", k),
        ]
        assert [report.node for report in reports] == [j, i, k]
        by_node = {report.node: report for report in reports}
        # A deadlock report carries the level last reported, not the
        # level the node fell to this frame.
        for node, port in ((j, 3), (k, 13)):
            assert by_node[node].blocked_port == port
            assert by_node[node].level == 7
            assert by_node[node].alive
        assert not by_node[i].alive and by_node[i].level == 0
        assert engine.deadlocks_reported == 2
        assert not engine.pending_deadlock
        # The levels j and k fell to were still recorded as observed, so
        # the next frame has nothing new to report.
        reports, heartbeats = engine._heartbeat_phase()
        assert reports == [] and heartbeats == 15


class _LiveSetProbe:
    """A recorder whose frame probe checks the engine's live-node set
    against the cells and the kill record, and counts deaths."""

    active = True
    times = False

    def __init__(self):
        self.engine = None
        self.frames = 0
        self.deaths = 0
        self.kills = 0

    def check(self) -> None:
        engine = self.engine
        expected = {
            node
            for node in range(engine.num_mesh_nodes)
            if engine.bank.alive[node] and not engine._killed[node]
        }
        assert engine._alive_set == expected | {engine.source}

    def frame(self, frame, **fields):
        self.check()
        self.frames += 1

    def event(self, event, frame, **fields):
        if event == "node-death":
            self.deaths += 1
        elif fields.get("fault") == "node-kill":
            self.kills += 1

    def timing(self, name, seconds):
        pass


class TestLiveSet:
    """The live-node set is the engines' one liveness record: at every
    frame it holds exactly the mesh nodes whose cell is alive and that
    no fault killed, plus the source."""

    @pytest.mark.parametrize("harvest", [None, "bus"])
    @pytest.mark.parametrize(
        "fault_profile", [None, "node-dropout", "link-attrition"]
    )
    @pytest.mark.parametrize("engine_name", ["sequential", "concurrent", "vector"])
    def test_live_set_mirrors_the_cells_and_the_kill_record(
        self, engine_name, fault_profile, harvest
    ):
        kind = "concurrent" if engine_name == "concurrent" else "sequential"
        config = make_config(
            kind=kind,
            engine=engine_name,
            concurrency=3 if kind == "concurrent" else 1,
            fault_profile=fault_profile,
            fault_seed=3,
            harvest=HarvestConfig(profile=harvest, seed=3) if harvest else None,
        )
        config = replace(
            config,
            platform=replace(config.platform, battery_capacity_pj=8_000.0),
        )
        probe = _LiveSetProbe()
        engine = build_engine(config, probe)
        probe.engine = engine
        engine.run()
        probe.check()
        assert probe.frames > 0
        # Cells die in every run, not only fault-killed nodes.
        assert probe.deaths > probe.kills
        assert probe.kills == engine.nodes_fault_killed
        # The ledger's death record names exactly the nodes that left.
        died = np.flatnonzero(engine.ledger.nodes.died_at_frame >= 0)
        mesh = set(range(engine.num_mesh_nodes))
        assert set(died.tolist()) == mesh - engine._alive_set


def _finished_run(engine_name: str):
    """An engine that ran a harvesting workload to its job budget."""
    kind = "concurrent" if engine_name == "concurrent" else "sequential"
    config = make_config(
        kind=kind,
        engine=engine_name,
        concurrency=2 if kind == "concurrent" else 1,
        max_jobs=5,
        seed=11,
        harvest=HarvestConfig(profile="bus", seed=3),
    )
    engine = build_engine(config)
    engine.run()
    return engine


def _cook_a_total(ledger) -> None:
    ledger.data_tx_pj += 123.0


def _cook_a_node(ledger) -> None:
    """Move 50 pJ of data energy between two nodes: every total holds."""
    column = ledger.nodes.data_tx_pj
    donor = int(np.argmax(column))
    column[donor] -= 50.0
    column[(donor + 1) % len(column)] += 50.0


class TestFinalisation:
    """Every engine books its energy into the ledger's per-node arrays
    and re-asserts conservation against its cells at finalisation."""

    @pytest.mark.parametrize(
        "cook", [_cook_a_total, _cook_a_node], ids=["total", "node"]
    )
    @pytest.mark.parametrize("engine_name", ["sequential", "concurrent", "vector"])
    def test_conservation_check_trips_on_a_cooked_ledger(
        self, engine_name, cook
    ):
        engine = _finished_run(engine_name)
        engine._assert_conservation()  # closes on an honest run
        cook(engine.ledger)
        with pytest.raises(SimulationError, match="conservation"):
            engine._assert_conservation()

    @pytest.mark.parametrize("engine_name", ["sequential", "concurrent", "vector"])
    def test_finalising_twice_books_the_same_totals(self, engine_name):
        engine = _finished_run(engine_name)
        ledger = engine.ledger
        assert ledger.harvested_pj > 0.0

        def booked():
            columns = {
                name: column.tolist()
                for name, column in vars(ledger.nodes).items()
            }
            totals = (
                ledger.compute_pj,
                ledger.data_tx_pj,
                ledger.upload_pj,
                ledger.harvested_pj,
                ledger.shared_pj,
                ledger.harvest_events,
            )
            return columns, totals

        before = booked()
        engine._finalize(5, 0.0, "job-budget")
        assert booked() == before


def _quick_point(scenario: str, label: str):
    from repro.orchestration import build_scenario

    points = build_scenario(scenario, scale="quick")
    return next(point for point in points if point.label == label)


class TestNeutralChannels:
    """A level channel at q == 1 cannot change a weight, so it must not
    push level changes either: every push would charge the controller a
    re-plan that reactive EAR never makes.  (The congestion channel's
    measure-only twin is pinned in test_congestion_runs.py.)"""

    @pytest.mark.parametrize(
        "scenario,aware,reactive,neutral",
        [
            ("wear-aware", "x1/wear", "x1/reactive", {"wear_q": 1.0}),
            ("harvest-aware", "a60/aware", "a60/reactive", {"harvest_q": 1.0}),
        ],
        ids=["wear", "harvest"],
    )
    def test_neutral_q_run_equals_its_reactive_twin(
        self, scenario, aware, reactive, neutral
    ):
        from dataclasses import replace

        from repro.sim import run_simulation

        config = replace(_quick_point(scenario, aware).config, **neutral)
        twin = _quick_point(scenario, reactive).config
        assert run_simulation(config).summary() == (
            run_simulation(twin).summary()
        )
