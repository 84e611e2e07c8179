"""Shared machinery of the et_sim engines.

The engines simulate the same platform — fabric, batteries, links, TDMA
control — and differ only in how jobs move (one exact job at a time
versus buffered packets with contention).  Everything platform-related
lives here.

Mesh cells live in one struct-of-arrays battery bank
(:mod:`repro.sim.vector_bank`), and the engines address each cell by
its node id.  The frame's heartbeat is one exact array pass over it — a
uniform upload draw on the living cells, every mesh node's quantised
level uploaded as one array (the controller diffs the uploads against
its own record), one masked rest — and so is its harvest income, one
masked recharge; per-hop, compute and power-bus energy reach single
cells through the bank's scalar code path, which returns ``(delivered,
died)``.  Both round exactly as the scalar battery models do, so the
bank changes speed, not results.

Every draw and recharge is booked straight into the ledger's per-node
arrays (:class:`~repro.sim.stats.NodeStats`), and finalisation
re-asserts conservation against the bank, in total and node by node,
on every engine.

A node is alive while it is in the engine's live-node set
(``_alive_set``): its cell has charge and fault injection has not
killed it.  Every death — a cell a draw exhausts, a fault kill — calls
:meth:`EngineBase.on_node_death` the moment it happens, and that hook is
the set's only writer.
"""

from __future__ import annotations

import math
import time
from functools import reduce
from operator import add

import numpy as np

from ..battery.monitor import BatteryLevelQuantizer
from ..config import SimulationConfig
from ..control.controller import ControlPlane
from ..core.engines import EnergyAwareRouting, ShortestDistanceRouting
from ..core.parameters import ApplicationProfile
from ..core.trees import line_slots
from ..errors import DeadNodeError, SimulationError
from ..faults.schedule import FaultRuntime
from ..harvest.schedule import build_harvest_schedule
from ..mesh.connectivity import reachable_set, system_is_alive
from ..mesh.geometry import node_id as mesh_node_id
from ..mesh.topology import attach_external_node
from ..telemetry.recorder import NULL_RECORDER, Recorder
from .level_estimators import ESTIMATORS
from .stats import EnergyLedger, SimulationStats
from .vector_bank import build_battery_bank
from .workload import JobFactory

#: Frames a dispatch may wait for a fresh plan before retrying.
MAX_WAIT_FRAMES = 64


def _soc_quantiles(socs: list[float]) -> list[float]:
    """Nearest-rank p10/p50/p90 of the live cells' state of charge.

    Deterministic and allocation-light: sorts the already-collected
    per-frame SoC list and indexes it, so repeated traced runs emit
    byte-identical probe lines.  Returns zeros when no cell is alive.
    """
    if not socs:
        return [0.0, 0.0, 0.0]
    socs = sorted(socs)
    last = len(socs) - 1
    out = []
    for p in (0.1, 0.5, 0.9):
        i = min(last, int(p * last + 0.5))
        out.append(round(socs[i], 6))
    return out

#: Hop-count guard against transient routing churn.
HOP_GUARD_FACTOR = 6


class SystemDead(Exception):
    """Control-flow signal: the system died (cause attached)."""

    def __init__(self, cause: str):
        self.cause = cause
        super().__init__(cause)


class EngineBase:
    """Builds the platform and runs the per-frame control protocol."""

    def __init__(
        self,
        config: SimulationConfig,
        recorder: Recorder | None = None,
    ):
        self.config = config
        platform = config.platform
        #: Telemetry sink; the do-nothing default is gated out of every
        #: hot path through the two cached booleans below, so a
        #: recorder-free run executes the pre-telemetry instruction
        #: stream bit for bit.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._trace = bool(self.recorder.active)
        self._timed = bool(self.recorder.times)

        # --- fabric -----------------------------------------------------
        #: The fabric as built, read-only once the source is attached:
        #: faults edit the working lengths below, never the topology.
        self.topology = platform.make_topology()
        attach = mesh_node_id(*platform.source_attach_xy, platform.mesh_width)
        self.source = attach_external_node(
            self.topology, attach, platform.source_link_cm
        )
        profile = ApplicationProfile.aes128(platform.hop_energy_pj())
        # The harvest schedule is built before the mapping: the
        # income-aware mapping strategy queries expected per-node
        # income at build time (the same schedule object later feeds
        # the runtime, so mapping and recharge see one income picture).
        self.harvest_schedule = build_harvest_schedule(
            config.harvest, self.topology, platform.num_mesh_nodes
        )
        self.mapping = platform.make_mapping(
            self.topology,
            profile.normalized_energies(),
            income_weights=self.harvest_schedule.expected_income_weights(),
        )
        self.num_mesh_nodes = mesh = platform.num_mesh_nodes

        #: Every mesh node's cell, one bank index per node.  The source
        #: block has an infinite supply and no cell.
        self.bank = build_battery_bank(
            platform.battery_model,
            mesh,
            platform.battery_capacity_pj,
            platform.thin_film,
        )
        #: Kill record: True once fault injection failed a mesh node,
        #: which is then dead with a charged cell.  The source cannot
        #: fail and has no entry.
        self._killed = np.zeros(mesh, dtype=bool)

        # --- links --------------------------------------------------------
        self.link_model = platform.link_energy_model()
        #: The fabric's fixed neighbour table, built once; the controller
        #: routes on the same table, starting from the pristine lengths.
        self._neighbors, pristine = line_slots(self.topology)
        #: The only record of the physical lines: the working length of
        #: every directed line, ``lengths[u][v]``, the topology's length
        #: scaled while the line is degraded.  A cut line has no entry
        #: in either direction; a repair re-inserts both, so a re-sewn
        #: line comes last in each end's dict (the power bus scans lines
        #: in dict order).  Per-node dicts of plain numbers, not one
        #: dict keyed by ``(u, v)`` tuples, which the garbage collector
        #: would track.
        self.lengths: list[dict[int, float]] = [{} for _ in self.topology.nodes]
        for u, v, length in self.topology.edges():
            self.lengths[u][v] = length
        self.hop_cycles = self.link_model.hop_cycles()
        # Per-hop packet energy depends only on the (static) line length,
        # and _transmit sits on the per-hop hot path: memoise by length.
        self._hop_energy_by_length: dict[float, float] = {}
        # Per-segment bus-transfer efficiency likewise depends only on
        # the line length (see _share_arrival_factor): memoise by length.
        self._share_factor_by_length: dict[float, float] = {}

        # --- control --------------------------------------------------------
        self.schedule = config.control.make_schedule(self.num_mesh_nodes)
        #: The level channels feed EAR only: SDR routes on lengths
        #: alone, and tracking a signal there would charge the
        #: controller spurious recomputes, biasing EAR-vs-SDR
        #: comparisons.
        channels = (
            config.level_channels() if config.routing == "ear" else ()
        )
        routing_engine = (
            EnergyAwareRouting(config.weight_function(), channels)
            if config.routing == "ear"
            else ShortestDistanceRouting()
        )
        if config.routing_opts.ecmp:
            routing_engine.configure_ecmp(config.routing_opts.ecmp_seed)
        self.control = ControlPlane(
            neighbors=self._neighbors,
            edge_lengths=pristine,
            mapping=self.mapping,
            engine=routing_engine,
            levels=platform.battery_levels,
            schedule=self.schedule,
            energy_model=config.control.energy,
            deadlock_policy=config.control.deadlock,
            cells=build_battery_bank(
                config.control.controller_battery,
                config.control.num_controllers,
                config.control.controller_capacity_pj,
                config.control.controller_thin_film,
            ),
            recorder=self.recorder,
            # Only a run that returns ciphertexts ever routes toward the
            # source, so only then is the plans' sink column grown.
            sink=self.source if platform.return_to_sink else None,
        )
        self.quantizer = BatteryLevelQuantizer(platform.battery_levels)

        # --- bookkeeping ------------------------------------------------------
        #: Live node ids: every mesh node whose cell is alive and that
        #: no fault killed, plus the source.  on_node_death is its only
        #: writer, so liveness is one set lookup and reachability
        #: checks never rescan every battery.
        self._alive_set: set[int] = {*range(mesh), self.source}
        self.ledger = EnergyLedger(mesh)
        self.factory = JobFactory(
            key=config.workload.aes_key,
            seed=config.workload.seed,
            origin=self.source,
        )
        self.cycle = 0
        self.frames_done = 0
        self.total_hops = 0
        self.op_retries = 0
        self.jobs_lost = 0
        self.verification_failures = 0
        #: Deadlock flags queued by the engine for the next upload phase,
        #: as ``node -> blocked successor``.
        self.pending_deadlock: dict[int, int] = {}
        self.deadlocks_reported = 0
        self.deadlocks_recovered = 0

        # --- fault injection ----------------------------------------------
        self.faults = FaultRuntime.for_run(
            config.faults,
            self.topology,
            num_mesh_nodes=self.num_mesh_nodes,
            max_frames=config.workload.max_frames,
        )
        self.faults_injected = 0
        self.links_cut = 0
        self.links_degraded = 0
        self.links_repaired = 0
        self.nodes_fault_killed = 0
        #: Dispatches/packets that were blocked by fault state (cut line
        #: or fault-killed next hop) and subsequently progressed anyway.
        self.packets_rerouted = 0

        # --- energy harvesting --------------------------------------------
        #: True when the frame hook has any work at all: income to
        #: apply, or a bus profile redistributing existing charge.
        self.harvest_active = (
            self.harvest_schedule.is_active or config.harvest.shares_power
        )

        # --- level channels -------------------------------------------------
        #: (channel, estimator) pairs; each estimator quantises with its
        #: channel's own quantum and cap, so the controller's penalty
        #: table and the levels it is fed cannot drift apart.
        self._channels = tuple(
            (channel, ESTIMATORS[channel.name](channel, self.num_mesh_nodes))
            for channel in channels
        )
        self.estimators = {
            channel.name: estimator for channel, estimator in self._channels
        }
        #: Per-hop callbacks of the traversal-counting estimators (empty
        #: when no channel is on, so _transmit pays one falsy check).
        self._traversal_sinks = tuple(
            estimator.note_traversal
            for _, estimator in self._channels
            if estimator.counts_traversals
        )
        self._wear = self.estimators.get("wear")
        self._income = self.estimators.get("harvest")
        #: The estimator's accepted income on a frame without any.
        self._zero_income = [0.0] * mesh

    # ------------------------------------------------------------------
    # Time and control frames
    # ------------------------------------------------------------------
    def _advance_time(self, cycles: int) -> None:
        """Advance the clock, firing TDMA frames at their boundaries."""
        self.cycle += int(cycles)
        frame_len = self.schedule.frame_cycles
        while (self.frames_done + 1) * frame_len <= self.cycle:
            self._run_frame(self.frames_done)
            self.frames_done += 1
            if self.frames_done >= self.config.workload.max_frames:
                raise SystemDead("frame-budget")

    def _wait_one_frame(self) -> None:
        """Idle until the next frame boundary (plan refresh opportunity)."""
        frame_len = self.schedule.frame_cycles
        next_boundary = (self.frames_done + 1) * frame_len
        self._advance_time(next_boundary - self.cycle)

    def _run_frame(self, frame: int) -> None:
        """One TDMA frame: faults, harvest, heartbeats, reports, plan
        refresh."""
        if self._timed:
            frame_started = time.perf_counter()
        self._apply_faults(frame)
        # Harvest recharges *after* faults (a frame's tear cannot be
        # undone by its income) and *before* the heartbeats, so a level
        # raised by fresh charge is reported this very frame.
        if self.harvest_active:
            self._apply_harvest(frame)
        levels, living, flags, heartbeats = self._heartbeat_phase()
        for channel, estimator in self._channels:
            # Fold the frame's signal into quantised levels; when some
            # level changed, push the new picture so the controller
            # re-plans around it (wear before the line severs, toward
            # harvesting regions, off hot corridors).  A neutral channel
            # (q == 1) cannot change a weight, so it tracks without
            # charging the controller spurious recomputes.
            estimator.end_frame()
            if estimator.dirty and not channel.is_neutral:
                self.control.update_levels(
                    channel, estimator.levels(self._neighbors)
                )
                estimator.dirty = False
        outcome = self.control.process_frame(
            frame, levels, living, flags, heartbeats
        )
        self.ledger.add_controller(outcome.controller_energy_pj)
        if self._trace:
            self._record_frame_probe(frame)
        if self._timed:
            self.recorder.timing(
                "frame-step", time.perf_counter() - frame_started
            )
        if not self.control.alive:
            raise SystemDead("controller-dead")

    # ------------------------------------------------------------------
    # Telemetry probes
    # ------------------------------------------------------------------
    def _record_frame_probe(self, frame: int) -> None:
        """One per-frame trace probe (only called when tracing).

        Captures the live-cell count, the p10/p50/p90 state-of-charge
        quantiles, and the jobs in flight; the link channels' current
        quantised level snapshots ride along (the
        recorder deduplicates them, so a line appears only on level
        crossings).  Pure observation: nothing here mutates simulation
        state, which is what keeps traced runs bit-identical.
        """
        # Every death path calls on_node_death before the probe runs,
        # so the live set is exact here; the mesh guard drops the
        # cell-less source, and the quantile helper sorts, so set order
        # cannot leak into the trace.
        soc = self.bank.soc_vector().tolist()
        mesh = self.num_mesh_nodes
        socs = [soc[node] for node in self._alive_set if node < mesh]
        probe: dict = {
            "alive": len(socs),
            "soc": _soc_quantiles(socs),
            "jobs": self._jobs_in_flight(),
        }
        for channel, estimator in self._channels:
            # Trace level events are keyed by link ("u-v").
            if channel.keyed == "link":
                probe[f"{channel.signal}_levels"] = estimator.snapshot()
        self.recorder.frame(frame, **probe)

    def _jobs_in_flight(self) -> int:
        """Jobs currently resident in the network (telemetry probe)."""
        return 0

    def _record_harvest_rejection(
        self,
        frame: int,
        offered_pj: float,
        accepted_pj: float,
        rejecting_nodes: int,
    ) -> None:
        """Emit a harvest-rejection event (only called when tracing)."""
        self.recorder.event(
            "harvest-rejected",
            frame=frame,
            offered_pj=round(offered_pj, 6),
            accepted_pj=round(accepted_pj, 6),
            rejected_pj=round(offered_pj - accepted_pj, 6),
            nodes=rejecting_nodes,
        )

    def _heartbeat_phase(
        self,
    ) -> tuple[np.ndarray, np.ndarray, dict[int, int], int]:
        """Upload phase of one frame, as one pass over the battery bank.

        Every living node pays the upload energy (one uniform draw) and
        uploads its quantised level, and living cells rest for the
        frame.  Returns the frame's uploads — every mesh node's level
        and liveness (a fault-killed node is dead with a charged cell),
        the living nodes' deadlock flags — plus the heartbeat count the
        controller bills for.
        """
        living = self.bank.alive & ~self._killed
        delivered, died = self.bank.draw_uniform(
            self.schedule.upload_energy_pj,
            self.schedule.upload_slot_cycles,
            living,
        )
        ledger = self.ledger
        ledger.nodes.upload_pj += delivered
        # One add per node, in node order: a pairwise or compensated
        # sum could move the total's last bits.
        ledger.upload_pj = reduce(
            add, delivered[living].tolist(), ledger.upload_pj
        )
        heartbeats = int(np.count_nonzero(living))
        living &= ~died
        levels = self.quantizer.levels_of(self.bank.soc_vector(), living)
        flags = self._deadlock_flags(living, died.nonzero()[0].tolist())
        self.bank.rest(self.schedule.frame_cycles, living)
        return levels, living, flags, heartbeats

    def _deadlock_flags(
        self, living: np.ndarray, deaths: list[int]
    ) -> dict[int, int]:
        """Pop the pending deadlock flags the living nodes upload.

        Walks the flagged and the dying nodes in node order: the death
        hooks of ``deaths`` fire here, between the deadlock reports, and
        a flag of a node that is not alive is dropped.  Returns the
        living nodes' flags, ``node -> blocked successor``.
        """
        pending = self.pending_deadlock
        flags: dict[int, int] = {}
        if not pending and not deaths:
            return flags
        dying = set(deaths)
        for node in sorted({*pending, *dying}):
            if node in dying:
                self.on_node_death(node)
            blocked = pending.pop(node, None)
            if blocked is not None and living[node]:
                self.deadlocks_reported += 1
                if self._trace:
                    self.recorder.event(
                        "deadlock-report",
                        frame=self.frames_done,
                        node=node,
                        blocked=blocked,
                    )
                flags[node] = blocked
        return flags

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _apply_faults(self, frame: int) -> None:
        """Fire every fault event due at ``frame`` and expire transients.

        A cut deletes both directions' working lengths and drops the
        line's running degradation; a repair re-inserts them at the
        topology's length; a degradation and its expiry rewrite them in
        place, scaling the per-hop packet energy.  Node kills go through
        the regular death hook so resident state is cleaned up
        identically to a battery death.  Degradations, their expiry and
        repairs reach the control plane at once (see
        :meth:`_rescale_line`), which re-plans on its next processed
        frame; a cut only once a node discovers it.
        """
        runtime = self.faults
        lengths = self.lengths
        events = runtime.due(frame)
        restored = runtime.expire_degradations(frame)
        trace = self._trace
        for u, v in restored:
            self._rescale_line(u, v)
            if trace:
                self.recorder.event(
                    "link-restored", frame=frame, link=[u, v]
                )
        for event in events:
            if event.kind == "link-cut":
                u, v = event.node_a, event.node_b
                if v not in lengths[u]:
                    continue
                del lengths[u][v], lengths[v][u]
                runtime.degraded.pop((min(u, v), max(u, v)), None)
                self.links_cut += 1
                self.faults_injected += 1
                # The cut is physical, not reported: the controller keeps
                # routing over the severed line until a node discovers
                # the failure by trying to use it (_note_fault_block).
                if trace:
                    self.recorder.event(
                        "fault", frame=frame, fault="link-cut", link=[u, v]
                    )
            elif event.kind == "link-repair":
                u, v = event.node_a, event.node_b
                if v in lengths[u]:
                    continue  # never cut (budget/horizon) or already re-sewn
                # A repair is a deliberate physical intervention, so the
                # controller learns of the restored line immediately —
                # including one it never discovered as cut.
                self._rescale_line(u, v)
                if self._wear is not None:
                    self._wear.forget(u, v)
                self.links_repaired += 1
                self.faults_injected += 1
                if trace:
                    self.recorder.event(
                        "fault",
                        frame=frame,
                        fault="link-repair",
                        link=[u, v],
                    )
            elif event.kind == "node-kill":
                if event.node_a not in self._alive_set:
                    continue
                self._killed[event.node_a] = True
                self.on_node_death(event.node_a)
                self.nodes_fault_killed += 1
                self.faults_injected += 1
                if trace:
                    self.recorder.event(
                        "fault",
                        frame=frame,
                        fault="node-kill",
                        node=event.node_a,
                    )
            else:  # link-degrade
                u, v = event.node_a, event.node_b
                if v not in lengths[u]:
                    continue
                # Degradations are measurable line quality: the frame's
                # status exchange carries them to the controller.
                self._rescale_line(u, v, event.factor)
                runtime.degraded[(min(u, v), max(u, v))] = (
                    event.factor,
                    frame + event.duration_frames,
                )
                if self._wear is not None:
                    self._wear.note_degraded(u, v)
                self.links_degraded += 1
                self.faults_injected += 1
                if trace:
                    self.recorder.event(
                        "fault",
                        frame=frame,
                        fault="link-degrade",
                        link=[u, v],
                        factor=event.factor,
                        duration_frames=event.duration_frames,
                    )

    def _rescale_line(self, u: int, v: int, factor: float = 1.0) -> None:
        """Set both directions of the ``u - v`` line to ``factor`` times
        their topology length, in the working record (a repaired line's
        entries go in last) and in the controller's picture."""
        for a, b in ((u, v), (v, u)):
            length = self.topology.edge_length(a, b) * factor
            self.lengths[a][b] = length
            self.control.update_line(a, b, length)

    # ------------------------------------------------------------------
    # Energy harvesting
    # ------------------------------------------------------------------
    def _apply_harvest(self, frame: int) -> None:
        """Recharge batteries from this frame's harvest income.

        Income lands at frame boundaries as one masked array recharge:
        each living mesh node's cell accepts as much of its scheduled
        income as its headroom allows (a full cell accepts nothing, a
        dead or fault-killed node rejects everything).  Bus profiles
        then run one power-sharing pass.  When harvest-aware routing is
        on, the accepted income feeds the per-node estimator whose
        quantised levels the controller learns.
        """
        income = self.harvest_schedule.income(frame)
        accepted_income = self._zero_income
        if income is not None:
            offers = np.asarray(income, dtype=float)
            # A fault-killed node's generator is as torn as its module:
            # only living nodes can harvest.
            accepted = self.bank.recharge(offers, ~self._killed)
            ledger = self.ledger
            ledger.nodes.harvested_pj += accepted
            gained = accepted > 0.0
            ledger.harvest_events += int(np.count_nonzero(gained))
            # Totals add one node at a time, in node order: a pairwise
            # or compensated sum could move their last bits.
            ledger.harvested_pj = reduce(
                add, accepted[gained].tolist(), ledger.harvested_pj
            )
            if self._trace:
                offering = offers > 0.0
                offered_pj = reduce(add, offers[offering].tolist(), 0.0)
                accepted_pj = reduce(add, accepted[offering].tolist(), 0.0)
                if offered_pj - accepted_pj > 1e-9:
                    self._record_harvest_rejection(
                        frame,
                        offered_pj,
                        accepted_pj,
                        int(np.count_nonzero(offering & (accepted < offers))),
                    )
            if self._income is not None:
                accepted_income = accepted.tolist()
        if self.config.harvest.shares_power:
            self._apply_power_sharing()
        if self._income is not None:
            self._income.observe_frame(accepted_income)

    def _bus_reachable(
        self, donor: int, max_hops: int
    ) -> tuple[list[int], dict[int, tuple[int, ...]]]:
        """Living mesh nodes a bus transfer from ``donor`` can reach.

        Breadth-first over the surviving textile lines (a cut line has
        no working length), through living nodes only, up to
        ``max_hops`` segments.  Returns the nodes in discovery order —
        nearer layers first, adjacency order within a layer, exactly
        the single-hop neighbour scan when ``max_hops == 1`` — plus the
        cheapest-loss path to each: fewest hops, ties broken by total
        working line length.
        """
        paths: dict[int, tuple[int, ...]] = {donor: ()}
        lengths_to: dict[int, float] = {donor: 0.0}
        order: list[int] = []
        frontier = [donor]
        for _ in range(max_hops):
            layer: list[int] = []
            for u in frontier:
                for v, length in self.lengths[u].items():
                    if v >= self.num_mesh_nodes:
                        continue
                    candidate_len = lengths_to[u] + length
                    if v in paths:
                        # Same-layer rediscovery: keep the physically
                        # shorter line run (hop count is equal).
                        if v in layer and candidate_len < lengths_to[v]:
                            paths[v] = paths[u] + (v,)
                            lengths_to[v] = candidate_len
                        continue
                    if v not in self._alive_set:
                        continue
                    paths[v] = paths[u] + (v,)
                    lengths_to[v] = candidate_len
                    order.append(v)
                    layer.append(v)
            if not layer:
                break
            frontier = layer
        return order, paths

    def _apply_power_sharing(self) -> None:
        """One I²We bus pass: surplus flows to poorer cells.

        Every living donor compares its state of charge with the mesh
        nodes reachable over at most ``share_max_hops`` surviving
        textile lines and, when the gap exceeds the configured
        threshold, pushes one quantum toward the poorest of them along
        the cheapest-loss path.  Each line segment passes
        ``share_efficiency`` of what enters it *per link pitch of
        physical line* (see :meth:`_share_arrival_factor`), so a
        ``k``-hop transfer over uniform-pitch lines arrives scaled by
        exactly ``efficiency ** k`` while a stretched or degraded line
        loses proportionally more — the per-hop losses are booked
        segment by segment and the intermediate nodes' relayed energy
        is recorded, so the conservation identity closes with any hop
        count.  Donor order is node order: deterministic, and identical
        in both engines.
        """
        config = self.config.harvest
        rate = config.share_rate_pj
        if rate <= 0.0:
            return
        threshold = config.share_threshold
        efficiency = config.share_efficiency
        bank = self.bank
        for donor in range(self.num_mesh_nodes):
            if donor not in self._alive_set:
                continue
            soc = bank.soc_one(donor)
            poorest = None
            poorest_soc = soc - threshold
            if poorest_soc <= 0.0:
                # No cell's state of charge is negative, so a donor
                # this drained can never find a receiver: skip the
                # reachability search entirely.
                continue
            candidates, paths = self._bus_reachable(
                donor, config.share_max_hops
            )
            for node in candidates:
                other_soc = bank.soc_one(node)
                if other_soc < poorest_soc:
                    poorest = node
                    poorest_soc = other_soc
            if poorest is None:
                continue
            # Never push more than half the gap: the bus equalises, it
            # must not overshoot and slosh charge back next frame.
            gap_pj = (soc - poorest_soc) * bank.capacity_pj / 2.0
            transfer = min(rate, gap_pj)
            if transfer <= 0.0:
                continue
            drawn, died = bank.draw_one(
                donor, transfer, self.schedule.frame_cycles
            )
            energy = drawn
            prev = donor
            for hop in paths[poorest]:
                arrived = energy * self._share_arrival_factor(
                    self.lengths[prev][hop], efficiency
                )
                self.ledger.add_share_hop(energy - arrived)
                if hop != poorest:
                    self.ledger.note_share_relay(hop, arrived)
                energy = arrived
                prev = hop
            accepted = bank.recharge_one(poorest, energy)
            self.ledger.add_share(
                donor, drawn, poorest, accepted, arrived_pj=energy
            )
            if died:
                self.on_node_death(donor)

    def _share_arrival_factor(self, length: float, efficiency: float) -> float:
        """Fraction of bus-transferred energy surviving one line segment.

        Resistive loss on a conductive-textile line grows with its
        physical length, so the per-segment efficiency is
        ``share_efficiency ** (length / link_pitch_cm)`` — the
        configured efficiency is the loss of one *pitch-length* line,
        and a stretched (degraded) or longer line loses proportionally
        more.  For uniform-pitch fabrics ``length / pitch == 1.0``
        exactly and ``x ** 1.0 == x`` in IEEE 754, so the historical
        constant-per-hop compounding is reproduced bit-identically.
        """
        factor = self._share_factor_by_length.get(length)
        if factor is None:
            pitch = self.config.platform.link_pitch_cm
            factor = efficiency ** (length / pitch)
            self._share_factor_by_length[length] = factor
        return factor

    def _link_alive(self, u: int, v: int) -> bool:
        """True while the ``u -> v`` line has not been cut by a fault."""
        return v in self.lengths[u]

    def _note_fault_block(self, u: int, v: int) -> None:
        """A node failed to use the cut ``u -> v`` line: discovery.

        A cut is undiscovered while the controller still knows the line
        at a finite length.  The discovering node reports the dead line
        in its next upload slot: the controller marks both directions
        ``inf`` and re-plans at its next processed frame — the
        fault-model counterpart of the paper's deadlock reports.
        """
        if self.control.known_length(u, v) != math.inf:
            self.control.update_line(u, v, math.inf)
            self.control.update_line(v, u, math.inf)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def on_node_death(self, node: int) -> None:
        """Hook invoked the moment a node dies: its cell was exhausted
        or fault injection killed it."""
        self._alive_set.discard(node)
        self.ledger.mark_death(node, self.frames_done)
        if self._trace:
            self.recorder.event(
                "node-death", frame=self.frames_done, node=node
            )

    def _check_reachability(self, origin: int, cause: str) -> None:
        """Raise system death if some module is unreachable from origin."""
        if not system_is_alive(
            self.lengths, self._alive_set, self.mapping, origin
        ):
            raise SystemDead(cause)

    def _source_reachable_from(self, node: int) -> bool:
        reachable = reachable_set(self.lengths, self._alive_set, node)
        return self.source in reachable

    def _transmit(self, sender: int, receiver: int, holder: int) -> bool:
        """One hop; returns False when the sender died mid-transmit."""
        try:
            length = self.lengths[sender][receiver]
        except KeyError:
            raise SimulationError(
                f"packet transmitted over cut link {sender} -> {receiver}"
            ) from None
        energy = self._hop_energy_by_length.get(length)
        if energy is None:
            energy = self.link_model.hop_energy_pj(length)
            self._hop_energy_by_length[length] = energy
        if self._traversal_sinks:
            for note in self._traversal_sinks:
                note(sender, receiver)
        died = False
        if sender == self.source:
            # The source block has an infinite supply.
            self.ledger.add_source_tx(energy)
        else:
            delivered, died = self._draw(sender, energy, self.hop_cycles)
            self.ledger.add_data_tx(
                sender, delivered, relay=sender != holder
            )
            if died:
                self.on_node_death(sender)
        self.total_hops += 1
        return not died

    def _draw(
        self, node: int, energy_pj: float, cycles: float
    ) -> tuple[float, bool]:
        """Draw from mesh node ``node``'s cell: ``(delivered, died)``.

        Raises :class:`DeadNodeError` for a dead or fault-killed node:
        engines check liveness first, so hitting it is a simulator bug,
        not a modelling event.
        """
        if node not in self._alive_set:
            raise DeadNodeError(node, "draw energy")
        return self.bank.draw_one(node, energy_pj, cycles)

    def _compute_cycles(self, module: int) -> int:
        return self.config.platform.compute_cycles.get(module, 12)

    # ------------------------------------------------------------------
    def _assert_conservation(self) -> None:
        """Re-derive the energy identity from the bank arrays.

        Everything the cells delivered must appear in the ledger's load
        buckets, and everything they accepted must be harvest or bus
        income, in total and node by node: every engine books its
        energy into arrays, and that bookkeeping is only trusted
        because this closes on every run.
        """
        bank = self.bank
        ledger = self.ledger
        nodes = ledger.nodes
        for verb, cells, total, column in (
            ("delivered", bank.delivered, ledger.node_total_pj, nodes.total_pj),
            (
                "accepted",
                bank.recharged,
                ledger.harvested_pj + ledger.shared_pj,
                nodes.harvested_pj + nodes.shared_pj,
            ),
        ):
            cells_pj = float(np.sum(cells))
            if not math.isclose(cells_pj, total, rel_tol=1e-9, abs_tol=1e-6):
                raise SimulationError(
                    f"conservation violation: cells {verb} {cells_pj} pJ "
                    f"but the ledger booked {total} pJ"
                )
            close = np.isclose(cells, column, rtol=1e-9, atol=1e-6)
            if not close.all():
                node = int(np.argmin(close))
                raise SimulationError(
                    f"conservation violation at node {node}: its cell "
                    f"{verb} {cells[node]} pJ but the ledger booked "
                    f"{column[node]} pJ"
                )

    def _finalize(
        self, jobs_completed: int, partial: float, death: str
    ) -> SimulationStats:
        self._assert_conservation()
        if self._trace:
            self.recorder.event(
                "run-end",
                frame=self.frames_done,
                cause=death,
                jobs=jobs_completed,
                jobs_lost=self.jobs_lost,
                total_hops=self.total_hops,
            )
        wasted = 0.0
        stranded = 0.0
        loss = 0.0
        bank = self.bank
        for node in range(self.num_mesh_nodes):
            residual = max(0.0, bank.capacity_pj - bank.consumed_one(node))
            # A fault-killed node's residual charge is as unreachable as
            # a depleted cell's, so it counts as wasted, not stranded.
            if node in self._alive_set:
                stranded += residual
            else:
                wasted += residual
            loss += bank.loss_one(node)
        # The textile power bus loses energy in conversion too: drawn
        # from donors minus accepted by receivers.
        loss += self.ledger.share_loss_pj
        # Utilisation metrics exist only on congestion-tracking runs:
        # None keeps every historical summary (and the golden fixtures
        # recorded from them) byte-identical.
        max_link_traversals = None
        hot_link_share = None
        load = self.estimators.get("congestion")
        if load is not None:
            max_link_traversals = load.max_link_traversals()
            hot_link_share = round(load.hot_link_share(), 9)
        return SimulationStats(
            jobs_completed=jobs_completed,
            partial_progress=partial,
            jobs_lost=self.jobs_lost,
            lifetime_frames=self.frames_done,
            lifetime_cycles=self.cycle,
            death_cause=death,
            routing=self.config.routing,
            energy=self.ledger,
            wasted_at_death_pj=wasted,
            stranded_alive_pj=stranded,
            conversion_loss_pj=loss,
            recompute_count=self.control.recompute_count,
            deadlocks_reported=self.deadlocks_reported,
            deadlocks_recovered=self.deadlocks_recovered,
            op_retries=self.op_retries,
            verification_failures=self.verification_failures,
            total_hops=self.total_hops,
            faults_injected=self.faults_injected,
            links_cut=self.links_cut,
            links_degraded=self.links_degraded,
            links_repaired=self.links_repaired,
            nodes_fault_killed=self.nodes_fault_killed,
            packets_rerouted=self.packets_rerouted,
            harvested_pj=self.ledger.harvested_pj,
            shared_pj=self.ledger.shared_pj,
            share_hops=self.ledger.share_hops,
            harvest_events=self.ledger.harvest_events,
            max_link_traversals=max_link_traversals,
            hot_link_share=hot_link_share,
        )
