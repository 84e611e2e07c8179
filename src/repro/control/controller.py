"""The centralized control plane: status ingestion, routing recomputation,
table dissemination, controller fail-over.

One :class:`ControlPlane` owns the controller-side state of the TDMA
mechanism (paper Sec 5.3): the last reported battery level and liveness
of every node, the blocked-port registry of the deadlock-recovery
protocol, the cached routing plan, and the chain of controller units.
Each simulated frame the engine feeds it the node status reports; the
plane re-runs the routing algorithm *only when the reported information
differs from the previous one* — the paper's trigger — and accounts for
every picojoule the controllers spend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..battery.base import Battery
from ..core.costs import LevelChannel
from ..core.engines import RoutingEngine
from ..core.phase3 import NO_DESTINATION, SINK, RoutingPlan
from ..core.trees import edge_lengths, neighbor_table
from ..core.view import NetworkView
from ..errors import ConfigurationError
from ..mesh.mapping import ModuleMapping
from ..telemetry.recorder import NULL_RECORDER, Recorder
from .controller_power import ControllerEnergyModel
from .deadlock import BlockedPortRegistry, DeadlockPolicy
from .tdma import TdmaSchedule


@dataclass(frozen=True)
class StatusReport:
    """One node's upload-slot payload.

    Attributes:
        node: Reporting node id.
        level: Quantised battery level.
        alive: Whether the node is still alive.
        blocked_port: Successor id of a port the node reports as
            deadlocked, or None.
    """

    node: int
    level: int
    alive: bool
    blocked_port: int | None = None


@dataclass(frozen=True)
class FrameOutcome:
    """What the control plane did during one frame.

    Attributes:
        frame: Frame index.
        plan: The routing plan in force after this frame.
        recomputed: True when the routing algorithm was re-executed.
        reports_processed: Status uploads ingested this frame.
        table_entries_sent: Routing-table entries downloaded to nodes.
        controller_energy_pj: Energy breakdown (rx / compute /
            download_tx / housekeeping / idle_leak).
        controllers_alive: Number of controller units still alive after
            the frame.
        active_controller: Index of the active unit (None if all dead).
        failed_over: True when the active unit died during this frame.
    """

    frame: int
    plan: RoutingPlan | None
    recomputed: bool
    reports_processed: int
    table_entries_sent: int
    controller_energy_pj: dict[str, float] = field(default_factory=dict)
    controllers_alive: int = 0
    active_controller: int | None = None
    failed_over: bool = False


class ControllerUnit:
    """One physical controller: a battery (or an infinite supply)."""

    def __init__(self, battery: Battery | None):
        self._battery = battery
        self._delivered = 0.0

    @property
    def battery(self) -> Battery | None:
        return self._battery

    @property
    def alive(self) -> bool:
        return self._battery is None or self._battery.alive

    @property
    def delivered_pj(self) -> float:
        """Energy this unit has spent on control work."""
        return self._delivered

    def draw(self, energy_pj: float, duration_cycles: float) -> bool:
        """Draw energy; returns False when the unit died on this draw."""
        if self._battery is None:
            self._delivered += energy_pj
            return True
        if not self._battery.alive:
            return False
        result = self._battery.draw(energy_pj, duration_cycles)
        self._delivered += result.delivered_pj
        return not result.died


class ControlPlane:
    """Controller-side protocol state machine."""

    def __init__(
        self,
        lengths: np.ndarray,
        mapping: ModuleMapping,
        engine: RoutingEngine,
        levels: int,
        schedule: TdmaSchedule,
        energy_model: ControllerEnergyModel,
        deadlock_policy: DeadlockPolicy,
        controller_batteries: list[Battery | None],
        recorder: Recorder | None = None,
        sink: int | None = None,
    ):
        if not controller_batteries:
            raise ConfigurationError("need at least one controller unit")
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        # Cached gate booleans: the per-frame path must not pay an
        # attribute chain (or any call) for a disabled recorder.
        self._trace = bool(self._recorder.active)
        self._timed = bool(self._recorder.times)
        #: Re-plan causes accumulated since the last recomputation
        #: (trace-only; the update_* hooks feed it).
        self._change_causes: set[str] = set()
        # Own copy: the engine's working matrix mutates under fault
        # injection and must only reach the controller via the
        # update_lengths hook (the controller routes on *known* state).
        self._lengths = np.array(lengths, dtype=float)
        self._neighbors = neighbor_table(self._lengths)
        self._edge_lengths = edge_lengths(self._lengths, self._neighbors)
        self._num_nodes = int(self._lengths.shape[0])
        #: The source block finished jobs return to (root of the plan's
        #: sink column), or None for a sink-less fabric.
        self._sink = sink
        self._links_changed = False
        self._mapping = mapping
        self._engine = engine
        self._levels = int(levels)
        self._schedule = schedule
        self._energy_model = energy_model
        self._registry = BlockedPortRegistry(deadlock_policy)
        self._units = [ControllerUnit(b) for b in controller_batteries]
        self._active = 0

        self._node_levels = np.full(self._num_nodes, levels - 1, dtype=int)
        self._node_alive = np.ones(self._num_nodes, dtype=bool)
        self._plan: RoutingPlan | None = None
        self._last_tables: np.ndarray | None = None
        self._recompute_count = 0
        #: Channel name -> latest quantised levels pushed by the engine
        #: (a channel is absent until its first level change).
        self._channel_levels: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> RoutingEngine:
        return self._engine

    @property
    def plan(self) -> RoutingPlan | None:
        """The routing plan currently in force."""
        return self._plan

    @property
    def units(self) -> tuple[ControllerUnit, ...]:
        return tuple(self._units)

    @property
    def alive(self) -> bool:
        """True while at least one controller unit is alive."""
        return any(unit.alive for unit in self._units)

    @property
    def recompute_count(self) -> int:
        """Total routing recomputations so far."""
        return self._recompute_count

    @property
    def deadlock_reports(self) -> int:
        return self._registry.total_reports

    def update_lengths(self, lengths: np.ndarray) -> None:
        """Hook: the physical link state changed (cut or degraded lines).

        The engine calls this when fault injection rewrites the length
        matrix (``inf`` for severed lines, scaled lengths for degraded
        ones).  The next processed frame recomputes routing from the new
        picture — the same trigger discipline as changed status reports.
        """
        self._lengths = np.array(lengths, dtype=float)
        self._neighbors = neighbor_table(self._lengths)
        self._edge_lengths = edge_lengths(self._lengths, self._neighbors)
        self._links_changed = True
        if self._trace:
            self._change_causes.add("link-state")

    def update_levels(self, channel: LevelChannel, levels: np.ndarray) -> None:
        """Hook: a level channel's quantised picture changed.

        The engine pushes a fresh level vector (node channels) or
        matrix (link channels) only when some level actually changed,
        so this triggers a recomputation exactly as a changed battery
        report would — not on every traversal or harvested picojoule.
        """
        self._channel_levels[channel.name] = np.array(levels, dtype=int)
        self._links_changed = True
        if self._trace:
            self._change_causes.add(f"{channel.signal}-level")

    def view(self) -> NetworkView:
        """Current reported-state snapshot."""
        return NetworkView(
            lengths=self._lengths,
            alive=self._node_alive.copy(),
            battery_levels=self._node_levels.copy(),
            levels=self._levels,
            mapping=self._mapping,
            blocked_ports=self._registry.blocked_ports(),
            channel_levels=self._channel_levels,
            sink=self._sink,
            neighbors=self._neighbors,
            edge_lengths=self._edge_lengths,
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _compute_plan_traced(self) -> tuple[RoutingPlan, list[dict]]:
        """Run the routing engine with the trace/timer hooks attached.

        Only called when the recorder is live: the recorder-free path
        keeps calling ``compute_plan(view)`` with no extra arguments,
        so its instruction stream is untouched.  Returns the plan plus
        the per-term weight attribution rows.
        """
        attribution: list[dict] = []
        observer = self._term_observer(attribution) if self._trace else None
        timer = self._recorder.timing if self._timed else None
        if self._timed:
            started = time.perf_counter()
            plan = self._engine.compute_plan(
                self.view(), term_observer=observer, timer=timer
            )
            self._recorder.timing(
                "plan-compute", time.perf_counter() - started
            )
        else:
            plan = self._engine.compute_plan(
                self.view(), term_observer=observer, timer=timer
            )
        return plan, attribution

    @staticmethod
    def _term_observer(sink: list[dict]):
        """Per-term weight-attribution callback for the cost pipeline.

        Each applied term contributes one row summarising how it scaled
        the running edge weights: how many finite link weights it
        touched and the extreme scale factors.  Ratios are rounded so
        the rows are stable under bit-identical reruns.
        """

        def observe(
            name: str, before: np.ndarray, after: np.ndarray
        ) -> None:
            # Terms scale finite link weights in place, so an entry
            # differs iff the term touched it (inf stays inf) —
            # comparing once and dividing only the changed entries
            # keeps this cheap enough for the TraceRecorder overhead
            # budget.
            changed = before != after
            scaled = int(np.count_nonzero(changed))
            if scaled:
                ratio = after[changed] / before[changed]
                max_factor = float(ratio.max())
                min_factor = float(ratio.min())
            else:
                max_factor, min_factor = 1.0, 1.0
            sink.append(
                {
                    "term": name,
                    "links_scaled": scaled,
                    "max_factor": round(max_factor, 6),
                    "min_factor": round(min_factor, 6),
                }
            )

        return observe

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def bootstrap(self) -> RoutingPlan:
        """Initial route computation and full table download (frame -1).

        The bootstrap is free of charge: the paper collects performance
        data from a fully initialised system.
        """
        if self._trace or self._timed:
            self._plan, attribution = self._compute_plan_traced()
            if self._trace:
                self._change_causes.clear()
                self._recorder.event(
                    "replan",
                    frame=-1,
                    causes=["bootstrap"],
                    terms=attribution,
                )
        else:
            self._plan = self._engine.compute_plan(self.view())
        self._last_tables = self._tables_of(self._plan)
        return self._plan

    def _advance_active(self) -> bool:
        """Move the active index to the next living unit.

        Returns True if a living unit exists.
        """
        for index, unit in enumerate(self._units):
            if unit.alive:
                self._active = index
                return True
        return False

    def _tables_of(self, plan: RoutingPlan) -> np.ndarray:
        """Per-node routing tables implied by a plan.

        Entry ``[n, i]`` is the next hop stored at node ``n`` for module
        ``i`` (paper Fig 6's ``RT(i)``), or -1 when unreachable: the
        plan's hop table with the sink column masked out, since the
        route back to the source is not part of the downloaded tables.
        """
        tables = plan.hops.copy()
        tables[:, SINK] = NO_DESTINATION
        return tables

    def process_frame(
        self,
        frame: int,
        reports: list[StatusReport],
        heartbeat_count: int | None = None,
    ) -> FrameOutcome:
        """Run one TDMA frame of the control protocol.

        Args:
            frame: Frame index (monotonically increasing).
            reports: Status uploads whose content *changed* this frame
                (level transitions, deaths, deadlock flags).
            heartbeat_count: Total uploads physically received this
                frame (every live node reports in its slot each frame,
                paper Sec 5.3).  Defaults to ``len(reports)``.  Node-side
                transmit energy is charged by the engine; this method
                charges the controller's receive side.
        """
        if self._plan is None:
            raise ConfigurationError("bootstrap() must run before frames")

        energy = {
            "rx": 0.0,
            "compute": 0.0,
            "download_tx": 0.0,
            "housekeeping": 0.0,
            "idle_leak": 0.0,
        }
        if not self._advance_active():
            return FrameOutcome(
                frame=frame,
                plan=self._plan,
                recomputed=False,
                reports_processed=0,
                table_entries_sent=0,
                controller_energy_pj=energy,
                controllers_alive=0,
                active_controller=None,
            )
        active_index = self._active
        active = self._units[active_index]

        trace = self._trace
        changed = False
        for report in reports:
            if not 0 <= report.node < self._num_nodes:
                raise ConfigurationError(
                    f"report from unknown node {report.node}"
                )
            if self._node_levels[report.node] != report.level:
                self._node_levels[report.node] = report.level
                changed = True
                if trace:
                    self._change_causes.add("battery-level")
            if self._node_alive[report.node] != report.alive:
                self._node_alive[report.node] = report.alive
                changed = True
                if trace:
                    self._change_causes.add("liveness")
            if report.blocked_port is not None:
                if self._registry.report(report.node, report.blocked_port, frame):
                    changed = True
                    if trace:
                        self._change_causes.add("deadlock-report")
        if self._registry.expire(frame):
            changed = True
            if trace:
                self._change_causes.add("deadlock-expiry")
        if self._links_changed:
            changed = True
            self._links_changed = False

        received = heartbeat_count if heartbeat_count is not None else len(reports)
        energy["rx"] = self._energy_model.rx_energy_pj(received)
        energy["housekeeping"] = self._energy_model.housekeeping_energy_pj(
            self._num_nodes
        )

        entries_sent = 0
        recomputed = False
        if changed:
            if trace or self._timed:
                self._plan, attribution = self._compute_plan_traced()
                causes = sorted(self._change_causes)
                self._change_causes.clear()
            else:
                self._plan = self._engine.compute_plan(self.view())
            self._recompute_count += 1
            recomputed = True
            energy["compute"] = self._energy_model.route_compute_energy_pj(
                self._num_nodes
            )
            new_tables = self._tables_of(self._plan)
            if self._last_tables is None:
                entries_sent = int(np.count_nonzero(new_tables >= 0))
            else:
                # Only rows of *live* nodes are downloaded: a dead
                # node's row flips to -1 against the previous tables,
                # and the controller must not pay to download a routing
                # table to a corpse.
                changed = new_tables != self._last_tables
                changed &= self._node_alive[:, np.newaxis]
                entries_sent = int(np.count_nonzero(changed))
            self._last_tables = new_tables
            energy["download_tx"] = (
                entries_sent * self._schedule.table_entry_energy_pj
            )
            if trace:
                self._recorder.event(
                    "replan",
                    frame=frame,
                    causes=causes,
                    reports=len(reports),
                    entries_sent=entries_sent,
                    terms=attribution,
                )

        idle_units = [
            u for i, u in enumerate(self._units)
            if i != active_index and u.alive
        ]

        # Charge the energy: active unit pays rx+compute+download+housekeeping,
        # idle units pay their own leak.
        active_cost = (
            energy["rx"]
            + energy["compute"]
            + energy["download_tx"]
            + energy["housekeeping"]
        )
        survived = active.draw(active_cost, self._schedule.frame_cycles)
        idle_cost = self._energy_model.idle_energy_pj(self._num_nodes)
        # The reported leak is what the idle cells actually *delivered*
        # — a unit dying mid-draw delivers less than the nominal quantum,
        # and the frame breakdown must agree with the batteries.
        idle_delivered = 0.0
        for unit in idle_units:
            before = unit.delivered_pj
            unit.draw(idle_cost, self._schedule.frame_cycles)
            idle_delivered += unit.delivered_pj - before
        energy["idle_leak"] = idle_delivered

        failed_over = False
        if not survived:
            failed_over = True
            self._advance_active()

        return FrameOutcome(
            frame=frame,
            plan=self._plan,
            recomputed=recomputed,
            reports_processed=len(reports),
            table_entries_sent=entries_sent,
            controller_energy_pj=energy,
            controllers_alive=sum(1 for u in self._units if u.alive),
            active_controller=self._active if self.alive else None,
            failed_over=failed_over,
        )
