"""The centralized control plane: status ingestion, routing recomputation,
table dissemination, controller fail-over.

One :class:`ControlPlane` owns the controller-side state of the TDMA
mechanism (paper Sec 5.3): the last reported battery level and liveness
of every node, the known length of every line, the blocked-port registry
of the deadlock-recovery protocol, the cached routing plan, and the
cells of the controller units' fail-over chain.
Each simulated frame the engine hands it the frame's uploads as arrays;
the plane diffs them against its record and re-runs the routing
algorithm *only when the reported information differs from the previous
one* — the paper's trigger — and accounts for every picojoule the
controllers spend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core.costs import LevelChannel
from ..core.engines import RoutingEngine
from ..core.phase3 import NO_DESTINATION, SINK, RoutingPlan
from ..core.trees import slot_of
from ..core.view import NetworkView
from ..errors import ConfigurationError
from ..mesh.mapping import ModuleMapping
from ..telemetry.recorder import NULL_RECORDER, Recorder
from .controller_power import ControllerEnergyModel
from .deadlock import BlockedPortRegistry, DeadlockPolicy
from .tdma import TdmaSchedule

if TYPE_CHECKING:
    from ..sim.vector_bank import IdealBatteryBank, ThinFilmBatteryBank


@dataclass(frozen=True)
class FrameOutcome:
    """What the control plane did during one frame.

    Attributes:
        recomputed: True when the routing algorithm was re-executed.
        table_entries_sent: Routing-table entries downloaded to nodes.
        controller_energy_pj: Energy breakdown (rx / compute /
            download_tx / housekeeping / idle_leak).
        controllers_alive: Number of controller units still alive after
            the frame.
        active_controller: Index of the active unit (None if all dead).
        failed_over: True when the active unit died during this frame.
    """

    recomputed: bool
    table_entries_sent: int
    controller_energy_pj: dict[str, float] = field(default_factory=dict)
    controllers_alive: int = 0
    active_controller: int | None = None
    failed_over: bool = False


class ControlPlane:
    """Controller-side protocol state machine."""

    def __init__(
        self,
        neighbors: np.ndarray,
        edge_lengths: np.ndarray,
        mapping: ModuleMapping,
        engine: RoutingEngine,
        levels: int,
        schedule: TdmaSchedule,
        energy_model: ControllerEnergyModel,
        deadlock_policy: DeadlockPolicy,
        cells: IdealBatteryBank | ThinFilmBatteryBank,
        recorder: Recorder | None = None,
        sink: int | None = None,
    ):
        if not len(cells.alive):
            raise ConfigurationError("need at least one controller unit")
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        # Cached gate booleans: the per-frame path must not pay an
        # attribute chain (or any call) for a disabled recorder.
        self._trace = bool(self._recorder.active)
        self._timed = bool(self._recorder.times)
        #: Re-plan causes accumulated since the last recomputation
        #: (trace-only; the update_* hooks feed it).
        self._change_causes: set[str] = set()
        #: The fabric's fixed ``(K, M)`` neighbour table.
        self._neighbors = neighbors
        #: The known length of every line, one per slot of the table:
        #: the only record of it.  Fault injection reaches it only
        #: through update_line (the controller routes on *known* state).
        self._edge_lengths = np.array(edge_lengths, dtype=float)
        self._num_nodes = int(neighbors.shape[0])
        #: The source block finished jobs return to (root of the plan's
        #: sink column), or None when no job returns: the plans then
        #: leave the sink column unreachable.
        self._sink = sink
        self._links_changed = False
        self._mapping = mapping
        self._engine = engine
        self._levels = int(levels)
        self._schedule = schedule
        self._energy_model = energy_model
        self._registry = BlockedPortRegistry(deadlock_policy)
        #: The fail-over chain: one cell per controller unit, in order.
        self._cells = cells
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
    def alive(self) -> bool:
        """True while at least one controller unit is alive."""
        return bool(self._cells.alive.any())

    @property
    def recompute_count(self) -> int:
        """Total routing recomputations so far."""
        return self._recompute_count

    def known_length(self, u: int, v: int) -> float:
        """The length the controller knows for the ``u -> v`` line:
        ``inf`` once a node reported it cut."""
        return float(self._edge_lengths[u, slot_of(self._neighbors, u, v)])

    def update_line(self, u: int, v: int, length: float) -> None:
        """Hook: the controller learned the ``u -> v`` line's length.

        The engine calls this for one direction of a line at a time:
        ``inf`` for a cut some node discovered, a finite length for a
        degradation, its expiry or a repair.  The next processed frame
        recomputes routing from the new picture — the same trigger
        discipline as a changed upload, even when the length is the one
        already known.
        """
        # Every plan keeps the view it was computed from, so the write
        # goes to a fresh copy rather than into a snapshot.
        edges = self._edge_lengths.copy()
        edges[u, slot_of(self._neighbors, u, v)] = length
        self._edge_lengths = edges
        self._links_changed = True
        if self._trace:
            self._change_causes.add("link-state")

    def update_levels(self, channel: LevelChannel, levels: np.ndarray) -> None:
        """Hook: a level channel's quantised picture changed.

        The engine pushes a fresh level vector (node channels) or
        ``(K, M)`` slot array (link channels) only when some level
        actually changed, so this triggers a recomputation exactly as a
        changed battery report would — not on every traversal or
        harvested picojoule.
        """
        self._channel_levels[channel.name] = np.array(levels, dtype=int)
        self._links_changed = True
        if self._trace:
            self._change_causes.add(f"{channel.signal}-level")

    def view(self) -> NetworkView:
        """Current reported-state snapshot."""
        return NetworkView(
            neighbors=self._neighbors,
            edge_lengths=self._edge_lengths,
            alive=self._node_alive.copy(),
            battery_levels=self._node_levels.copy(),
            levels=self._levels,
            mapping=self._mapping,
            blocked_ports=self._registry.blocked_ports(),
            channel_levels=self._channel_levels,
            sink=self._sink,
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
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
    def _compute_plan(self) -> list[dict]:
        """Put in force a plan computed from the current view.

        The one place a plan is computed: the engine gets the trace's
        term observer and the recorder's timer when the recorder has
        them, and None otherwise.  Returns the per-term weight
        attribution rows (empty without a trace).
        """
        attribution: list[dict] = []
        observer = self._term_observer(attribution) if self._trace else None
        timer = self._recorder.timing if self._timed else None
        started = time.perf_counter() if timer is not None else 0.0
        self._plan = self._engine.compute_plan(self.view(), observer, timer)
        if timer is not None:
            timer("plan-compute", time.perf_counter() - started)
        return attribution

    def bootstrap(self) -> RoutingPlan:
        """Initial route computation and full table download (frame -1).

        The bootstrap is free of charge: the paper collects performance
        data from a fully initialised system.
        """
        attribution = self._compute_plan()
        if self._trace:
            self._change_causes.clear()
            self._recorder.event(
                "replan", frame=-1, causes=["bootstrap"], terms=attribution
            )
        self._last_tables = self._tables_of(self._plan)
        return self._plan

    def _advance_active(self) -> bool:
        """Move the active index to the next living unit.

        Returns True if a living unit exists.
        """
        living = self._cells.alive.nonzero()[0]
        if not len(living):
            return False
        self._active = int(living[0])
        return True

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
        levels: np.ndarray,
        alive: np.ndarray,
        flags: dict[int, int],
        heartbeat_count: int,
    ) -> FrameOutcome:
        """Run one TDMA frame of the control protocol.

        Args:
            frame: Frame index (monotonically increasing).
            levels: The frame's uploaded quantised battery level of
                every mesh node (nodes ``0 .. len(levels) - 1``; 0 for a
                dead one).
            alive: The same nodes' uploaded liveness.
            flags: Deadlock flags of living nodes, ``node -> blocked
                successor``, in node order.
            heartbeat_count: Total uploads physically received this
                frame (every live node reports in its slot each frame,
                paper Sec 5.3).  Node-side transmit energy is charged by
                the engine; this method charges the controller's receive
                side.
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
                recomputed=False,
                table_entries_sent=0,
                controller_energy_pj=energy,
                controllers_alive=0,
                active_controller=None,
            )
        active = self._active

        trace = self._trace
        changed = False
        mesh = len(levels)
        moved = levels != self._node_levels[:mesh]
        flipped = alive != self._node_alive[:mesh]
        if moved.any():
            self._node_levels[:mesh] = levels
            changed = True
            if trace:
                self._change_causes.add("battery-level")
        if flipped.any():
            self._node_alive[:mesh] = alive
            changed = True
            if trace:
                self._change_causes.add("liveness")
        for node, port in flags.items():
            if self._registry.report(node, port, frame):
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

        energy["rx"] = self._energy_model.rx_energy_pj(heartbeat_count)
        energy["housekeeping"] = self._energy_model.housekeeping_energy_pj(
            self._num_nodes
        )

        entries_sent = 0
        recomputed = False
        if changed:
            attribution = self._compute_plan()
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
                # The nodes that reported: every upload that differs
                # from the record, and every deadlock flag.
                reported = moved | flipped
                reported[list(flags)] = True
                causes = sorted(self._change_causes)
                self._change_causes.clear()
                self._recorder.event(
                    "replan",
                    frame=frame,
                    causes=causes,
                    reports=int(np.count_nonzero(reported)),
                    entries_sent=entries_sent,
                    terms=attribution,
                )

        cells = self._cells
        idle_units = [
            unit
            for unit, alive in enumerate(cells.alive.tolist())
            if alive and unit != active
        ]

        # Charge the energy: active unit pays rx+compute+download+housekeeping,
        # idle units pay their own leak.
        active_cost = (
            energy["rx"]
            + energy["compute"]
            + energy["download_tx"]
            + energy["housekeeping"]
        )
        frame_cycles = self._schedule.frame_cycles
        _, failed_over = cells.draw_one(active, active_cost, frame_cycles)
        idle_cost = self._energy_model.idle_energy_pj(self._num_nodes)
        # The reported leak is what the idle cells actually *delivered*
        # — a unit dying mid-draw delivers less than the nominal quantum,
        # and the frame breakdown must agree with the batteries.
        idle_delivered = 0.0
        for unit in idle_units:
            before = float(cells.delivered[unit])
            cells.draw_one(unit, idle_cost, frame_cycles)
            idle_delivered += float(cells.delivered[unit]) - before
        energy["idle_leak"] = idle_delivered

        if failed_over:
            self._advance_active()

        alive = int(np.count_nonzero(cells.alive))
        return FrameOutcome(
            recomputed=recomputed,
            table_entries_sent=entries_sent,
            controller_energy_pj=energy,
            controllers_alive=alive,
            active_controller=self._active if alive else None,
            failed_over=failed_over,
        )
