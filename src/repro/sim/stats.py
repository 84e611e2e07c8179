"""Energy accounting and simulation statistics.

The paper's headline metric is the number of completed jobs at system
death; supporting numbers are the energy split between application and
control ("the percentage of energy consumed on exchanging the control
information", Sec 7.1) and the battery state at death.  The ledger
accumulates every picojoule by bucket and, in one array per counter, by
mesh node, so energy conservation can be asserted in total and node by
node:

    delivered_by_batteries == compute + data_tx + control_upload + share_tx
    nominal + harvested == delivered_to_loads + conversion_loss
                           + wasted + stranded

where ``harvested`` is the external income accepted into cells and
``conversion_loss`` covers both the batteries' rate-capacity losses and
the textile power bus's transfer losses (energy drawn from a donor for
sharing minus what the receiver's cell accepted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NodeStats:
    """Per-node counters, one array over the mesh nodes each.

    ``ledger.nodes.operations[n]`` is node ``n``'s operation count, and
    so on.  The source block has no entry: its hops are booked to
    :attr:`EnergyLedger.source_tx_pj`.

    Attributes:
        operations: Acts of computation executed.
        packets_sent: Packets transmitted (own or relayed).
        packets_relayed: Subset of ``packets_sent`` relayed for others.
        compute_pj: Energy drawn for computation.
        data_tx_pj: Energy drawn for data transmission.
        upload_pj: Energy drawn for control status uploads.
        share_tx_pj: Energy drawn to push charge onto the power bus.
        harvested_pj: External harvest income accepted by this node's
            cell.
        shared_pj: Bus transfers accepted by this node's cell
            (post-conversion).
        share_relay_pj: Bus energy that passed *through* this node on a
            multi-hop transfer (post-conversion at the inbound hop; it
            never touches the node's own cell).
        died_at_frame: Frame of death (-1 while alive).
    """

    def __init__(self, num_nodes: int):
        self.operations = np.zeros(num_nodes, dtype=np.int64)
        self.packets_sent = np.zeros(num_nodes, dtype=np.int64)
        self.packets_relayed = np.zeros(num_nodes, dtype=np.int64)
        self.compute_pj = np.zeros(num_nodes)
        self.data_tx_pj = np.zeros(num_nodes)
        self.upload_pj = np.zeros(num_nodes)
        self.share_tx_pj = np.zeros(num_nodes)
        self.harvested_pj = np.zeros(num_nodes)
        self.shared_pj = np.zeros(num_nodes)
        self.share_relay_pj = np.zeros(num_nodes)
        self.died_at_frame = np.full(num_nodes, -1, dtype=np.int64)

    @property
    def total_pj(self) -> np.ndarray:
        """Everything drawn from each node's cell."""
        return (
            self.compute_pj
            + self.data_tx_pj
            + self.upload_pj
            + self.share_tx_pj
        )


class EnergyLedger:
    """Mutable energy accounting used by the engines."""

    #: Controller-side bucket names (mirrors FrameOutcome's breakdown).
    CONTROLLER_BUCKETS = (
        "rx",
        "compute",
        "download_tx",
        "housekeeping",
        "idle_leak",
    )

    def __init__(self, num_nodes: int):
        #: Per-node columns over the ``num_nodes`` mesh nodes.
        self.nodes = NodeStats(num_nodes)
        self.compute_pj = 0.0
        self.data_tx_pj = 0.0
        self.upload_pj = 0.0
        self.source_tx_pj = 0.0
        #: External harvest income accepted into mesh-node cells.
        self.harvested_pj = 0.0
        #: Bus transfers accepted by receiving cells (post-conversion).
        self.shared_pj = 0.0
        #: Energy drawn from donor cells to feed the power bus.
        self.share_tx_pj = 0.0
        #: Bus energy lost in conversion (drawn minus accepted).
        self.share_loss_pj = 0.0
        #: Subset of ``share_loss_pj`` dissipated hop by hop in the
        #: textile lines (each line segment passes ``share_efficiency``
        #: of what enters it).
        self.share_hop_loss_pj = 0.0
        #: Subset of ``share_loss_pj`` rejected at the receiving cell
        #: (arrivals beyond its headroom).
        self.share_rejected_pj = 0.0
        #: Bus line segments traversed by transfers.
        self.share_hops = 0
        #: Harvest pulses that actually recharged a cell.
        self.harvest_events = 0
        self.controller_pj: dict[str, float] = {
            bucket: 0.0 for bucket in self.CONTROLLER_BUCKETS
        }

    # ------------------------------------------------------------------
    def add_compute(self, node: int, energy_pj: float) -> None:
        self.compute_pj += energy_pj
        nodes = self.nodes
        nodes.compute_pj[node] += energy_pj
        nodes.operations[node] += 1

    def add_data_tx(
        self, node: int, energy_pj: float, relay: bool
    ) -> None:
        self.data_tx_pj += energy_pj
        nodes = self.nodes
        nodes.data_tx_pj[node] += energy_pj
        nodes.packets_sent[node] += 1
        if relay:
            nodes.packets_relayed[node] += 1

    def add_source_tx(self, energy_pj: float) -> None:
        """Transmissions paid by the external (infinite-supply) source."""
        self.source_tx_pj += energy_pj

    def add_share_hop(self, loss_pj: float) -> None:
        """One line segment of a bus transfer: ``loss_pj`` of what
        entered the segment was lost to conversion.  (Per-node
        attribution of relayed energy is :meth:`note_share_relay`.)"""
        self.share_hops += 1
        self.share_hop_loss_pj += loss_pj

    def note_share_relay(self, node: int, energy_pj: float) -> None:
        """``energy_pj`` passed through ``node`` on a multi-hop
        transfer without touching its cell."""
        self.nodes.share_relay_pj[node] += energy_pj

    def add_share(
        self,
        donor: int,
        drawn_pj: float,
        receiver: int,
        accepted_pj: float,
        arrived_pj: float | None = None,
    ) -> None:
        """One bus transfer: ``drawn_pj`` left the donor's cell and
        ``accepted_pj`` arrived in the receiver's; the difference is
        conversion loss in the textile bus.  ``arrived_pj`` — what
        reached the receiving cell after the per-hop losses — splits
        that difference into hop loss and headroom rejection."""
        self.share_tx_pj += drawn_pj
        self.nodes.share_tx_pj[donor] += drawn_pj
        self.shared_pj += accepted_pj
        self.nodes.shared_pj[receiver] += accepted_pj
        self.share_loss_pj += drawn_pj - accepted_pj
        if arrived_pj is not None:
            self.share_rejected_pj += arrived_pj - accepted_pj

    def add_controller(self, breakdown: dict[str, float]) -> None:
        for bucket, energy in breakdown.items():
            self.controller_pj[bucket] = (
                self.controller_pj.get(bucket, 0.0) + energy
            )

    def mark_death(self, node: int, frame: int) -> None:
        if self.nodes.died_at_frame[node] < 0:
            self.nodes.died_at_frame[node] = frame

    # ------------------------------------------------------------------
    @property
    def node_total_pj(self) -> float:
        """Everything drawn from mesh-node batteries."""
        return (
            self.compute_pj
            + self.data_tx_pj
            + self.upload_pj
            + self.share_tx_pj
        )

    @property
    def controller_total_pj(self) -> float:
        return sum(self.controller_pj.values())

    @property
    def control_medium_pj(self) -> float:
        """Energy spent *exchanging control information* on the shared
        medium: node status uploads plus routing-table downloads.

        This is the quantity behind the paper's Sec 7.1 percentages
        (2.8 % .. 11.6 %); the controllers' internal energy is accounted
        separately (it comes from an infinite supply in the Sec 7.1-7.2
        experiments and only matters for Fig 8).
        """
        return self.upload_pj + self.controller_pj.get("download_tx", 0.0)

    @property
    def application_total_pj(self) -> float:
        """Computation plus data transport (including the source's)."""
        return self.compute_pj + self.data_tx_pj + self.source_tx_pj

    def control_overhead_fraction(self) -> float:
        """The paper's Sec 7.1 metric: control-exchange energy over the
        total (application + control-exchange) energy."""
        total = self.control_medium_pj + self.application_total_pj
        if total <= 0:
            return 0.0
        return self.control_medium_pj / total


@dataclass
class SimulationStats:
    """Immutable summary returned by a finished simulation.

    Attributes:
        jobs_completed: Whole jobs finished before system death.
        partial_progress: Fractional progress (completed operations over
            operations per job) of work lost at death — the paper
            reports fractional job counts such as 62.8.
        jobs_lost: Jobs abandoned after unrecoverable failures.
        lifetime_frames / lifetime_cycles: System lifetime.
        death_cause: Why the system died (``module-unreachable``,
            ``controller-dead``, ``source-cut``, ``frame-budget``,
            ``job-budget``).
        routing: Routing algorithm name.
        energy: Final energy ledger.
        wasted_at_death_pj: Residual energy stranded in dead cells.
        stranded_alive_pj: Residual energy in cells still alive at
            system death.
        conversion_loss_pj: Rate-capacity losses inside batteries.
        recompute_count: Routing recomputations performed.
        deadlocks_reported / deadlocks_recovered: Deadlock protocol
            activity (concurrent engine).
        op_retries: Operations re-dispatched after node deaths.
        verification_failures: Completed jobs whose ciphertext did not
            match the reference cipher (must be 0).
        total_hops: Data-network hops traversed.
        faults_injected: Fault events actually applied to the platform.
        links_cut: Interconnect lines permanently severed.
        links_degraded: Transient link-degradation events applied.
        links_repaired: Cut lines re-sewn by repair events.
        nodes_fault_killed: Nodes killed by faults (not battery death).
        packets_rerouted: Dispatches/packets blocked by fault state that
            subsequently progressed along another path or a fresh plan.
        harvested_pj: External harvest income accepted into cells.
        shared_pj: Power-bus transfers accepted by receiving cells.
        share_hops: Bus line segments traversed by power transfers.
        harvest_events: Harvest pulses that actually recharged a cell.
        max_link_traversals: Lifetime traversal count of the single
            busiest link (None unless the run tracked congestion —
            absent keys keep historical summaries byte-identical).
        hot_link_share: Busiest link's share of all link traversals
            (None unless the run tracked congestion).
        extra: Out-of-band metadata attached by harnesses (e.g. the
            sweep runner's wall-clock timing); never part of
            :meth:`summary`.
    """

    jobs_completed: int = 0
    partial_progress: float = 0.0
    jobs_lost: int = 0
    lifetime_frames: int = 0
    lifetime_cycles: int = 0
    death_cause: str = "unknown"
    routing: str = "?"
    energy: EnergyLedger | None = None
    wasted_at_death_pj: float = 0.0
    stranded_alive_pj: float = 0.0
    conversion_loss_pj: float = 0.0
    recompute_count: int = 0
    deadlocks_reported: int = 0
    deadlocks_recovered: int = 0
    op_retries: int = 0
    verification_failures: int = 0
    total_hops: int = 0
    faults_injected: int = 0
    links_cut: int = 0
    links_degraded: int = 0
    links_repaired: int = 0
    nodes_fault_killed: int = 0
    packets_rerouted: int = 0
    harvested_pj: float = 0.0
    shared_pj: float = 0.0
    share_hops: int = 0
    harvest_events: int = 0
    max_link_traversals: int | None = None
    hot_link_share: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def jobs_fractional(self) -> float:
        """Completed jobs including the partial credit of in-flight work
        (matches the paper's fractional reporting, e.g. 62.8)."""
        return self.jobs_completed + self.partial_progress

    @property
    def control_overhead_fraction(self) -> float:
        if self.energy is None:
            return 0.0
        return self.energy.control_overhead_fraction()

    def summary(self) -> dict:
        """Compact JSON-safe result record for sweep harnesses.

        Congestion metrics appear only on runs that tracked them, so
        summaries (and the golden fixtures recorded from them) of
        congestion-blind runs are unchanged by the subsystem's
        existence.
        """
        energy = self.energy
        congestion = {}
        if self.max_link_traversals is not None:
            congestion["max_link_traversals"] = self.max_link_traversals
            congestion["hot_link_share"] = self.hot_link_share
        return {
            "routing": self.routing,
            "jobs_completed": self.jobs_completed,
            "jobs_fractional": round(self.jobs_fractional, 3),
            "jobs_lost": self.jobs_lost,
            "lifetime_frames": self.lifetime_frames,
            "death_cause": self.death_cause,
            "control_overhead": round(self.control_overhead_fraction, 5),
            "compute_pj": round(energy.compute_pj, 1) if energy else 0.0,
            "data_tx_pj": round(energy.data_tx_pj, 1) if energy else 0.0,
            "upload_pj": round(energy.upload_pj, 1) if energy else 0.0,
            "controller_pj": (
                round(energy.controller_total_pj, 1) if energy else 0.0
            ),
            "wasted_at_death_pj": round(self.wasted_at_death_pj, 1),
            "stranded_alive_pj": round(self.stranded_alive_pj, 1),
            "conversion_loss_pj": round(self.conversion_loss_pj, 1),
            "total_hops": self.total_hops,
            "recomputes": self.recompute_count,
            "op_retries": self.op_retries,
            "deadlocks_reported": self.deadlocks_reported,
            "deadlocks_recovered": self.deadlocks_recovered,
            "verification_failures": self.verification_failures,
            "faults_injected": self.faults_injected,
            "links_cut": self.links_cut,
            "links_degraded": self.links_degraded,
            "links_repaired": self.links_repaired,
            "nodes_fault_killed": self.nodes_fault_killed,
            "packets_rerouted": self.packets_rerouted,
            "harvested_pj": round(self.harvested_pj, 1),
            "shared_pj": round(self.shared_pj, 1),
            "share_hops": self.share_hops,
            "harvest_events": self.harvest_events,
            **congestion,
        }
