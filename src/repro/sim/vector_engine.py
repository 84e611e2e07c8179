"""The vectorised et_sim engine (frame-batched draws).

Same workload semantics as the sequential engine — one exact job in
flight, hop-by-hop movement along the routing tables, TDMA control
frames — and the same battery bank, kill record and level arrays, but
every energy draw inside a frame is *deferred*: hop and compute
requests accumulate into per-frame buckets and merge with the
status-upload energy into a *single* vectorised draw at the frame
boundary, immediately before the frame's fault/harvest/heartbeat
processing.  Harvest income lands as one masked vector recharge, the
heartbeat is the shared level compare, and every flush and recharge
adds straight into the ledger's per-node columns; the run's totals are
the column sums at the end of the run.

The observable protocol is unchanged: the controller sees the same kind
of status reports (quantised level transitions and deaths), fault
events apply identically (the schedule is a pure function of the
configuration), and the conservation identity closes exactly — the
base engine re-asserts it against the bank arrays, in total and per
node, at finalisation.  What differs from the sequential engine is the
merged draw alone.  Deaths caused by data/compute draws surface at the
frame boundary rather than mid-walk, a cell absorbs its whole frame
load (data, compute and upload together) as one aggregate draw with
numpy's ``exp`` and ``**``, and the upload share lands before the
boundary's fault/harvest events instead of after, so EMA trajectories
(and therefore exact death frames) can drift between the engines.  The cross-engine property suite pins the
quantities that must not drift: delivered jobs under a budget,
conservation, and fault/harvest event counts.
"""

from __future__ import annotations

import time

import numpy as np

from ..aes.energy import module_energy_pj
from ..control.controller import StatusReport
from ..errors import SimulationError
from .sequential_engine import SequentialEngine
from .stats import SimulationStats


class VectorEngine(SequentialEngine):
    """Sequential-workload engine with frame-batched vector draws."""

    def __init__(self, config, recorder=None):
        super().__init__(config, recorder)
        # Current frame's draw buckets.
        self._hop_senders: list[int] = []
        self._hop_energies: list[float] = []
        self._hop_relayers: list[int] = []
        self._compute_nodes: list[int] = []
        self._compute_energies: list[float] = []
        self._compute_cycles_acc: list[int] = []

        # Per-frame constants, hoisted off the flush hot path.
        self._upload_energy = float(self.schedule.upload_energy_pj)
        self._upload_cycles = float(self.schedule.upload_slot_cycles)
        # Upload request/duration vectors only change when the living
        # set does; every death path funnels through on_node_death,
        # which drops the cache.
        self._upload_vectors: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Deferred draws
    # ------------------------------------------------------------------
    def _transmit(self, sender: int, receiver: int, holder: int) -> bool:
        """Queue one hop's energy; the draw lands at the frame boundary.

        Always reports survival: a sender whose cell the queued load
        exhausts dies when the bucket flushes, which the walk observes
        through its per-iteration liveness checks.
        """
        if (sender, receiver) in self.faults.cut_links:
            raise SimulationError(
                f"packet transmitted over cut link {sender} -> {receiver}"
            )
        length = float(self.lengths[sender, receiver])
        energy = self._hop_energy_by_length.get(length)
        if energy is None:
            energy = self.link_model.hop_energy_pj(length)
            self._hop_energy_by_length[length] = energy
        if self._traversal_sinks:
            for note in self._traversal_sinks:
                note(sender, receiver)
        if sender == self.source:
            # The source block has an infinite supply.
            self.ledger.add_source_tx(energy)
        else:
            self._hop_senders.append(sender)
            self._hop_energies.append(energy)
            if sender != holder:
                self._hop_relayers.append(sender)
        self.total_hops += 1
        return True

    def _compute(self, job, node: int, module: int) -> bool:
        """Queue the operation's energy and execute the transform.

        The energy draw lands with the frame flush; if advancing the
        module latency crossed a frame boundary and the flush (or a
        fault) killed the node, the result is wasted and the operation
        retries from the holder — the sequential engine's rule.
        """
        cycles = self._compute_cycles(module)
        self._compute_nodes.append(node)
        self._compute_energies.append(module_energy_pj(module))
        self._compute_cycles_acc.append(cycles)
        self._advance_time(cycles)
        if node not in self._alive_set:
            return False
        job.execute_current(node)
        return True

    def _flush_buckets(self, upload: bool = False) -> None:
        """Apply the frame's whole load as one vectorised draw.

        Hop and compute buckets — plus, at a frame boundary, every
        living node's status-upload energy — merge into a single
        per-node ``(request, duration)`` pair, so a cell absorbs its
        frame as one aggregate draw.  Delivered energy is split back
        into the ledger's data/compute/upload columns in proportion to
        what each category requested; for every surviving cell the
        factor is exactly 1, so attribution only approximates on the
        (rare) draw that exhausts a cell mid-frame.
        """
        mesh = self.num_mesh_nodes
        bank = self.bank
        nodes = self.ledger.nodes
        if upload:
            if self._upload_vectors is None:
                living = bank.alive & ~self._killed
                self._upload_vectors = (
                    np.where(living, self._upload_energy, 0.0),
                    np.where(living, self._upload_cycles, 0.0),
                )
            upload_req, upload_dur = self._upload_vectors
            requests = upload_req.copy()
            durations = upload_dur.copy()
        else:
            if not self._hop_senders and not self._compute_nodes:
                return
            upload_req = None
            requests = np.zeros(mesh, dtype=float)
            durations = np.zeros(mesh, dtype=float)
        data_req = None
        if self._hop_senders:
            senders = np.asarray(self._hop_senders, dtype=np.int64)
            energies = np.asarray(self._hop_energies, dtype=float)
            data_req = np.zeros(mesh, dtype=float)
            np.add.at(data_req, senders, energies)
            counts = np.zeros(mesh, dtype=np.int64)
            np.add.at(counts, senders, 1)
            nodes.packets_sent += counts
            if self._hop_relayers:
                relayers = np.asarray(self._hop_relayers, dtype=np.int64)
                np.add.at(nodes.packets_relayed, relayers, 1)
            requests += data_req
            durations += counts * float(self.hop_cycles)
            self._hop_senders.clear()
            self._hop_energies.clear()
            self._hop_relayers.clear()
        compute_req = None
        if self._compute_nodes:
            computing = np.asarray(self._compute_nodes, dtype=np.int64)
            np.add.at(nodes.operations, computing, 1)
            compute_req = np.zeros(mesh, dtype=float)
            np.add.at(
                compute_req,
                computing,
                np.asarray(self._compute_energies, dtype=float),
            )
            compute_dur = np.zeros(mesh, dtype=float)
            np.add.at(
                compute_dur,
                computing,
                np.asarray(self._compute_cycles_acc, dtype=float),
            )
            requests += compute_req
            durations += compute_dur
            self._compute_nodes.clear()
            self._compute_energies.clear()
            self._compute_cycles_acc.clear()
        if self._timed:
            draw_started = time.perf_counter()
            delivered, died = bank.draw(requests, durations)
            self.recorder.timing(
                "bank-draw", time.perf_counter() - draw_started
            )
        else:
            delivered, died = bank.draw(requests, durations)
        if died.any():
            # A draw only under-delivers on the cell it exhausts, so
            # the proportional split is exact everywhere else.
            factor = delivered / np.where(requests > 0.0, requests, 1.0)
            if upload_req is not None:
                nodes.upload_pj += upload_req * factor
            if data_req is not None:
                nodes.data_tx_pj += data_req * factor
            if compute_req is not None:
                nodes.compute_pj += compute_req * factor
            for idx in np.flatnonzero(died):
                self.on_node_death(int(idx))
        else:
            if upload_req is not None:
                nodes.upload_pj += upload_req
            if data_req is not None:
                nodes.data_tx_pj += data_req
            if compute_req is not None:
                nodes.compute_pj += compute_req

    def on_node_death(self, node: int) -> None:
        self._upload_vectors = None
        super().on_node_death(node)

    # ------------------------------------------------------------------
    # Frame processing overrides
    # ------------------------------------------------------------------
    def _run_frame(self, frame: int) -> None:
        # The frame's accumulated load (including the boundary's status
        # uploads) must hit the cells before the heartbeat observes
        # them, so levels and deaths reported this frame reflect the
        # work done during it.
        self._flush_buckets(upload=True)
        super()._run_frame(frame)

    def _heartbeat_phase(self) -> tuple[list[StatusReport], int]:
        # The upload energy was already part of the frame's merged
        # draw: only the level compare and the rest remain.
        living = self.bank.alive & ~self._killed
        reports = self._status_reports(living, [])
        self.bank.rest(self.schedule.frame_cycles, living)
        return reports, int(np.count_nonzero(living))

    def _apply_harvest(self, frame: int) -> None:
        # The base engine's array pass, except that the run's harvest
        # total is the column sum at finalisation and the trace sums
        # with numpy.
        income = self.harvest_schedule.income(frame)
        accepted_income = self._zero_income
        if income is not None:
            offers = np.asarray(income, dtype=float)
            accepted = self.bank.recharge(offers, ~self._killed)
            events = int(np.count_nonzero(accepted > 0.0))
            if events:
                self.ledger.nodes.harvested_pj += accepted
                self.ledger.harvest_events += events
            if self._trace:
                offered_pj = float(offers.sum())
                accepted_pj = float(accepted.sum())
                if offered_pj - accepted_pj > 1e-9:
                    self._record_harvest_rejection(
                        frame,
                        offered_pj,
                        accepted_pj,
                        int(np.count_nonzero(accepted < offers)),
                    )
            if self._income is not None:
                accepted_income = accepted.tolist()
        if self.config.harvest.shares_power:
            self._apply_power_sharing()
        if self._income is not None:
            self._income.observe_frame(accepted_income)

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def _finalize(
        self, jobs_completed: int, partial: float, death: str
    ) -> SimulationStats:
        self._flush_buckets()
        # The flushes and recharges booked only the per-node columns:
        # each run total is its column's sum, assigned rather than
        # added, so finalising twice books the same totals.
        ledger = self.ledger
        nodes = ledger.nodes
        ledger.data_tx_pj = float(nodes.data_tx_pj.sum())
        ledger.compute_pj = float(nodes.compute_pj.sum())
        ledger.upload_pj = float(nodes.upload_pj.sum())
        ledger.harvested_pj = float(nodes.harvested_pj.sum())
        return super()._finalize(jobs_completed, partial, death)
