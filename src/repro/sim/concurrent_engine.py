"""The concurrent et_sim engine: buffered packets, contention, deadlock.

The paper feeds "multiple concurrent jobs ... into the target system to
see the effectiveness of the developed deadlock recovery mechanism"
(Sec 7).  This engine models what the sequential workload never
exercises:

* **Finite buffers** — each node holds at most ``node_buffer_packets``
  resident packets.
* **Link/port exclusivity** — per time slot (one packet serialisation
  interval) a link carries at most one packet and a node receives at
  most one packet.
* **Blocking flow control** — a packet whose next hop has no buffer
  space (or whose link is busy) waits in place; cyclic waits are real
  deadlocks.
* **Deadlock recovery** — a packet waiting longer than the policy
  threshold makes its node report the blocked port during the next
  upload slot; the controller excludes the port in phase 3 and
  downloads new instructions (paper Sec 5.3), after which the packet is
  redirected "along an unlocked path".

Time advances in slots of one packet-serialisation interval; frame
boundaries fire the same TDMA control protocol as the sequential engine.
"""

from __future__ import annotations

from collections import deque

from ..aes.energy import module_energy_pj
from ..core.phase3 import SINK
from .base_engine import EngineBase, SystemDead
from .job import Job
from .stats import SimulationStats

#: Consecutive fully-idle slots (with packets present) that end the run
#: as irrecoverably stalled.  Generous enough for recovery round-trips.
STALL_LIMIT_SLOTS = 4096


class _Packet:
    """A job moving through the buffered network."""

    __slots__ = (
        "job",
        "wait_slots",
        "to_sink",
        "reported_deadlock",
        "fault_blocked",
    )

    def __init__(self, job: Job):
        self.job = job
        self.wait_slots = 0
        self.to_sink = False
        self.reported_deadlock = False
        self.fault_blocked = False


class ConcurrentEngine(EngineBase):
    """Closed-loop multi-job simulation with contention and deadlock."""

    def __init__(self, config, recorder=None):
        super().__init__(config, recorder)
        capacity = config.platform.node_buffer_packets
        # Mesh nodes first, then the source: the key order is the slot
        # service order (see run).
        self.buffers: dict[int, deque[_Packet]] = {
            node: deque()
            for node in (*range(self.num_mesh_nodes), self.source)
        }
        self.capacity: dict[int, int] = {
            node: capacity for node in range(self.num_mesh_nodes)
        }
        # The external source block queues its own jobs without limit.
        self.capacity[self.source] = 10**9
        self.computing: dict[int, tuple[_Packet, int]] = {}
        self.slot_cycles = self.hop_cycles
        self.slots_per_frame = max(
            1, self.schedule.frame_cycles // self.slot_cycles
        )
        policy = config.control.deadlock
        self.wait_threshold_slots = (
            policy.wait_threshold_frames * self.slots_per_frame
        )
        self.recovery_enabled = config.workload.deadlock_recovery
        self.jobs_completed = 0
        self._slot = 0
        self._stall_slots = 0
        #: Packets resident in buffers or mid-computation, maintained
        #: incrementally (inject/complete/lose/drop) so the per-slot
        #: loop never rescans every buffer.
        self._in_flight = 0
        # Per-slot contention sets and the service order are reused
        # across slots instead of being reallocated ~once per cycle.
        self._used_links: set[tuple[int, int]] = set()
        self._used_receivers: set[int] = set()
        self._service_order = list(self.buffers)

    def _jobs_in_flight(self) -> int:
        return self._in_flight

    # ------------------------------------------------------------------
    # Death hook: resident packets die with their node
    # ------------------------------------------------------------------
    def on_node_death(self, node: int) -> None:
        super().on_node_death(node)
        dropped = len(self.buffers[node])
        self.buffers[node].clear()
        if node in self.computing:
            self.computing.pop(node)
            dropped += 1
        self.jobs_lost += dropped
        self._in_flight -= dropped

    # ------------------------------------------------------------------
    # Per-slot behaviour
    # ------------------------------------------------------------------
    def _inject_jobs(self) -> None:
        """Keep ``concurrency`` jobs in flight (closed-loop workload)."""
        target = self.config.workload.concurrency
        while self._in_flight < target:
            job = self.factory.next_job()
            self.buffers[self.source].append(_Packet(job))
            self._in_flight += 1

    def _finish_computations(self) -> bool:
        """Apply operations whose latency elapsed; True if any finished."""
        if not self.computing:
            return False
        finished = [
            node
            for node, (_, done_at) in self.computing.items()
            if done_at <= self._slot
        ]
        for node in finished:
            packet, _ = self.computing.pop(node)
            packet.job.execute_current(node)
            packet.wait_slots = 0
            self.buffers[node].appendleft(packet)
        return bool(finished)

    def _absorb_or_redirect(self, node: int, packet: _Packet) -> bool:
        """Handle a packet whose job has completed all operations.

        Returns True when the packet left the network (job done).
        """
        if self.config.platform.return_to_sink and node != self.source:
            packet.to_sink = True
            return False
        self._complete_job(packet.job)
        self.buffers[node].popleft()
        self._in_flight -= 1
        return True

    def _complete_job(self, job: Job) -> None:
        self.jobs_completed += 1
        if not job.verify():
            self.verification_failures += 1
        max_jobs = self.config.workload.max_jobs
        if max_jobs is not None and self.jobs_completed >= max_jobs:
            raise SystemDead("job-budget")

    def _note_wait(self, node: int, packet: _Packet, port: int) -> None:
        """A blocked packet waited one more slot; escalate to deadlock.

        The node re-reports on every further threshold's worth of
        waiting, so the controller's port exclusion (which expires after
        a few frames) is refreshed for as long as the blockage persists.
        """
        packet.wait_slots += 1
        if (
            self.recovery_enabled
            and node < self.num_mesh_nodes
            and packet.wait_slots >= self.wait_threshold_slots
            and packet.wait_slots % self.wait_threshold_slots == 0
        ):
            self.pending_deadlock[node] = port
            packet.reported_deadlock = True

    def _can_move(
        self,
        node: int,
        next_hop: int,
        used_links: set[tuple[int, int]],
        used_receivers: set[int],
    ) -> bool:
        """Contention rules for one hop this slot."""
        return (
            next_hop in self._alive_set
            and self._link_alive(node, next_hop)
            and len(self.buffers[next_hop]) < self.capacity[next_hop]
            and (node, next_hop) not in used_links
            and next_hop not in used_receivers
        )

    def _escape_hops(self, node: int, column: int) -> list[int]:
        """Alternative next hops for deadlock escape.

        The paper's recovery redirects a blocked job "along an unlocked
        path"; after the wait threshold a packet may take any live
        neighbour that still has a finite (weighted) distance in the
        plan's ``column`` (its module, or the sink), nearest-first.
        """
        plan = self.control.plan
        candidates = []
        for neighbor in self.topology.neighbors(node):
            if neighbor not in self._alive_set:
                continue
            distance = plan.distances[neighbor, column]
            if distance != float("inf"):
                candidates.append((float(distance), neighbor))
        return [n for _, n in sorted(candidates)]

    def _try_move(
        self,
        node: int,
        packet: _Packet,
        next_hop: int,
        column: int,
        used_links: set[tuple[int, int]],
        used_receivers: set[int],
    ) -> bool:
        """Attempt one hop under contention rules; True when it moved.

        ``next_hop`` is the routing table's choice; once the packet has
        waited past the deadlock threshold (and recovery is enabled),
        alternative neighbours toward the plan's ``column`` are tried
        too.
        """
        chosen = None
        if self._can_move(node, next_hop, used_links, used_receivers):
            chosen = next_hop
        elif (
            self.recovery_enabled
            and packet.wait_slots >= self.wait_threshold_slots
        ):
            for alternative in self._escape_hops(node, column):
                if alternative != next_hop and self._can_move(
                    node, alternative, used_links, used_receivers
                ):
                    chosen = alternative
                    break
        if chosen is None:
            if not self._link_alive(node, next_hop):
                self._note_fault_block(node, next_hop)
                packet.fault_blocked = True
            elif next_hop not in self._alive_set and self._killed[next_hop]:
                # The live-set test comes first: a to-sink packet's next
                # hop may be the source, which has no kill-record entry.
                packet.fault_blocked = True
            self._note_wait(node, packet, next_hop)
            return False
        # Take the packet in hand before transmitting: a sender death
        # during the transmit clears the node's buffer, and this packet
        # must not be double-counted by that cleanup.
        self.buffers[node].popleft()
        survived = self._transmit(node, chosen, packet.job.holder)
        used_links.add((node, chosen))
        used_receivers.add(chosen)
        if survived:
            self.buffers[chosen].append(packet)
            if packet.reported_deadlock:
                self.deadlocks_recovered += 1
                if self._trace:
                    self.recorder.event(
                        "deadlock-recovered",
                        frame=self.frames_done,
                        node=node,
                        via=chosen,
                    )
                packet.reported_deadlock = False
            if packet.fault_blocked:
                self.packets_rerouted += 1
                packet.fault_blocked = False
            packet.wait_slots = 0
        else:
            # Sender died mid-transmit: the packet is lost with it.
            self.jobs_lost += 1
            self._in_flight -= 1
        return True

    def _step_node(
        self,
        node: int,
        used_links: set[tuple[int, int]],
        used_receivers: set[int],
    ) -> bool:
        """Advance the head packet of ``node`` one decision.

        Returns True when any progress happened (move, compute start,
        absorption).
        """
        if node in self.computing or not self.buffers[node]:
            return False
        if node not in self._alive_set:
            return False
        packet = self.buffers[node][0]
        plan = self.control.plan

        if packet.job.completed and not packet.to_sink:
            return self._absorb_or_redirect(node, packet)

        if packet.to_sink:
            if node == self.source:
                self._complete_job(packet.job)
                self.buffers[node].popleft()
                self._in_flight -= 1
                return True
            successor = plan.hop(node, SINK)
            if successor < 0:
                if not self._source_reachable_from(node):
                    raise SystemDead("source-cut")
                self._note_wait(node, packet, node)
                return False
            return self._try_move(
                node, packet, successor, SINK,
                used_links, used_receivers,
            )

        module = packet.job.current_operation.module
        if not plan.has_destination(node, module):
            self._check_reachability(node, "module-unreachable")
            self._note_wait(node, packet, node)
            return False
        destination = plan.destination(node, module)
        if destination == node:
            cycles = self._compute_cycles(module)
            delivered, died = self._draw(
                node, module_energy_pj(module), cycles
            )
            self.ledger.add_compute(node, delivered)
            if died:
                self.on_node_death(node)
                return True
            self.buffers[node].popleft()
            done_at = self._slot + max(
                1, -(-cycles // self.slot_cycles)
            )
            self.computing[node] = (packet, done_at)
            return True
        next_hop = plan.next_hop(node, module)
        return self._try_move(
            node, packet, next_hop, module,
            used_links, used_receivers,
        )

    # ------------------------------------------------------------------
    def run(self) -> SimulationStats:
        """Run the closed-loop workload to system death and summarise."""
        self.control.bootstrap()
        death = "unknown"
        order = self._service_order
        count = len(order)
        used_links = self._used_links
        used_receivers = self._used_receivers
        try:
            while True:
                self._inject_jobs()
                progressed = self._finish_computations()
                used_links.clear()
                used_receivers.clear()
                # Rotate the service order across slots for fairness
                # (modular indexing; no per-slot list rebuilds).
                offset = self._slot % count
                for position in range(count):
                    node = order[(position + offset) % count]
                    if self._step_node(node, used_links, used_receivers):
                        progressed = True
                if progressed or self.computing:
                    self._stall_slots = 0
                elif self._in_flight:
                    self._stall_slots += 1
                    if self._stall_slots > STALL_LIMIT_SLOTS:
                        raise SystemDead("stalled")
                self._slot += 1
                self._advance_time(self.slot_cycles)
        except SystemDead as signal:
            death = signal.cause
        partial = sum(
            packet.job.progress_fraction
            for queue in self.buffers.values()
            for packet in queue
        )
        partial += sum(
            packet.job.progress_fraction
            for packet, _ in self.computing.values()
        )
        return self._finalize(self.jobs_completed, partial, death)
