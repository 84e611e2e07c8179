"""The sequential et_sim engine (paper Sec 7.1-7.3 workload).

"In this first set of experiments, a new job is launched when the
previous one is completed.  In other words, there is exactly one job in
the target system and therefore no buffering at nodes is needed."

With a single job in flight there is no link contention and no deadlock,
so the engine executes the job as an exact sequence of timed, energy-
accounted actions:

* a *computation* draws ``E_i`` from the executing node over that
  module's latency;
* a *communication* moves the packet hop by hop along the current
  routing tables, each hop drawing the line's packet energy from the
  **sending** node over the serialisation delay (the paper's ``C_j``);
* TDMA control frames fire at fixed cycle boundaries: every live node
  uploads its status heartbeat (paying the medium's transmit energy),
  the control plane ingests changed reports, recomputes routes when the
  picture changed, and downloads changed table entries.

Failures follow the protocol described in DESIGN.md: any node death
during an operation's dispatch wastes the energy spent and re-dispatches
the operation from the job's last stable holder; if the holder itself is
dead the job is lost.  The system dies when a needed module becomes
unreachable from the job's position (the paper's "critical nodes" dying),
when every controller is dead, or when the frame safety budget expires.
"""

from __future__ import annotations

from ..aes.energy import module_energy_pj
from ..core.phase3 import NO_DESTINATION, SINK
from ..errors import SimulationError
from .base_engine import (
    HOP_GUARD_FACTOR,
    MAX_WAIT_FRAMES,
    EngineBase,
    SystemDead,
)
from .job import Job
from .stats import SimulationStats


class SequentialEngine(EngineBase):
    """Single-job-at-a-time simulation of one configured platform."""

    #: True while a job is being driven (telemetry probe; the workload
    #: keeps exactly one job in flight, so this is the whole count).
    _job_running = False

    def _jobs_in_flight(self) -> int:
        return 1 if self._job_running else 0

    # ------------------------------------------------------------------
    # Movement and execution
    # ------------------------------------------------------------------
    def _route_to_module(self, job: Job, module: int) -> int | None:
        """Walk the packet from the holder to a live duplicate of
        ``module`` following the per-node routing tables.

        Returns the arrival node, or None when the dispatch failed and
        must be retried from the holder.  Raises :class:`SystemDead`
        when no duplicate is reachable at all.
        """
        current = job.holder
        waited = 0
        hops = 0
        fault_blocked = False
        hop_guard = HOP_GUARD_FACTOR * self.topology.num_nodes
        alive = self._alive_set
        while True:
            plan = self.control.plan
            if plan is None:
                raise SimulationError("routing plan missing after bootstrap")
            if current not in alive:
                return None  # mid-route relay death; retry upstream
            if not plan.has_destination(current, module):
                # Stale or genuinely dead: wait for the control plane to
                # learn the latest deaths, then re-check connectivity.
                self._check_reachability(current, "module-unreachable")
                waited += 1
                if waited > MAX_WAIT_FRAMES:
                    return None
                self._wait_one_frame()
                continue
            destination = plan.destination(current, module)
            if destination == current:
                if fault_blocked:
                    self.packets_rerouted += 1
                return current
            next_hop = plan.next_hop(current, module)
            if next_hop not in alive or not self._link_alive(
                current, next_hop
            ):
                # The table still points at a node or line that just
                # failed; wait for the next frame's recomputation.
                if not self._link_alive(current, next_hop):
                    self._note_fault_block(current, next_hop)
                    fault_blocked = True
                elif self._killed[next_hop]:
                    fault_blocked = True
                waited += 1
                if waited > MAX_WAIT_FRAMES:
                    return None
                self._wait_one_frame()
                continue
            survived = self._transmit(current, next_hop, job.holder)
            self._advance_time(self.hop_cycles)
            if not survived:
                return None
            current = next_hop
            hops += 1
            if hops > hop_guard:
                return None  # routing churn; retry from the holder

    def _route_to_sink(self, job: Job) -> bool:
        """Deliver the finished ciphertext back to the source block."""
        current = job.holder
        waited = 0
        hops = 0
        fault_blocked = False
        hop_guard = HOP_GUARD_FACTOR * self.topology.num_nodes
        alive = self._alive_set
        while current != self.source:
            plan = self.control.plan
            successor = plan.hop(current, SINK)
            if (
                successor == NO_DESTINATION
                or successor not in alive
                or not self._link_alive(current, successor)
            ):
                if not self._source_reachable_from(current):
                    raise SystemDead("source-cut")
                if successor != NO_DESTINATION:
                    if not self._link_alive(current, successor):
                        self._note_fault_block(current, successor)
                        fault_blocked = True
                    elif self._killed[successor]:
                        fault_blocked = True
                waited += 1
                if waited > MAX_WAIT_FRAMES:
                    return False
                self._wait_one_frame()
                continue
            survived = self._transmit(current, successor, job.holder)
            self._advance_time(self.hop_cycles)
            if not survived:
                return False
            current = successor
            hops += 1
            if hops > hop_guard:
                return False
        if fault_blocked:
            self.packets_rerouted += 1
        return True

    def _compute(self, job: Job, node: int, module: int) -> bool:
        """Execute the job's current operation at ``node``."""
        cycles = self._compute_cycles(module)
        result = self._draw(node, module_energy_pj(module), cycles)
        self.ledger.add_compute(node, result.delivered_pj)
        if result.died:
            self.on_node_death(node)
        self._advance_time(cycles)
        if result.died:
            # Even a fully-powered transform is useless if the node died
            # before it could forward the result: the energy is wasted
            # and the operation re-dispatches from the holder.
            return False
        job.execute_current(node)
        return True

    # ------------------------------------------------------------------
    # Job and run loops
    # ------------------------------------------------------------------
    def _run_job(self, job: Job) -> str:
        """Drive one job to completion.

        Returns ``"completed"`` or ``"lost"``; raises :class:`SystemDead`
        on system death.
        """
        alive = self._alive_set
        while not job.completed:
            module = job.current_operation.module
            if job.holder not in alive:
                return "lost"
            arrival = self._route_to_module(job, module)
            if arrival is None:
                self.op_retries += 1
                if job.holder not in alive:
                    return "lost"
                continue
            if not self._compute(job, arrival, module):
                self.op_retries += 1
                continue
        if self.config.platform.return_to_sink:
            delivered = False
            while not delivered:
                if job.holder not in alive:
                    return "lost"
                delivered = self._route_to_sink(job)
                if not delivered:
                    self.op_retries += 1
        return "completed"

    def run(self) -> SimulationStats:
        """Run to system death (or configured budget) and summarise."""
        self.control.bootstrap()
        jobs_completed = 0
        partial = 0.0
        death = "unknown"
        max_jobs = self.config.workload.max_jobs
        job: Job | None = None
        try:
            while True:
                if max_jobs is not None and jobs_completed >= max_jobs:
                    raise SystemDead("job-budget")
                job = self.factory.next_job()
                self._job_running = True
                try:
                    outcome = self._run_job(job)
                finally:
                    self._job_running = False
                if outcome == "completed":
                    jobs_completed += 1
                    if not job.verify():
                        self.verification_failures += 1
                    job = None
                else:
                    self.jobs_lost += 1
                    job = None
        except SystemDead as signal:
            death = signal.cause
            if job is not None and not job.completed:
                partial = job.progress_fraction
        return self._finalize(jobs_completed, partial, death)
