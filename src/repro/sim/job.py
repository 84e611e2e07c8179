"""Jobs: one AES encryption walking through the fabric.

A job owns a real 16-byte state and steps through the
:class:`~repro.aes.dataflow.AesJobDataflow` operation sequence, one bound
transform per executed operation.  When the last operation completes the
ciphertext is verified against the monolithic reference cipher, run once
per job on the dataflow's key schedule — functional verification the
paper's simulator implies (it simulates the actual AES) and that this
reproduction enforces on every single job.  The reference is Fig 1's
round loop, not the dataflow's operation list, so a walk that skips or
repeats an operation fails verification.
"""

from __future__ import annotations

from ..aes.cipher import encrypt_with_schedule
from ..aes.dataflow import AesJobDataflow, Operation
from ..errors import SimulationError


class Job:
    """One in-flight encryption job.

    Attributes:
        job_id: Sequential id.
        plaintext: The 16-byte input block.
        state: Current intermediate state.
        op_index: Next operation to execute (0-based).
        holder: Node currently holding the job's last verified state.
    """

    def __init__(
        self,
        job_id: int,
        plaintext: bytes,
        dataflow: AesJobDataflow,
        origin: int,
    ):
        self.job_id = job_id
        self.plaintext = bytes(plaintext)
        self.state = bytes(plaintext)
        self.op_index = 0
        self.holder = origin
        self._dataflow = dataflow
        self._steps = dataflow.steps
        self._expected = encrypt_with_schedule(self.plaintext, dataflow.schedule)

    # ------------------------------------------------------------------
    @property
    def dataflow(self) -> AesJobDataflow:
        return self._dataflow

    @property
    def total_operations(self) -> int:
        return len(self._steps)

    @property
    def completed(self) -> bool:
        return self.op_index >= len(self._steps)

    @property
    def current_operation(self) -> Operation:
        if self.completed:
            raise self._completed_error()
        return self._dataflow.operations[self.op_index]

    @property
    def progress_fraction(self) -> float:
        """Completed operations over operations per job, in [0, 1]."""
        return self.op_index / self.total_operations

    # ------------------------------------------------------------------
    def execute_current(self, node: int) -> None:
        """Apply the current operation's transform at ``node``.

        Updates the carried state, advances the operation pointer, and
        records the node as the new holder of the job's state.
        """
        index = self.op_index
        if index >= len(self._steps):
            raise self._completed_error()
        self.state = self._steps[index](self.state)
        self.op_index = index + 1
        self.holder = node

    def _completed_error(self) -> SimulationError:
        return SimulationError(
            f"job {self.job_id} already completed all operations"
        )

    def verify(self) -> bool:
        """Check the final state against the reference ciphertext."""
        if not self.completed:
            raise SimulationError(
                f"job {self.job_id} verified before completion"
            )
        return self.state == self._expected

    def __repr__(self) -> str:
        return (
            f"Job(id={self.job_id}, op={self.op_index}/"
            f"{self.total_operations}, holder={self.holder})"
        )
