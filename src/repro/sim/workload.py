"""Workload generation: the stream of encryption jobs.

The paper's sensor/actuator block (Fig 3a) produces data to encrypt; the
job factory draws deterministic pseudo-random plaintexts from a seeded
generator, so every simulation is reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..aes.dataflow import AesJobDataflow
from .job import Job


class JobFactory:
    """Creates jobs with seeded random plaintexts under a fixed key."""

    def __init__(self, key: bytes, seed: int, origin: int):
        self._dataflow = AesJobDataflow(key)
        self._rng = np.random.default_rng(seed)
        self._origin = origin
        self._created = 0

    @property
    def dataflow(self) -> AesJobDataflow:
        return self._dataflow

    @property
    def created(self) -> int:
        """Number of jobs created so far."""
        return self._created

    def next_job(self) -> Job:
        """Create the next job with a fresh random plaintext."""
        plaintext = (
            self._rng.integers(0, 256, size=16).astype(np.uint8).tobytes()
        )
        job = Job(
            job_id=self._created,
            plaintext=plaintext,
            dataflow=self._dataflow,
            origin=self._origin,
        )
        self._created += 1
        return job
