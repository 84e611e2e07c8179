"""Machine-speed calibration: host times scaled to a reference speed.

On a shared machine the same work runs 10–60 % slower for stretches of
milliseconds to seconds, as other tenants load the core.  While the
program runs, a timer interrupts it every ``INTERVAL_S`` and times a
short fixed loop of the benchmark's own, a *slice*.  A stretch of host
time is then scaled by ``REFERENCE_S / mean slice seconds`` over that
stretch, with the slices' own time taken out.  The slices sample the
machine's speed evenly through the program's work, and they are not the
program's code: a change to the program moves scaled times as it moves
raw ones, while a slow stretch slows the slices taken inside it too and
largely cancels.
"""

from __future__ import annotations

import signal
import time

#: Slice seconds at the reference machine speed: scaled times read as
#: host times on a machine that runs one slice in exactly this long.
REFERENCE_S = 150e-6
#: Additions in one slice's integer loop.
LOOP = 2000
#: Seconds between slices.
INTERVAL_S = 0.01


class SpeedSampler:
    """Slices on a wall-clock timer while the sampler is entered."""

    def __init__(self) -> None:
        #: Seconds spent in slices so far; subtract from host times.
        self.spent = 0.0
        self._samples: list[float] = []
        self._previous = None

    def _slice(self, signum, frame) -> None:
        started = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i * i % 7
        elapsed = time.perf_counter() - started
        self._samples.append(elapsed)
        self.spent += elapsed

    def clock(self) -> float:
        """Host seconds with the slices' own time taken out."""
        return time.perf_counter() - self.spent

    def take_scale(self) -> float:
        """``REFERENCE_S`` over the mean slice since the last call, and
        start a new stretch."""
        samples, self._samples = self._samples, []
        if not samples:
            raise RuntimeError("no speed sample fell in the stretch")
        return REFERENCE_S * len(samples) / sum(samples)

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        # Restart system calls a slice interrupts rather than fail them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
