"""Recorder protocol: the zero-overhead telemetry hook surface.

Every layer that emits telemetry — the engines, the control plane, the
sweep runner — talks to one tiny interface with three hooks:

* :meth:`Recorder.frame` — a per-frame probe (alive count, state-of-
  charge quantiles, pending jobs, quantised link load/wear levels);
* :meth:`Recorder.event` — a discrete event (re-plan with cause and
  per-cost-term attribution, fault, harvest rejection, deadlock
  report/recovery, node death, run end);
* :meth:`Recorder.timing` — a wall-clock duration around a hot path
  (shortest-path rebuild, whole plan computation, frame step, vector
  bank draw, sweep-point execution).

The default :data:`NULL_RECORDER` keeps every hook a no-op *and* is
gated out of the hot paths: callers cache ``recorder.active`` /
``recorder.times`` as booleans at construction time, and every probe,
event, attribution row and clock read sits behind them, so a
recorder-free run builds no trace record and reads no clock —
bit-identical results, benchmark-noise overhead (asserted by the
property suite and the CI overhead guard).

:class:`TraceRecorder` is the shipping implementation: it accumulates
events in memory and exports them as JSONL lines.  Determinism is a
schema property, not an accident — wall-clock timings live in a single
trailing ``kind == "timers"`` line (the non-deterministic channel), so
:meth:`TraceRecorder.deterministic_lines` is a pure function of the
simulation configuration and golden-testable.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

#: Version stamp of the JSONL trace schema.
TRACE_SCHEMA = 1

#: The line kind carrying wall-clock timer aggregates — the only
#: non-deterministic line kind; strip it to compare traces across runs.
TIMERS_KIND = "timers"


@runtime_checkable
class Recorder(Protocol):
    """Telemetry sink threaded through engines, control plane, runners.

    ``active`` gates probes/events and ``times`` gates timers; callers
    cache both as local booleans so a disabled recorder costs nothing
    on the hot paths.
    """

    #: Whether :meth:`frame` / :meth:`event` capture anything.
    active: bool
    #: Whether :meth:`timing` captures anything.
    times: bool

    def frame(self, frame: int, **fields: Any) -> None:
        """One per-frame probe (only called when ``active``)."""
        ...

    def event(self, event: str, frame: int, **fields: Any) -> None:
        """One discrete event (only called when ``active``)."""
        ...

    def timing(self, name: str, seconds: float) -> None:
        """One hot-path duration (only called when ``times``)."""
        ...


class NullRecorder:
    """The default recorder: every hook is an inlined no-op.

    Stateless and shared (:data:`NULL_RECORDER`): constructing engines
    without an explicit recorder attaches this singleton, and the
    cached ``active`` / ``times`` flags keep every telemetry branch
    off the instruction stream of a recorder-free run.
    """

    __slots__ = ()

    active = False
    times = False

    def frame(self, frame: int, **fields: Any) -> None:
        pass

    def event(self, event: str, frame: int, **fields: Any) -> None:
        pass

    def timing(self, name: str, seconds: float) -> None:
        pass

    def __repr__(self) -> str:
        return "NullRecorder()"


#: Shared do-nothing recorder attached wherever none is supplied.
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """In-memory structured trace of one simulation run.

    Captures the deterministic channel (a probe every frame,
    level-crossing snapshots, discrete events) as plain dicts in arrival
    order, and aggregates the non-deterministic channel (wall-clock
    timers) into per-name count/total/min/max statistics emitted as one
    trailing line; :meth:`deterministic_lines` (or
    :func:`strip_timings`) drops it.
    """

    active = True
    times = True

    def __init__(self) -> None:
        self.events: list[dict] = []
        #: name -> [count, total_s, min_s, max_s]
        self._timers: dict[str, list[float]] = {}
        #: metric -> last snapshotted levels (dedup of per-frame pushes).
        self._last_levels: dict[str, dict] = {}

    # -- hooks ----------------------------------------------------------
    def frame(self, frame: int, **fields: Any) -> None:
        """Record a frame probe; level dicts are deduplicated."""
        for metric in ("load_levels", "wear_levels"):
            levels = fields.pop(metric, None)
            if levels is None:
                continue
            if levels != self._last_levels.get(metric):
                self._last_levels[metric] = dict(levels)
                self.events.append(
                    {
                        "kind": "levels",
                        "metric": metric.removesuffix("_levels"),
                        "frame": frame,
                        "levels": _level_keys(levels),
                    }
                )
        self.events.append({"kind": "frame", "frame": frame, **fields})

    def event(self, event: str, frame: int, **fields: Any) -> None:
        self.events.append(
            {"kind": "event", "event": event, "frame": frame, **fields}
        )

    def timing(self, name: str, seconds: float) -> None:
        stats = self._timers.get(name)
        if stats is None:
            self._timers[name] = [1, seconds, seconds, seconds]
        else:
            stats[0] += 1
            stats[1] += seconds
            stats[2] = min(stats[2], seconds)
            stats[3] = max(stats[3], seconds)

    # -- export ---------------------------------------------------------
    def timer_stats(self) -> dict[str, dict]:
        """Aggregated wall-clock statistics per timer name."""
        return {
            name: {
                "count": int(count),
                "total_s": round(total, 9),
                "min_s": round(lo, 9),
                "max_s": round(hi, 9),
            }
            for name, (count, total, lo, hi) in sorted(
                self._timers.items()
            )
        }

    def lines(self, meta: Mapping[str, Any] | None = None) -> list[dict]:
        """The full trace as JSONL-ready dicts.

        An optional ``meta`` header line leads; the timer aggregate
        trails as the single ``kind == "timers"`` line when any timer
        fired (the non-deterministic channel).
        """
        lines: list[dict] = []
        if meta is not None:
            header = {"kind": "meta", "schema": TRACE_SCHEMA}
            header.update(meta)
            lines.append(header)
        lines.extend(self.events)
        if self._timers:
            lines.append(
                {"kind": TIMERS_KIND, "timers": self.timer_stats()}
            )
        return lines

    def deterministic_lines(
        self, meta: Mapping[str, Any] | None = None
    ) -> list[dict]:
        """The trace with the wall-clock channel stripped."""
        return strip_timings(self.lines(meta))

    def __repr__(self) -> str:
        return (
            f"TraceRecorder({len(self.events)} events, "
            f"{len(self._timers)} timers)"
        )


def strip_timings(lines: Iterable[Mapping[str, Any]]) -> list[dict]:
    """Drop every non-deterministic line from a trace.

    Removes the ``kind == "timers"`` aggregate and any per-line
    ``elapsed_s`` annotation a harness attached, leaving a pure
    function of the simulation configuration.
    """
    stripped = []
    for line in lines:
        if line.get("kind") == TIMERS_KIND:
            continue
        if "elapsed_s" in line:
            line = {k: v for k, v in line.items() if k != "elapsed_s"}
        stripped.append(dict(line))
    return stripped


def _level_keys(levels: Mapping[tuple[int, int], int]) -> dict[str, int]:
    """JSON-safe ``"u-v" -> level`` form of a link-level snapshot."""
    return {
        f"{u}-{v}": int(level)
        for (u, v), level in sorted(levels.items())
    }
