"""Deterministic fault schedules and their runtime state.

A *fault schedule* is the precomputed list of physical-failure events
one run experiences before a frame horizon: permanent link cuts, node
failures independent of battery state, and transient link
degradations.  It is a pure function of the
:class:`~repro.faults.config.FaultConfig`, the fabric topology and the
horizon — the same inputs always produce the same events, which is what
makes fault-bearing runs replayable and cacheable.  The events below a
horizon never depend on it, so a longer schedule begins with a shorter
one.

The engines own a :class:`FaultRuntime` that walks the schedule frame by
frame, extending it as the run reaches its horizon, and tracks the
active degradations.  The mutation of the platform — deleting a cut
line's working lengths, scaling a degraded one's, killing nodes —
happens in ``EngineBase._apply_faults`` so that every engine shares one
implementation; the topology itself is never edited.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..mesh.topology import Topology
from .config import FAULT_KINDS, FaultConfig


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled physical failure.

    Attributes:
        frame: TDMA frame at whose start the event fires.
        kind: One of :data:`~repro.faults.config.FAULT_KINDS`.
        node_a: Affected node (node events) or link endpoint.
        node_b: Second link endpoint (-1 for node events).
        factor: Hop-energy multiplier (``link-degrade`` only).
        duration_frames: Degradation lifetime (``link-degrade`` only;
            0 for permanent events).
    """

    frame: int
    kind: str
    node_a: int
    node_b: int = -1
    factor: float = 1.0
    duration_frames: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


class FaultSchedule:
    """Immutable, frame-ordered sequence of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = ()):
        # Stable sort: events generated for the same frame keep their
        # generation order, so application order is deterministic.
        self._events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda event: event.frame)
        )

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self._events)} events)"


def fabric_links(
    topology: Topology, num_mesh_nodes: int
) -> list[tuple[int, int]]:
    """Sorted internal (mesh-to-mesh) undirected links of the fabric.

    External attachments (the source/sink block's line, controller
    taps) are excluded: the fault model targets the woven interconnect,
    and cutting the single source line would only ever produce the
    trivial ``source-cut`` death.
    """
    pairs = {
        (min(u, v), max(u, v))
        for u, v, _ in topology.edges()
        if u < num_mesh_nodes and v < num_mesh_nodes
    }
    return sorted(pairs)


def _event_frame(config: FaultConfig, index: int) -> int:
    """Frame of the ``index``-th event of a steady cadence."""
    return config.start_frame + int(
        math.ceil((index + 1) * config.period_frames / config.intensity)
    )


def _link_attrition(
    config: FaultConfig,
    links: Sequence[tuple[int, int]],
    rng: random.Random,
    horizon: int,
) -> list[FaultEvent]:
    budget = int(len(links) * config.max_link_fraction)
    if budget == 0 and config.max_link_fraction > 0 and links:
        budget = 1
    chosen = rng.sample(list(links), min(budget, len(links)))
    events = []
    for index, (u, v) in enumerate(chosen):
        frame = _event_frame(config, index)
        if frame >= horizon:
            break
        events.append(FaultEvent(frame=frame, kind="link-cut", node_a=u, node_b=v))
    return events


def _node_dropout(
    config: FaultConfig,
    num_mesh_nodes: int,
    rng: random.Random,
    horizon: int,
) -> list[FaultEvent]:
    budget = int(num_mesh_nodes * config.max_node_fraction)
    if budget == 0 and config.max_node_fraction > 0:
        budget = 1
    budget = min(budget, num_mesh_nodes - 1)
    chosen = rng.sample(range(num_mesh_nodes), budget)
    events = []
    for index, node in enumerate(chosen):
        frame = _event_frame(config, index)
        if frame >= horizon:
            break
        events.append(FaultEvent(frame=frame, kind="node-kill", node_a=node))
    return events


def _wash_cycle(
    config: FaultConfig,
    links: Sequence[tuple[int, int]],
    rng: random.Random,
    horizon: int,
) -> list[FaultEvent]:
    if not links:
        return []
    spacing = max(1, int(round(config.period_frames * 4 / config.intensity)))
    cut_budget = int(len(links) * config.max_link_fraction)
    burst_size = max(1, len(links) // 8)
    events: list[FaultEvent] = []
    cuts = 0
    uncut = list(links)
    frame = config.start_frame + spacing
    while frame < horizon:
        for u, v in rng.sample(list(links), min(burst_size, len(links))):
            events.append(
                FaultEvent(
                    frame=frame,
                    kind="link-degrade",
                    node_a=u,
                    node_b=v,
                    factor=config.degrade_factor,
                    duration_frames=config.degrade_frames,
                )
            )
        if uncut and cuts < cut_budget and rng.random() < 0.5:
            # Sample from the links not yet chosen for a cut: a duplicate
            # pick would be silently skipped at application time, burning
            # the budget without severing anything.
            u, v = uncut.pop(rng.randrange(len(uncut)))
            events.append(
                FaultEvent(frame=frame, kind="link-cut", node_a=u, node_b=v)
            )
            cuts += 1
        frame += spacing
    return events


def _link_midpoints(
    topology: Topology, links: Sequence[tuple[int, int]]
) -> dict[tuple[int, int], tuple[float, float]]:
    """Geometric midpoint of every link that has one."""
    midpoints = {}
    for pair in links:
        midpoint = topology.edge_midpoint(*pair)
        if midpoint is not None:
            midpoints[pair] = midpoint
    return midpoints


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _tear(
    config: FaultConfig,
    links: Sequence[tuple[int, int]],
    topology: Topology,
    rng: random.Random,
    horizon: int,
) -> list[FaultEvent]:
    """Spatially correlated cuts: each event severs a whole neighbourhood.

    One tear picks a seed link and cuts every not-yet-cut link whose
    midpoint lies within ``tear_radius`` of the seed's midpoint,
    nearest-first (so a budget truncation still leaves a connected
    patch).  Fabrics without geometry degrade to single-link tears.
    """
    if not links:
        return []
    budget = int(len(links) * config.max_link_fraction)
    if budget == 0 and config.max_link_fraction > 0:
        budget = 1
    midpoints = _link_midpoints(topology, links)
    uncut = list(links)
    events: list[FaultEvent] = []
    burst = 0
    while budget > 0 and uncut:
        frame = _event_frame(config, burst)
        burst += 1
        if frame >= horizon:
            break
        seed = uncut[rng.randrange(len(uncut))]
        centre = midpoints.get(seed)
        if centre is None:
            neighbourhood = [seed]
        else:
            # Nearest-first, pair-ordered on ties: deterministic, and a
            # budget cut-off keeps the severed patch connected.
            reachable = sorted(
                (distance, pair)
                for pair in uncut
                if pair in midpoints
                and (distance := _distance(midpoints[pair], centre))
                <= config.tear_radius
            )
            neighbourhood = [pair for _, pair in reachable]
        for u, v in neighbourhood[:budget]:
            events.append(
                FaultEvent(frame=frame, kind="link-cut", node_a=u, node_b=v)
            )
            uncut.remove((u, v))
            budget -= 1
    return events


def _moisture(
    config: FaultConfig,
    links: Sequence[tuple[int, int]],
    topology: Topology,
    rng: random.Random,
    horizon: int,
) -> list[FaultEvent]:
    """A damp patch degrades a whole region; the patch drifts over time.

    Every cadence burst degrades all links within ``moisture_radius`` of
    the current patch centre (refreshing any still-active degradation),
    then the centre takes one random unit step, clamped to the fabric's
    bounding box.  Without geometry the patch is a single random link.

    With ``corrode_after_frames`` set, sustained wetness corrodes
    through: exposure counts a link's cumulative *non-overlapping* wet
    frames (a burst that refreshes an already-wet link only extends
    the wet period, it does not double-count the overlap), and the
    burst whose wet period carries a link past the threshold emits a
    permanent ``link-cut`` at the exact frame the threshold is
    reached.  A corroded link leaves the patch pool — it is severed,
    there is nothing left to wet — and, like any other cut, responds
    to the repair machinery.
    """
    if not links:
        return []
    midpoints = _link_midpoints(topology, links)
    spacing = max(
        1, int(math.ceil(config.period_frames / config.intensity))
    )
    events: list[FaultEvent] = []
    #: Cumulative non-overlapping wet frames per link (corrosion).
    exposure: dict[tuple[int, int], int] = {}
    #: Frame each link's scheduled wetness currently runs to.
    wet_until: dict[tuple[int, int], int] = {}
    corroded: set[tuple[int, int]] = set()
    if midpoints:
        xs = [p[0] for p in midpoints.values()]
        ys = [p[1] for p in midpoints.values()]
        bounds = (min(xs), max(xs), min(ys), max(ys))
        seed = list(midpoints)[rng.randrange(len(midpoints))]
        centre = midpoints[seed]
    else:
        bounds = None
        centre = None
    frame = config.start_frame + spacing
    while frame < horizon:
        if centre is None:
            patch = [links[rng.randrange(len(links))]]
        else:
            patch = [
                pair
                for pair in links
                if pair in midpoints
                and _distance(midpoints[pair], centre)
                <= config.moisture_radius
            ]
        for u, v in patch:
            pair = (u, v)
            if pair in corroded:
                continue
            if config.corrode_after_frames > 0:
                # This burst's wetness runs to frame + degrade_frames;
                # only the part past the already-scheduled wet period
                # is new exposure (a refresh extends, never overlaps).
                start = max(frame, wet_until.get(pair, frame))
                end = frame + config.degrade_frames
                before = exposure.get(pair, 0)
                if before + (end - start) >= config.corrode_after_frames:
                    # Stored exposure is always below the threshold, so
                    # the crossing lands strictly inside this burst's
                    # wet period: the link degrades now and corrodes
                    # through at the crossing frame.
                    cut_frame = start + (
                        config.corrode_after_frames - before
                    )
                    corroded.add(pair)
                    if cut_frame < horizon:
                        events.append(
                            FaultEvent(
                                frame=cut_frame,
                                kind="link-cut",
                                node_a=u,
                                node_b=v,
                            )
                        )
                else:
                    exposure[pair] = before + (end - start)
                    wet_until[pair] = end
            events.append(
                FaultEvent(
                    frame=frame,
                    kind="link-degrade",
                    node_a=u,
                    node_b=v,
                    factor=config.degrade_factor,
                    duration_frames=config.degrade_frames,
                )
            )
        if centre is not None and bounds is not None:
            dx = rng.choice((-1.0, 0.0, 1.0))
            dy = rng.choice((-1.0, 0.0, 1.0))
            centre = (
                min(max(centre[0] + dx, bounds[0]), bounds[1]),
                min(max(centre[1] + dy, bounds[2]), bounds[3]),
            )
        frame += spacing
    return events


def _with_repairs(
    config: FaultConfig, events: list[FaultEvent], horizon: int
) -> list[FaultEvent]:
    """Schedule a ``link-repair`` after every cut, when configured.

    A repair re-sews the severed line ``repair_after_frames`` after its
    cut; repairs that would land past the horizon are dropped (the run
    ends with the line still severed).
    """
    if config.repair_after_frames <= 0:
        return events
    repairs = [
        FaultEvent(
            frame=event.frame + config.repair_after_frames,
            kind="link-repair",
            node_a=event.node_a,
            node_b=event.node_b,
        )
        for event in events
        if event.kind == "link-cut"
        and event.frame + config.repair_after_frames < horizon
    ]
    return events + repairs


def _with_repair_crew(
    config: FaultConfig, events: list[FaultEvent], horizon: int
) -> list[FaultEvent]:
    """Schedule repairs performed by a bounded crew, oldest cut first.

    Unlike the per-cut timer of :func:`_with_repairs`, a crew of
    ``repair_crew_size`` menders works through the severed lines in cut
    order: each free mender takes the oldest still-severed cut and
    finishes ``repair_latency_frames`` later.  Under a damage burst the
    queue grows and lines stay severed far longer than the latency —
    the budgeted-maintenance model the ROADMAP asks for.  Repairs that
    would finish past the horizon are dropped.
    """
    if config.repair_crew_size <= 0:
        return events
    cuts = sorted(
        (event for event in events if event.kind == "link-cut"),
        key=lambda event: event.frame,
    )
    #: Min-heap of frames at which each mender becomes free.
    free = [config.start_frame] * config.repair_crew_size
    heapq.heapify(free)
    repairs = []
    for cut in cuts:
        start = max(cut.frame, heapq.heappop(free))
        done = start + config.repair_latency_frames
        heapq.heappush(free, done)
        if done < horizon:
            repairs.append(
                FaultEvent(
                    frame=done,
                    kind="link-repair",
                    node_a=cut.node_a,
                    node_b=cut.node_b,
                )
            )
    return events + repairs


def build_fault_schedule(
    config: FaultConfig,
    topology: Topology,
    num_mesh_nodes: int,
    horizon_frames: int,
) -> FaultSchedule:
    """Generate the full fault schedule of one run.

    Deterministic: the events depend only on the arguments (the RNG is
    seeded from ``config.seed`` and candidate links are enumerated in
    sorted order).
    """
    if not config.is_active:
        return FaultSchedule()
    rng = random.Random(config.seed)
    links = fabric_links(topology, num_mesh_nodes)
    if config.profile == "link-attrition":
        events = _link_attrition(config, links, rng, horizon_frames)
    elif config.profile == "node-dropout":
        events = _node_dropout(config, num_mesh_nodes, rng, horizon_frames)
    elif config.profile == "tear":
        events = _tear(config, links, topology, rng, horizon_frames)
    elif config.profile == "moisture":
        events = _moisture(config, links, topology, rng, horizon_frames)
    else:  # wash-cycle
        events = _wash_cycle(config, links, rng, horizon_frames)
    # Both repair models key on the emitted link-cut events themselves,
    # so any profile that cuts (CUTTING_PROFILES, or moisture once
    # corrosion is enabled) gets its repairs without a second
    # registration.  The config validator guarantees at most one model
    # is configured.
    events = _with_repairs(config, events, horizon_frames)
    events = _with_repair_crew(config, events, horizon_frames)
    return FaultSchedule(events)


#: Frames a run's first fault schedule covers; each extension doubles it.
FIRST_HORIZON_FRAMES = 64


class FaultRuntime:
    """Per-run fault state: schedule cursor and active degradations.

    The engines drain due events at frame boundaries via :meth:`due`.
    The link state those events leave is the engine's working lengths,
    where a cut line has no entry.

    Args:
        schedule: The events of the frames below ``horizon``; without
            ``build``, every event of the run.
        build: Rebuilds the schedule for a longer horizon.  When
            :meth:`due` reaches the horizon, the runtime doubles it (up
            to ``max_frames``) and swaps in the rebuilt schedule; the
            cursor stays valid because the longer schedule begins with
            the shorter one.
        horizon: First frame ``schedule`` does not cover.
        max_frames: The run's frame budget, the last horizon.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        build: Callable[[int], FaultSchedule] | None = None,
        horizon: int = 0,
        max_frames: int = 0,
    ):
        self.schedule = schedule
        self._build = build if horizon < max_frames else None
        self._horizon = horizon
        self._max_frames = max_frames
        self._cursor = 0
        #: Canonical ``(min, max)`` pair -> (factor, expiry frame).
        self.degraded: dict[tuple[int, int], tuple[float, int]] = {}

    @classmethod
    def for_run(
        cls,
        config: FaultConfig,
        topology: Topology,
        num_mesh_nodes: int,
        max_frames: int,
    ) -> FaultRuntime:
        """A runtime that builds ``config``'s schedule on ``topology``
        only as far as the run reaches, starting at
        :data:`FIRST_HORIZON_FRAMES`."""
        if not config.is_active:
            return cls(FaultSchedule())

        def build(horizon: int) -> FaultSchedule:
            return build_fault_schedule(
                config, topology, num_mesh_nodes, horizon
            )

        horizon = min(FIRST_HORIZON_FRAMES, max_frames)
        return cls(build(horizon), build, horizon, max_frames)

    def due(self, frame: int) -> list[FaultEvent]:
        """Events scheduled at or before ``frame`` not yet delivered."""
        if frame >= self._horizon and self._build is not None:
            horizon = self._horizon
            while horizon <= frame and horizon < self._max_frames:
                horizon = min(2 * horizon, self._max_frames)
            self.schedule = self._build(horizon)
            self._horizon = horizon
            if horizon == self._max_frames:
                self._build = None
        events = []
        schedule = self.schedule.events
        while self._cursor < len(schedule):
            event = schedule[self._cursor]
            if event.frame > frame:
                break
            events.append(event)
            self._cursor += 1
        return events

    def expire_degradations(self, frame: int) -> list[tuple[int, int]]:
        """Remove and return degradations whose expiry has passed."""
        expired = [
            pair
            for pair, (_, expiry) in self.degraded.items()
            if expiry <= frame
        ]
        for pair in expired:
            del self.degraded[pair]
        return expired
