"""Deterministic harvest income schedules.

A *harvest schedule* maps a frame index to the per-node energy income
the fabric scavenges during that frame.  It is a pure function of the
:class:`~repro.harvest.config.HarvestConfig` and the fabric topology —
the same inputs always produce the same income, which keeps
harvest-bearing runs replayable, cacheable and bit-identical across the
sequential and concurrent engines (both recharge batteries through
``EngineBase._apply_harvest`` at frame boundaries).

The harvest-aware routing weight learns from this income through the
engine's income estimator (:mod:`repro.sim.level_estimators`).
"""

from __future__ import annotations

import math
import random
from functools import cached_property

from ..mesh.topology import Topology
from .config import MOTION_PROFILES, HarvestConfig, HarvestHardware

#: Baseline share of the flex weight every node keeps: even low-flex
#: (central) fabric regions crinkle a little with each movement.
_FLEX_FLOOR = 0.25


def flex_weights(topology: Topology, num_mesh_nodes: int) -> list[float]:
    """Per-node triboelectric flex weight in ``[_FLEX_FLOOR, 1]``.

    Motion harvest concentrates on high-flex regions — the fabric far
    from the torso centroid (elbows, shoulders, hem).  With node
    positions available the weight grows linearly with the distance
    from the fabric centroid; fabrics without geometry degrade to a
    uniform weight of 1.
    """
    positions = [topology.node_position(node) for node in range(num_mesh_nodes)]
    if any(p is None for p in positions) or not positions:
        return [1.0] * num_mesh_nodes
    cx = sum(p[0] for p in positions) / len(positions)
    cy = sum(p[1] for p in positions) / len(positions)
    distances = [math.hypot(p[0] - cx, p[1] - cy) for p in positions]
    furthest = max(distances)
    if furthest <= 0:
        return [1.0] * num_mesh_nodes
    return [
        _FLEX_FLOOR + (1.0 - _FLEX_FLOOR) * (d / furthest) for d in distances
    ]


def hardware_scale(
    hardware: HarvestHardware,
    topology: Topology,
    num_mesh_nodes: int,
) -> list[float]:
    """Per-node generator gain: 0 for non-equipped nodes.

    Which nodes are equipped follows the placement policy
    (high-flex-first, seeded random, or evenly spread over the node-id
    order); each equipped node's gain is its seeded manufacturing draw
    from ``[1 - gain_spread, 1 + gain_spread]``.  The default hardware
    returns all-ones, keeping homogeneous runs bit-identical to the
    hardware-free schedule.
    """
    nodes = int(num_mesh_nodes)
    if hardware.is_uniform:
        return [1.0] * nodes
    equipped_count = max(1, round(hardware.equipped_fraction * nodes))
    if hardware.placement == "flex":
        flex = flex_weights(topology, nodes)
        ranked = sorted(range(nodes), key=lambda n: (-flex[n], n))
        equipped = set(ranked[:equipped_count])
    elif hardware.placement == "random":
        rng = random.Random(f"{hardware.seed}:hardware")
        equipped = set(rng.sample(range(nodes), equipped_count))
    else:  # spread
        equipped = {i * nodes // equipped_count for i in range(equipped_count)}
    scale = [0.0] * nodes
    for node in equipped:
        gain = random.Random(f"{hardware.seed}:gain:{node}").uniform(
            1.0 - hardware.gain_spread, 1.0 + hardware.gain_spread
        )
        scale[node] = gain
    return scale


class HarvestSchedule:
    """Per-node income as a pure function of the frame index.

    :meth:`income` returns the list of per-mesh-node energies (pJ) the
    fabric harvests during one frame, or ``None`` for frames with no
    income at all (idle activity windows, solar night) so the engines'
    fast path skips the recharge loop entirely.
    """

    def __init__(
        self,
        config: HarvestConfig,
        topology: Topology,
        num_mesh_nodes: int,
    ):
        self.config = config
        self._topology = topology
        self._nodes = int(num_mesh_nodes)
        #: Per-node generator gain (0 for nodes without a harvester).
        self.hardware = hardware_scale(
            config.hardware, topology, num_mesh_nodes
        )
        #: Memo of the current activity window: (window index, vector).
        #: Frames are visited in order, so one slot is enough.
        self._window: tuple[int, list[float] | None] | None = None

    @property
    def is_active(self) -> bool:
        return self.config.is_active

    @cached_property
    def _node_scale(self) -> list[float]:
        """Motion-profile node scale: flex weight times generator gain.

        Only an active motion profile reads it, so other runs never pay
        for the flex weights.  Multiplying by the all-ones default
        hardware is bit-exact, so homogeneous runs reproduce the PR 4
        income vectors.
        """
        flex = flex_weights(self._topology, self._nodes)
        return [weight * gain for weight, gain in zip(flex, self.hardware)]

    def expected_income_weights(self) -> list[float]:
        """Expected per-node income (pJ/frame), queried before the run.

        A pure function of the configuration — the mean of the income
        process, not a sample of it — so build-time consumers (the
        income-aware mapping) see the same per-node expectations on
        every engine and every run.  Inactive schedules yield zeros.
        """
        config = self.config
        if not self.is_active:
            return [0.0] * self._nodes
        if config.profile in MOTION_PROFILES:
            # Mean window pulse: duty * amplitude * E[U(0.5, 1)].
            mean_pulse = config.amplitude_pj * config.duty * 0.75
            return [mean_pulse * scale for scale in self._node_scale]
        # Solar: the positive half of a sine averages A / pi over a day.
        mean_level = config.amplitude_pj / math.pi
        return [mean_level * gain for gain in self.hardware]

    # ------------------------------------------------------------------
    def _window_pulse(self, window: int) -> float:
        """Peak income of one motion activity window (0 when idle).

        Seeded per window from the configured seed, so the activity
        trace is deterministic and independent of query order.
        """
        config = self.config
        rng = random.Random(f"{config.seed}:{window}")
        if rng.random() >= config.duty:
            return 0.0
        return config.amplitude_pj * rng.uniform(0.5, 1.0)

    def _motion_income(self, frame: int) -> list[float] | None:
        window = (frame - self.config.start_frame) // self.config.period_frames
        if self._window is None or self._window[0] != window:
            pulse = self._window_pulse(window)
            vector = (
                [pulse * weight for weight in self._node_scale]
                if pulse
                else None
            )
            self._window = (window, vector)
        return self._window[1]

    def _solar_income(self, frame: int) -> list[float] | None:
        config = self.config
        phase = ((frame - config.start_frame) % config.day_frames) / (
            config.day_frames
        )
        scale = config.amplitude_pj * math.sin(2.0 * math.pi * phase)
        if scale <= 0.0:
            return None  # night
        return [scale * gain for gain in self.hardware]

    def income(self, frame: int) -> list[float] | None:
        """Per-mesh-node income (pJ) of ``frame``; None when all zero."""
        config = self.config
        if not self.is_active or frame < config.start_frame:
            return None
        if config.profile in MOTION_PROFILES:
            return self._motion_income(frame)
        return self._solar_income(frame)  # solar


def build_harvest_schedule(
    config: HarvestConfig,
    topology: Topology,
    num_mesh_nodes: int,
) -> HarvestSchedule:
    """Construct the income schedule of one run (deterministic)."""
    return HarvestSchedule(config, topology, num_mesh_nodes)
