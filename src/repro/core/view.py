"""The controller's view of the network.

Routing decisions are made centrally from *reported* information (paper
Sec 5.3): quantised battery levels, liveness, and deadlock flags arrive
over the TDMA control medium; the physical line lengths are static
knowledge.  A :class:`NetworkView` is an immutable snapshot of exactly
that information — the only input a routing engine is allowed to see,
which keeps EAR honest (it cannot peek at exact battery state).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..mesh.mapping import ModuleMapping


@dataclass(frozen=True)
class NetworkView:
    """Snapshot of reported system state used for one routing computation.

    Attributes:
        lengths: Dense ``(K, K)`` matrix of line lengths in cm
            (``inf`` for non-edges, 0 on the diagonal).
        alive: Boolean vector of length ``K``.
        battery_levels: Integer vector of reported levels ``N_B(j)``,
            each in ``0 .. levels-1``.
        levels: The quantisation level count ``N_B``.
        mapping: Module-to-node assignment.
        blocked_ports: Set of ``(node, successor)`` pairs currently in a
            deadlock state; phase 3 avoids choosing them.
        channel_levels: Quantised levels reported per level channel,
            keyed by channel name: a length-``K`` vector for node
            channels, a symmetric ``(K, K)`` matrix for link channels.
            A channel is absent until its first report arrives.
    """

    lengths: np.ndarray
    alive: np.ndarray
    battery_levels: np.ndarray
    levels: int
    mapping: ModuleMapping
    blocked_ports: frozenset[tuple[int, int]] = field(
        default_factory=frozenset
    )
    channel_levels: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = np.asarray(self.lengths, dtype=float)
        alive = np.asarray(self.alive, dtype=bool)
        levels_vec = np.asarray(self.battery_levels, dtype=int)
        size = lengths.shape[0]
        if lengths.shape != (size, size):
            raise ConfigurationError(
                f"lengths must be square, got {lengths.shape}"
            )
        if alive.shape != (size,) or levels_vec.shape != (size,):
            raise ConfigurationError(
                "alive and battery_levels must be vectors of length "
                f"{size}, got {alive.shape} and {levels_vec.shape}"
            )
        if self.levels < 1:
            raise ConfigurationError(
                f"levels must be >= 1, got {self.levels}"
            )
        if levels_vec.min(initial=0) < 0 or levels_vec.max(
            initial=0
        ) >= self.levels:
            raise ConfigurationError(
                "battery levels must lie in "
                f"0..{self.levels - 1}, got range "
                f"[{levels_vec.min()}, {levels_vec.max()}]"
            )
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "alive", alive)
        object.__setattr__(self, "battery_levels", levels_vec)
        channel_levels = {}
        for name, raw in self.channel_levels.items():
            levels = np.asarray(raw, dtype=int)
            if levels.shape not in ((size,), (size, size)):
                raise ConfigurationError(
                    f"{name} levels must be a length-{size} vector or a "
                    f"{size}x{size} matrix, got {levels.shape}"
                )
            if levels.min(initial=0) < 0:
                raise ConfigurationError(f"{name} levels must be >= 0")
            channel_levels[name] = levels
        object.__setattr__(self, "channel_levels", channel_levels)

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``K`` in the view."""
        return int(self.lengths.shape[0])

    def alive_nodes(self) -> tuple[int, ...]:
        """Ids of live nodes."""
        return tuple(int(n) for n in np.flatnonzero(self.alive))

    def with_blocked_ports(
        self, blocked: frozenset[tuple[int, int]]
    ) -> "NetworkView":
        """Copy of the view with a different blocked-port set."""
        return NetworkView(
            lengths=self.lengths,
            alive=self.alive,
            battery_levels=self.battery_levels,
            levels=self.levels,
            mapping=self.mapping,
            blocked_ports=blocked,
            channel_levels=self.channel_levels,
        )
