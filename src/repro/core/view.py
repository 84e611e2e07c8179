"""The controller's view of the network.

Routing decisions are made centrally from *reported* information (paper
Sec 5.3): quantised battery levels, liveness, and deadlock flags arrive
over the TDMA control medium, and so do the line lengths the controller
knows — degradations, their expiry and repairs as they happen, a cut
only once a node discovers it.  A :class:`NetworkView` is an immutable
snapshot of exactly that information — the only input a routing engine
is allowed to see, which keeps EAR honest (it cannot peek at exact
battery state or at a cut nobody has found).
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
        neighbors: The fabric's padded ``(K, M)`` neighbour table
            (:func:`~repro.core.trees.line_slots`).
        edge_lengths: ``(K, M)`` known line length in cm behind every
            slot of ``neighbors``: ``inf`` on padding and on a known
            cut.  These are the interconnects phase 1 weighs.
        alive: Boolean vector of length ``K``.
        battery_levels: Integer vector of reported levels ``N_B(j)``,
            each in ``0 .. levels-1``.
        levels: The quantisation level count ``N_B``.
        mapping: Module-to-node assignment.
        blocked_ports: Set of ``(node, successor)`` pairs currently in a
            deadlock state; phase 3 avoids choosing them.
        channel_levels: Quantised levels reported per level channel,
            keyed by channel name: a length-``K`` vector for node
            channels, a ``(K, M)`` array laid out like ``neighbors`` for
            link channels.  A channel is absent until its first report
            arrives.
        sink: Node id of the source block that finished jobs return
            to (the root of the sink column of the routing trees), or
            None when the view has no sink.
    """

    neighbors: np.ndarray = field(repr=False)
    edge_lengths: np.ndarray = field(repr=False)
    alive: np.ndarray
    battery_levels: np.ndarray
    levels: int
    mapping: ModuleMapping
    blocked_ports: frozenset[tuple[int, int]] = field(
        default_factory=frozenset
    )
    channel_levels: Mapping[str, np.ndarray] = field(default_factory=dict)
    sink: int | None = None

    def __post_init__(self) -> None:
        neighbors = np.asarray(self.neighbors)
        edge_lengths = np.asarray(self.edge_lengths, dtype=float)
        alive = np.asarray(self.alive, dtype=bool)
        levels_vec = np.asarray(self.battery_levels, dtype=int)
        if neighbors.ndim != 2 or edge_lengths.shape != neighbors.shape:
            raise ConfigurationError(
                f"edge lengths {edge_lengths.shape} do not match the "
                f"neighbour table {neighbors.shape}"
            )
        size = neighbors.shape[0]
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
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "edge_lengths", edge_lengths)
        object.__setattr__(self, "alive", alive)
        object.__setattr__(self, "battery_levels", levels_vec)
        channel_levels = {}
        for name, raw in self.channel_levels.items():
            levels = np.asarray(raw, dtype=int)
            if levels.shape not in ((size,), neighbors.shape):
                raise ConfigurationError(
                    f"{name} levels must be a length-{size} vector or "
                    f"shaped like the neighbour table {neighbors.shape}, "
                    f"got {levels.shape}"
                )
            if levels.min(initial=0) < 0:
                raise ConfigurationError(f"{name} levels must be >= 0")
            channel_levels[name] = levels
        object.__setattr__(self, "channel_levels", channel_levels)
        if self.sink is not None and not 0 <= self.sink < size:
            raise ConfigurationError(
                f"sink {self.sink} outside 0..{size - 1}"
            )

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``K`` in the view."""
        return int(self.neighbors.shape[0])

    def targets(self) -> np.ndarray:
        """``(K, p + 1)`` roots of the routing trees.

        Column 0 marks the sink when it is alive (none without a sink);
        column ``i`` marks the live duplicates of module ``i``.
        """
        mapping = self.mapping
        mask = np.zeros((self.num_nodes, mapping.num_modules + 1), bool)
        if self.sink is not None:
            mask[self.sink, 0] = self.alive[self.sink]
        for module in range(1, mapping.num_modules + 1):
            duplicates = list(mapping.duplicates(module))
            mask[duplicates, module] = self.alive[duplicates]
        return mask
