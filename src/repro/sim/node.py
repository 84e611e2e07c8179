"""Simulated network nodes.

A :class:`NetworkNode` bundles what the paper's platform puts at every
mesh grid point: one module instance, one attached battery, and the port
logic that transmits packets over the textile lines.  The engines attach
mesh nodes to one cell each of their battery bank and to one shared kill
record.  The external source/sink block is represented by a node with an
infinite supply and no module.
"""

from __future__ import annotations

import numpy as np

from ..battery.base import Battery, DrawResult
from ..errors import DeadNodeError


class NetworkNode:
    """One computational (or external) node of the fabric.

    Args:
        node_id: Dense topology id.
        module: Application module id hosted here (None for pure
            relays/externals).
        battery: Attached battery; None models an infinite supply (the
            paper's external sensor block and the Sec 7.1 infinite
            controller).
        killed: The engine's kill record, indexed by node id: True once
            fault injection failed the node, which is then dead even
            with a charged cell.  None for a node that cannot fail.
    """

    def __init__(
        self,
        node_id: int,
        module: int | None,
        battery: Battery | None,
        killed: np.ndarray | None = None,
    ):
        self.node_id = node_id
        self.module = module
        self.battery = battery
        self._killed = killed
        self._infinite_drawn = 0.0

    # ------------------------------------------------------------------
    @property
    def fault_killed(self) -> bool:
        return self._killed is not None and bool(self._killed[self.node_id])

    @property
    def alive(self) -> bool:
        if self._killed is not None and self._killed[self.node_id]:
            return False
        return self.battery is None or self.battery.alive

    def fail(self) -> None:
        """Kill this node physically (cut trace, crushed module, ...)."""
        self._killed[self.node_id] = True

    @property
    def has_infinite_supply(self) -> bool:
        return self.battery is None

    @property
    def state_of_charge(self) -> float:
        if self.battery is None:
            return 1.0
        return self.battery.state_of_charge

    def draw(self, energy_pj: float, duration_cycles: float) -> DrawResult:
        """Draw energy for any activity of this node.

        Raises :class:`DeadNodeError` if the node is already dead —
        engines must check :attr:`alive` first, so hitting this is a
        simulator bug, not a modelling event.
        """
        if not self.alive:
            raise DeadNodeError(self.node_id, "draw energy")
        if self.battery is None:
            self._infinite_drawn += energy_pj
            return DrawResult(
                requested_pj=energy_pj,
                delivered_pj=energy_pj,
                died=False,
                voltage=3.6,
            )
        return self.battery.draw(energy_pj, duration_cycles)

    @property
    def infinite_drawn_pj(self) -> float:
        """Energy drawn from an infinite supply (0 for battery nodes)."""
        return self._infinite_drawn

    def __repr__(self) -> str:
        module = f"module={self.module}" if self.module else "relay"
        state = "alive" if self.alive else "dead"
        return f"NetworkNode({self.node_id}, {module}, {state})"
