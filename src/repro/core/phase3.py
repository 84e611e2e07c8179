"""Phase 3 of EAR/SDR: destination selection and routing tables.

Phase 2 leaves, per node and per module type ``i``, the distance to the
nearest live duplicate in ``S_i`` and the label of that duplicate (the
lowest id among the nearest).  Phase 3 (paper Fig 6) turns the trees
into the tables downloaded to the nodes over the TDMA medium: for every
node the chosen duplicate and the next hop toward it, plus the next hop
toward the sink.  Ports a node reports deadlocked are skipped when it
chooses among its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import RoutingError, UnreachableModuleError
from .trees import ECMP_COST_TOLERANCE, ShortestPathTrees
from .view import NetworkView

#: Sentinel for "no destination reachable" (and for "no hop").
NO_DESTINATION = -1

#: Column of the plan tables holding the route to the sink (the source
#: block); module ``i`` owns column ``i``.  Only a run that returns its
#: ciphertexts to the source grows this column; in every other run it
#: is unreachable (``inf`` distances, :data:`NO_DESTINATION` entries).
SINK = 0


class EcmpSelector:
    """Deterministic round-robin over equal-cost next-hop groups.

    The canonical hop table keeps one next hop per (node, module),
    which concentrates all traffic of a pair on a single corridor even
    when several minimal paths exist.  This selector recovers the full
    equal-cost group (lazily, per pair — most pairs are never routed)
    and cycles through it per forwarded packet, so equal-cost traffic
    spreads across parallel corridors.  A group is the node's downhill
    neighbours within :data:`~repro.core.trees.ECMP_COST_TOLERANCE` of
    its distance that share its label (lead to the same duplicate), in
    ascending id order.

    Determinism: the starting member of each rotation is a hash of
    ``(node, destination, seed)``, and subsequent calls advance one
    member per call.  Every engine drives the same per-pair call
    sequence for the same workload, so sequential, vector, and
    concurrent runs pick identical hops.  Members whose ``(node, hop)``
    port is reported deadlocked are skipped; a group of one, or one
    whose members are all blocked, defers to the plan's hop table
    (where phase 3 already handled deadlocked ports).

    This object is mutable (rotation counters) and is rebuilt with each
    routing plan, so stale groups never outlive the weights they were
    derived from.
    """

    def __init__(
        self,
        trees: ShortestPathTrees,
        destinations: np.ndarray,
        blocked_ports: frozenset[tuple[int, int]],
        seed: int,
    ):
        self._trees = trees
        self._destinations = destinations
        self._blocked = blocked_ports
        self._seed = int(seed)
        self._groups: dict[tuple[int, int], list[int]] = {}
        self._counters: dict[tuple[int, int], int] = {}

    def group(self, node: int, module: int) -> list[int]:
        """Equal-cost next hops of ``node`` toward its ``module`` column."""
        key = (node, module)
        group = self._groups.get(key)
        if group is None:
            trees = self._trees
            optimum = trees.distances[node, module]
            through = trees.through[:, node, module]
            members = (
                (trees.ahead[:, node, module] < optimum)
                & (through <= optimum * (1.0 + ECMP_COST_TOLERANCE))
                & (
                    trees.ahead_labels[:, node, module]
                    == trees.labels[node, module]
                )
            )
            group = [int(h) for h in trees.neighbors[node][members]]
            self._groups[key] = group
        return group

    def _start_offset(self, node: int, destination: int, size: int) -> int:
        # Integer hash mix (Teschner-style spatial hash primes): cheap,
        # stable across platforms, and decorrelates neighbouring pairs
        # so rotations do not start in lockstep.
        mixed = (
            (node * 73856093)
            ^ (destination * 19349663)
            ^ (self._seed * 83492791)
        )
        return (mixed & 0x7FFFFFFF) % size

    def next_hop(self, node: int, module: int) -> int | None:
        """Next member of the pair's rotation, or None for the table.

        ``None`` tells the caller to use the canonical hop entry
        (covering single-path and unreachable pairs, whose error
        handling stays in :meth:`RoutingPlan.next_hop`).
        """
        group = self.group(node, module)
        size = len(group)
        if size <= 1:
            return None
        key = (node, int(self._destinations[node, module]))
        turn = self._counters.get(key, 0)
        self._counters[key] = turn + 1
        start = self._start_offset(*key, size)
        for step in range(size):
            hop = group[(start + turn + step) % size]
            if (node, hop) not in self._blocked:
                return hop
        return None


@dataclass(frozen=True)
class RoutingPlan:
    """Output of one full routing computation (phases 1-3).

    Every table is ``(K, p + 1)``: column :data:`SINK` routes toward the
    source block, column ``i`` toward module ``i``.  The sink column is
    grown only when the view has a sink, that is in runs that return
    ciphertexts to the source; otherwise its distances are ``inf`` and
    its destinations and hops :data:`NO_DESTINATION` throughout.

    Attributes:
        distances: Phase 2 distance from each node to the sink and to
            the nearest live duplicate of each module.
        destinations: Entry ``[n, i]`` is the node chosen to execute
            module ``i`` for a job currently at node ``n`` (the sink
            itself in column 0); :data:`NO_DESTINATION` when none is
            reachable.
        hops: Entry ``[n, i]`` is the canonical next hop from ``n``
            toward ``destinations[n, i]`` (``n`` itself once there);
            :data:`NO_DESTINATION` when there is none.
        view: The network view the plan was computed from.
        ecmp: Optional :class:`EcmpSelector`; when present,
            :meth:`next_hop` round-robins over equal-cost groups
            instead of always returning the canonical entry.
            :meth:`hop` is unaffected (consumers that need the
            deterministic canonical table — plan diffing, the sink
            route — keep it).
    """

    distances: np.ndarray
    destinations: np.ndarray
    hops: np.ndarray
    view: NetworkView = field(repr=False)
    ecmp: EcmpSelector | None = field(default=None, repr=False)

    @property
    def num_nodes(self) -> int:
        return int(self.distances.shape[0])

    # The engines query destinations/hops once per hop of every
    # simulated packet; plain nested lists answer those scalar lookups
    # several times faster than numpy element access, so both tables are
    # converted once per computed plan (plans are immutable).
    @cached_property
    def _destination_rows(self) -> list[list[int]]:
        return self.destinations.tolist()

    @cached_property
    def _hop_rows(self) -> list[list[int]]:
        return self.hops.tolist()

    def destination(self, node: int, module: int) -> int:
        """Chosen duplicate of ``module`` for a job at ``node``.

        Raises :class:`UnreachableModuleError` when no live duplicate is
        reachable — the paper's system-death condition.
        """
        dest = self._destination_rows[node][module]
        if dest == NO_DESTINATION:
            raise UnreachableModuleError(module, origin=node)
        return dest

    def has_destination(self, node: int, module: int) -> bool:
        """True when some live duplicate of ``module`` is reachable."""
        return self._destination_rows[node][module] != NO_DESTINATION

    def hop(self, node: int, column: int) -> int:
        """Raw canonical hop entry (:data:`NO_DESTINATION` when none)."""
        return self._hop_rows[node][column]

    def next_hop(self, node: int, module: int) -> int:
        """Next hop from ``node`` toward its duplicate of ``module``.

        With an :attr:`ecmp` selector attached, equal-cost groups are
        round-robined; otherwise (and for pairs with a single minimal
        path) the canonical hop entry is returned.
        """
        if self.ecmp is not None:
            hop = self.ecmp.next_hop(node, module)
            if hop is not None:
                return hop
        hop = self._hop_rows[node][module]
        if hop == NO_DESTINATION:
            raise RoutingError(
                f"no hop from {node} toward module {module}"
            )
        return hop

    def path_to_module(self, node: int, module: int) -> list[int]:
        """Full node sequence from ``node`` to its chosen duplicate."""
        destination = self.destination(node, module)
        path = [node]
        # Every hop strictly decreases the distance: K hops suffice.
        for _ in range(self.num_nodes):
            current = path[-1]
            if current == destination:
                return path
            hop = self._hop_rows[current][module]
            if hop == NO_DESTINATION or hop == current:
                break
            path.append(hop)
        raise RoutingError(
            f"hop table does not lead {node} to {destination}: {path}"
        )


def select_destinations(
    view: NetworkView, trees: ShortestPathTrees
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's Fig 6: destinations and next hops from the trees.

    A live node's destination in column ``c`` is its label, the lowest
    id among the nearest live duplicates (the sink in column 0); its
    canonical hop is the lowest-id neighbour on an exactly tight edge
    that carries the same label, and a node that is itself a target
    hops to itself.  Returns ``(destinations, hops)``.

    Deadlocked ports apply to module columns only; the sink route
    ignores them.  When a node's canonical hop is a port it
    reported blocked, the node takes the unblocked neighbour ``h`` with
    ``D[h] < D[n]`` and the least ``W[n, h] + D[h]`` (lowest id on
    ties) and adopts that neighbour's label; with no such neighbour the
    entry has no destination and the job waits — a hop never goes
    uphill, so the tables stay loop-free.
    """
    distances = trees.distances
    size, columns = distances.shape
    rows = np.arange(size)
    canonical = trees.canonical
    hops = np.where(
        canonical.any(axis=0),
        trees.neighbors[rows[:, None], canonical.argmax(axis=0)],
        NO_DESTINATION,
    )
    hops = np.where(trees.labels == rows[:, None], rows[:, None], hops)
    destinations = np.where(
        np.isfinite(distances), trees.labels, NO_DESTINATION
    )
    dead = ~view.alive
    hops[dead] = NO_DESTINATION
    destinations[dead] = NO_DESTINATION

    ports: dict[int, set[int]] = {}
    for node, port in view.blocked_ports:
        if node != port:
            ports.setdefault(node, set()).add(port)
    for node, blocked in ports.items():
        slots = trees.neighbors[node]
        open_slots = np.array([int(h) not in blocked for h in slots])
        for column in range(1, columns):
            if hops[node, column] not in blocked:
                continue
            cost = np.where(
                open_slots
                & (trees.ahead[:, node, column] < distances[node, column]),
                trees.through[:, node, column],
                np.inf,
            )
            slot = int(cost.argmin())
            if np.isfinite(cost[slot]):
                hops[node, column] = slots[slot]
                destinations[node, column] = trees.labels[slots[slot], column]
            else:
                hops[node, column] = NO_DESTINATION
                destinations[node, column] = NO_DESTINATION
    return destinations, hops

