"""Engine-side estimators of the level channels.

Each :class:`~repro.core.costs.LevelChannel` is fed by one estimator
that turns a raw per-node or per-link signal into quantised levels.
Every estimator has the same interface:

* :attr:`~LevelEstimator.dirty` flips True on *every* stored level
  change (not on a snapshot diff — a repair can clear a level raised
  earlier in the same frame interval, and that still counts) and is
  reset by the engine after it pushes the picture to the controller;
* :meth:`~LevelEstimator.levels` is the picture the controller sees: a
  length-``K`` vector, or a ``(K, M)`` array laid out like the fabric's
  neighbour table with both directions of a line at its level;
* :meth:`~LevelEstimator.snapshot` is the sparse nonzero map the trace
  probes record;
* :meth:`~LevelEstimator.end_frame` folds the frame's signal, and
  estimators with :attr:`~LevelEstimator.counts_traversals` expose the
  per-hop ``note_traversal(u, v)`` hot path.

A new channel registers its estimator in :data:`ESTIMATORS`.
"""

from __future__ import annotations

import numpy as np

from ..core.costs import LevelChannel
from ..core.trees import slot_of

#: Per-frame smoothing factor of the income moving average.  One time
#: constant spans ~50 frames — several motion windows — so the estimate
#: converges on each node's steady income *rate* instead of chasing
#: individual activity bursts (burst-chasing flips levels every window
#: and churns the controller with recomputations).
INCOME_EMA_ALPHA = 0.02

#: Per-frame smoothing factor of the link traversal-rate moving average.
#: Much faster than the income EMA: link load jumps the moment a
#: re-plan moves a corridor, and the penalty must follow within tens of
#: frames for relief to engage before the hot cells sag — a relieved
#: corridor that stayed penalised would make the weight oscillate.
LOAD_EMA_ALPHA = 0.2


class LevelEstimator:
    """Quantised-level bookkeeping shared by every channel's estimator."""

    #: Whether the engine feeds :meth:`note_traversal` on every hop.
    counts_traversals = False

    def __init__(self, channel: LevelChannel):
        self.quantum = float(channel.quantum)
        self.cap = channel.levels - 1
        self.dirty = False

    def end_frame(self) -> None:
        """Fold the frame's signal into levels (default: nothing to do)."""

    def levels(self, neighbors: np.ndarray) -> np.ndarray:
        """Quantised levels over the nodes or the slots of the
        ``(K, M)`` neighbour table, zero where nothing was stored."""
        raise NotImplementedError

    def snapshot(self) -> dict:
        """Sparse copy of the nonzero levels (telemetry probes)."""
        raise NotImplementedError


class LinkLevelStore(LevelEstimator):
    """Sparse map of canonical ``(min, max)`` link pairs to levels.

    Level 0 is the implicit default and is never stored.  Sparsity
    matters: on a K-node mesh only O(K) links ever carry traffic, so
    the map stays small while the slot array is materialised only at
    report time (once per level change, not per packet).
    """

    def __init__(self, channel: LevelChannel):
        super().__init__(channel)
        self._levels: dict[tuple[int, int], int] = {}

    def set_level(self, pair: tuple[int, int], level: int) -> None:
        """Record a pair's level, dirtying on change."""
        if level == self._levels.get(pair, 0):
            return
        if level:
            self._levels[pair] = level
        else:
            del self._levels[pair]
        self.dirty = True

    def levels(self, neighbors: np.ndarray) -> np.ndarray:
        slots = np.zeros(neighbors.shape, dtype=np.int64)
        for (u, v), level in self._levels.items():
            slots[u, slot_of(neighbors, u, v)] = level
            slots[v, slot_of(neighbors, v, u)] = level
        return slots

    def snapshot(self) -> dict[tuple[int, int], int]:
        return dict(self._levels)


class WearEstimator(LinkLevelStore):
    """Wear: cumulative traversals per quantum plus degradation events.

    Monotone over a line's life — only a repair (:meth:`forget`)
    resets it.
    """

    counts_traversals = True

    def __init__(self, channel: LevelChannel, num_mesh_nodes: int):
        super().__init__(channel)
        self.quantum = int(channel.quantum)
        #: Canonical pair -> data-network traversal count.
        self.traversals: dict[tuple[int, int], int] = {}
        #: Canonical pair -> degradation events suffered so far.
        self.degrade_counts: dict[tuple[int, int], int] = {}

    def _refresh(self, pair: tuple[int, int]) -> None:
        self.set_level(
            pair,
            min(
                self.cap,
                self.traversals.get(pair, 0) // self.quantum
                + self.degrade_counts.get(pair, 0),
            ),
        )

    def note_traversal(self, u: int, v: int) -> None:
        """One packet crossed the ``u - v`` line (per-hop hot path)."""
        pair = (u, v) if u < v else (v, u)
        self.traversals[pair] = self.traversals.get(pair, 0) + 1
        self._refresh(pair)

    def note_degraded(self, u: int, v: int) -> None:
        """The ``u - v`` line suffered one degradation event."""
        pair = (u, v) if u < v else (v, u)
        self.degrade_counts[pair] = self.degrade_counts.get(pair, 0) + 1
        self._refresh(pair)

    def forget(self, u: int, v: int) -> None:
        """A cut line was re-sewn: it starts a fresh wear life."""
        pair = (u, v) if u < v else (v, u)
        self.traversals.pop(pair, None)
        self.degrade_counts.pop(pair, None)
        if self._levels.pop(pair, None) is not None:
            self.dirty = True


class LoadEstimator(LinkLevelStore):
    """Congestion: an EMA of each link's per-frame traversal count.

    Wear accumulates over a line's whole life; congestion needs the
    *rate* — how busy a line is right now.  :meth:`note_traversal` is
    one dict increment per hop; the EMA fold and quantisation happen
    once per frame in :meth:`end_frame`.  Lifetime totals are kept
    alongside for the end-of-run utilisation metrics, so a neutral
    (measure-only) run reports the same statistics as a penalised one.
    """

    counts_traversals = True

    def __init__(
        self,
        channel: LevelChannel,
        num_mesh_nodes: int,
        alpha: float = LOAD_EMA_ALPHA,
    ):
        super().__init__(channel)
        self.alpha = float(alpha)
        #: Canonical pair -> traversals in the current frame.
        self._frame_counts: dict[tuple[int, int], int] = {}
        #: Canonical pair -> smoothed traversals per frame.
        self._ema: dict[tuple[int, int], float] = {}
        #: Canonical pair -> lifetime traversal count.
        self.totals: dict[tuple[int, int], int] = {}

    def note_traversal(self, u: int, v: int) -> None:
        """One packet crossed the ``u - v`` line (per-hop hot path)."""
        pair = (u, v) if u < v else (v, u)
        self._frame_counts[pair] = self._frame_counts.get(pair, 0) + 1

    def end_frame(self) -> None:
        alpha = self.alpha
        quantum = self.quantum
        cap = self.cap
        counts = self._frame_counts
        ema = self._ema
        # Links active this frame: fold the count in.
        for pair, count in counts.items():
            rate = ema.get(pair, 0.0)
            rate += alpha * (count - rate)
            ema[pair] = rate
            self.totals[pair] = self.totals.get(pair, 0) + count
            self.set_level(pair, min(cap, int(rate / quantum)))
        # Links quiet this frame: decay toward zero, dropping entries
        # once they cannot influence a level (keeps the dict bounded by
        # the working set, not the run's history).
        floor = quantum * 1e-3
        for pair in list(ema):
            if pair in counts:
                continue
            rate = ema[pair] * (1.0 - alpha)
            if rate < floor:
                del ema[pair]
                self.set_level(pair, 0)
            else:
                ema[pair] = rate
                self.set_level(pair, min(cap, int(rate / quantum)))
        counts.clear()

    def max_link_traversals(self) -> int:
        """Lifetime traversal count of the single busiest link."""
        return max(self.totals.values(), default=0)

    def hot_link_share(self) -> float:
        """Busiest link's share of all traversals (0 when idle)."""
        total = sum(self.totals.values())
        if not total:
            return 0.0
        return self.max_link_traversals() / total


class IncomeEstimator(LevelEstimator):
    """Harvest income: an EMA of each node's *accepted* income.

    Fed once per harvesting frame by :meth:`observe_frame` with the
    energy each mesh node's cell actually took in.
    """

    def __init__(self, channel: LevelChannel, num_mesh_nodes: int):
        super().__init__(channel)
        #: Smoothed per-frame accepted income, pJ/frame, per mesh node.
        self.ema: list[float] = [0.0] * num_mesh_nodes
        self._levels: list[int] = [0] * num_mesh_nodes

    def observe_frame(self, accepted: list[float]) -> None:
        """Fold one frame's accepted income into the moving average."""
        alpha = INCOME_EMA_ALPHA
        quantum = self.quantum
        cap = self.cap
        ema = self.ema
        levels = self._levels
        for node, value in enumerate(accepted):
            rate = ema[node] + alpha * (value - ema[node])
            ema[node] = rate
            level = min(cap, int(rate / quantum))
            if level != levels[node]:
                levels[node] = level
                self.dirty = True

    def levels(self, neighbors: np.ndarray) -> np.ndarray:
        vector = np.zeros(neighbors.shape[0], dtype=np.int64)
        vector[: len(self._levels)] = self._levels
        return vector

    def snapshot(self) -> dict[int, int]:
        return {node: level for node, level in enumerate(self._levels) if level}


#: Channel name -> estimator class, built as ``cls(channel, num_mesh_nodes)``.
ESTIMATORS: dict[str, type[LevelEstimator]] = {
    "wear": WearEstimator,
    "harvest": IncomeEstimator,
    "congestion": LoadEstimator,
}

