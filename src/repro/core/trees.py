"""Phase 2 of EAR/SDR: per-module shortest-path trees.

The job walk only ever asks for the next hop from a node toward the
nearest live duplicate of a module, or toward the source block — the
paper's per-node routing table ``RT(i)`` (Fig 6).  So instead of the
all-pairs K x K distance and successor matrices of Fig 5, phase 2
grows ``p + 1`` multi-source shortest-path trees at once: column ``i``
is rooted at every live duplicate of module ``i``, and column 0 at the
sink (the source block) when the view has one.  A run that does not
return ciphertexts to the source gives its views no sink, so column 0
has no root and stays unreachable; the passes then stop once the
module trees settle instead of waiting for the single-rooted sink tree.

The kernel is a vectorised Bellman–Ford over a ``(K, p + 1)`` distance
block, relaxed through a padded ``(K, max degree)`` neighbour table
until a pass changes nothing; e-textile meshes have degree <= 5, so a
pass is a few array operations and the whole tree costs O(K * depth)
instead of Floyd–Warshall's O(K^3).  Its input is phase 1's weight per
neighbour-table slot, a ``(K, max degree)`` array laid out like the
table (:func:`line_slots` builds the table and its line lengths once
from the fabric; a cut line is an ``inf`` slot, never a missing one).

Alongside each distance the kernel carries a *label*: the lowest node id
among the nearest targets.  Labels propagate along exactly tight edges
(``W[n, h] + D[h, c] == D[n, c]`` in float arithmetic; like Fig 5's
strict ``<``, a route one ulp longer does not tie), which reproduces
phase 3's "least distance, lowest id" duplicate choice without
materialising per-duplicate distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RoutingError

#: Relative tolerance for "equal cost" when collecting ECMP groups.
#: Exact equality would make group membership depend on summation
#: order; one part in 10^9 is far below any physically meaningful
#: weight difference.  The canonical hop never uses it: Fig 6's
#: tie-break is exact.
ECMP_COST_TOLERANCE = 1e-9


def line_slots(topology) -> tuple[np.ndarray, np.ndarray]:
    """The fabric's padded neighbour table and the length behind each slot.

    Row ``n`` of the ``(K, M)`` table lists ``n``'s out-neighbours in
    ascending id order (so "first qualifying slot" means "lowest id"),
    followed by the padding value ``K``, which indexes the sentinel row
    the kernel appends to its blocks; ``M`` is the largest degree, and
    at least 1 so an isolated fabric still relaxes cleanly.  The second
    array holds the line length behind every slot, ``inf`` on padding:
    exactly the directed interconnects phase 1 weighs.
    """
    size = topology.num_nodes
    # Node ids are exact in float64, so one array holds every triple.
    edges = np.array(topology.edges(), dtype=float).reshape(-1, 3)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    tails = edges[:, 0].astype(np.int64)
    degree = np.bincount(tails, minlength=size)
    slots = np.arange(tails.size) - np.repeat(np.cumsum(degree) - degree, degree)
    width = max(1, int(degree.max(initial=0)))
    neighbors = np.full((size, width), size)
    neighbors[tails, slots] = edges[:, 1].astype(np.int64)
    lengths = np.full((size, width), np.inf)
    lengths[tails, slots] = edges[:, 2]
    return neighbors, lengths


def slot_of(neighbors: np.ndarray, u: int, v: int) -> int:
    """Column of the ``u -> v`` line in row ``u`` of a neighbour table.

    A row holds at most the largest degree, so a list search beats a
    numpy comparison here.
    """
    return neighbors[u].tolist().index(v)


@dataclass(frozen=True)
class ShortestPathTrees:
    """Phase 2's output: one shortest-path tree per block column.

    Per-neighbour arrays are slot-major, ``(M, K, C)``: entry
    ``[j, n, c]`` concerns node ``n``'s ``j``-th neighbour slot.

    Attributes:
        neighbors: ``(K, M)`` neighbour table (:func:`line_slots`).
        distances: ``(K, C)`` least weight from each node to the nearest
            target of column ``c`` (``inf`` when unreachable).
        labels: ``(K, C)`` lowest id among those nearest targets
            (``K`` when unreachable).
        ahead: ``(M, K, C)`` distance at the neighbour.
        ahead_labels: ``(M, K, C)`` label at the neighbour.
        through: ``(M, K, C)`` ``W[n, h] + D[h, c]``, the exact float
            sums the kernel compared (``inf`` on padding and missing
            edges).
        canonical: ``(M, K, C)`` slots on an exactly tight edge
            (``through == D[n, c]``, finite) whose neighbour carries the
            node's label: the hops that lead to the node's own nearest
            target.
    """

    neighbors: np.ndarray
    distances: np.ndarray
    labels: np.ndarray
    ahead: np.ndarray
    ahead_labels: np.ndarray
    through: np.ndarray
    canonical: np.ndarray


def shortest_path_trees(
    edge_weights: np.ndarray,
    neighbors: np.ndarray,
    targets: np.ndarray,
) -> ShortestPathTrees:
    """Multi-source shortest-path trees toward each column's targets.

    Args:
        edge_weights: ``(K, M)`` phase 1 weights, entry ``[n, j]`` on
            the interconnect from ``n`` to ``neighbors[n, j]`` (``inf``
            for severed lines and padding, non-negative elsewhere).
        neighbors: ``(K, M)`` table from :func:`line_slots`; an edge
            it omits, or weighs ``inf``, is never relaxed.
        targets: ``(K, C)`` boolean mask; column ``c``'s tree is rooted
            at every node marked in it.

    Returns:
        The converged :class:`ShortestPathTrees`.
    """
    edge_weights = np.asarray(edge_weights, dtype=float)
    size, columns = targets.shape
    if neighbors.shape[0] != size or edge_weights.shape != neighbors.shape:
        raise RoutingError(
            f"edge weights {edge_weights.shape}, neighbours "
            f"{neighbors.shape} and targets {targets.shape} disagree"
        )
    slots = np.ascontiguousarray(neighbors.T)
    edges = np.ascontiguousarray(edge_weights.T)
    if np.any(edges < 0):
        raise RoutingError("negative interconnect weights are not allowed")

    # Each block entry packs a distance and its label as D + 1j * label.
    # numpy orders complex numbers lexicographically, so one `min` picks
    # the least distance and, among exactly equal distances, the lowest
    # label, and adding a real edge weight leaves the label untouched.
    # Every unreachable entry is exactly `nowhere` (inf, label K): a
    # missing edge steps by inf + inf*1j, so it can never hand a label
    # to a node it does not reach — labels swapping across such edges
    # between unreachable nodes would keep the passes from settling.
    # The row past the end (index K, the neighbour table's padding) is
    # an unreachable sentinel.
    nowhere = complex(np.inf, size)
    roots = np.where(targets, 1j * np.arange(size)[:, None], nowhere)
    block = np.full((size + 1, columns), nowhere)
    tree = block[:size]
    tree[...] = roots
    steps = np.repeat(
        np.where(np.isfinite(edges), edges, complex(np.inf, np.inf))[
            :, :, None
        ],
        columns,
        axis=2,
    )
    ahead = np.empty(steps.shape, dtype=complex)
    through = np.empty_like(ahead)
    best = np.empty_like(roots)
    # Synchronous Bellman–Ford: distances only ever decrease and settle
    # within K passes, labels then follow the tight DAG within K more,
    # so the first pass that changes nothing is the fixed point.  The
    # values are never NaN or negative zero, so comparing the raw bytes
    # is value equality, and much cheaper than an array comparison on
    # these small blocks.
    for _ in range(2 * size + 2):
        np.take(block, slots, axis=0, out=ahead, mode="clip")
        np.add(steps, ahead, out=through)
        np.minimum.reduce(through, axis=0, out=best)
        np.minimum(best, roots, out=best)
        if best.tobytes() == tree.tobytes():
            break
        tree[...] = best
    else:
        raise RoutingError("shortest-path trees did not converge")
    distances = tree.real.copy()
    reachable = np.isfinite(distances)
    return ShortestPathTrees(
        neighbors=neighbors,
        distances=distances,
        labels=np.where(reachable, tree.imag, size).astype(np.int64),
        ahead=ahead.real.copy(),
        ahead_labels=ahead.imag.astype(np.int64),
        through=through.real.copy(),
        canonical=(through == tree) & reachable,
    )
