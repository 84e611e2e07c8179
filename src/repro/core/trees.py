"""Phase 2 of EAR/SDR: per-module shortest-path trees.

The job walk only ever asks for the next hop from a node toward the
nearest live duplicate of a module, or toward the source block — the
paper's per-node routing table ``RT(i)`` (Fig 6).  So instead of the
all-pairs K x K distance and successor matrices of Fig 5, phase 2
grows ``p + 1`` multi-source shortest-path trees at once: column 0 is
rooted at the sink (the source block), column ``i`` at every live
duplicate of module ``i``.

The kernel is a vectorised Bellman–Ford over a ``(K, p + 1)`` distance
block, relaxed through a padded ``(K, max degree)`` neighbour table
until a pass changes nothing; e-textile meshes have degree <= 5, so a
pass is a few array operations and the whole tree costs O(K * depth)
instead of Floyd–Warshall's O(K^3).  Its input is phase 1's weight per
neighbour-table slot, a ``(K, max degree)`` array laid out like the
table (:func:`edge_lengths` gathers the line lengths the same way).

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


def neighbor_table(lengths: np.ndarray) -> np.ndarray:
    """Out-neighbours of every node, padded to the maximum degree.

    Row ``n`` lists the nodes ``h != n`` with a finite ``lengths[n, h]``
    in ascending id order (so "first qualifying slot" means "lowest
    id"), followed by the padding value ``K``, which indexes the
    sentinel row the kernel appends to its blocks.  The table has at
    least one column so an isolated fabric still relaxes cleanly.
    """
    lengths = np.asarray(lengths, dtype=float)
    size = lengths.shape[0]
    linked = np.isfinite(lengths)
    np.fill_diagonal(linked, False)
    degree = linked.sum(axis=1)
    table = np.full((size, max(1, int(degree.max(initial=0)))), size)
    rows, cols = np.nonzero(linked)
    starts = np.cumsum(degree) - degree
    table[rows, np.arange(rows.size) - np.repeat(starts, degree)] = cols
    return table


def edge_lengths(lengths: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Line length behind every slot of a neighbour table.

    Entry ``[n, j]`` is ``lengths[n, neighbors[n, j]]``, and ``inf`` on
    the padding slots, so the ``(K, M)`` array holds exactly the
    directed interconnects phase 1 weighs.
    """
    size = lengths.shape[0]
    padded = neighbors == size
    edges = lengths[np.arange(size)[:, None], np.where(padded, 0, neighbors)]
    edges[padded] = np.inf
    return edges


@dataclass(frozen=True)
class ShortestPathTrees:
    """Phase 2's output: one shortest-path tree per block column.

    Per-neighbour arrays are slot-major, ``(M, K, C)``: entry
    ``[j, n, c]`` concerns node ``n``'s ``j``-th neighbour slot.

    Attributes:
        neighbors: ``(K, M)`` neighbour table (:func:`neighbor_table`).
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
        neighbors: ``(K, M)`` table from :func:`neighbor_table`; an
            edge it omits is never relaxed.
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
