"""The paper's phase 2: all-pairs shortest paths with successor matrices.

The paper uses "a variation of the Floyd–Warshall algorithm of complexity
O(n^3)" that produces both the distance matrix ``D`` and the *successor*
matrix ``S`` where ``S_ij`` is the next hop of node ``i`` on a shortest
path to node ``j`` (Fig 5).  Ties keep the incumbent successor (the
pseudo-code only replaces on strict improvement), which makes the result
deterministic.

The simulator routes on :mod:`repro.core.trees` instead: the job walk
only asks for next hops toward the nearest duplicate of a module or
toward the sink, which per-module trees answer in O(K * depth).  This
module is the **test oracle** those trees are pinned against
(``tests/property/test_tree_properties.py``):

* :func:`floyd_warshall_successors` — numpy-vectorised over the inner two
  loops;
* :func:`reference_floyd_warshall` — a line-by-line transcription of the
  paper's pseudo-code in pure Python, the semantic reference the
  vectorised version is tested against;
* :func:`equal_cost_successors` and :func:`extract_path` — the ECMP
  group and the path walk over the dense matrices.
"""

from __future__ import annotations

import numpy as np

from ..errors import RoutingError
from .trees import ECMP_COST_TOLERANCE

#: Sentinel for "no successor" (unreachable destination).
NO_SUCCESSOR = -1


def _initial_successors(weights: np.ndarray) -> np.ndarray:
    """``S^(0)``: the edge target where an edge exists, else sentinel."""
    size = weights.shape[0]
    targets = np.broadcast_to(np.arange(size), (size, size))
    successors = np.where(np.isfinite(weights), targets, NO_SUCCESSOR)
    np.fill_diagonal(successors, np.arange(size))
    return successors.astype(np.int64)


def floyd_warshall_successors(
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs weighted shortest paths with successors.

    Args:
        weights: Square matrix; ``inf`` marks non-edges, the diagonal
            must be 0.  Negative weights are rejected (physical lengths
            and battery multipliers are non-negative, and Floyd–Warshall
            successor semantics break on negative cycles).

    Returns:
        ``(D, S)`` where ``D[i, j]`` is the least path weight and
        ``S[i, j]`` the next hop from ``i`` toward ``j``
        (:data:`NO_SUCCESSOR` when unreachable).
    """
    weights = np.asarray(weights, dtype=float)
    size = weights.shape[0]
    if weights.shape != (size, size):
        raise RoutingError(f"weight matrix must be square, got {weights.shape}")
    if size and np.any(np.diagonal(weights) != 0.0):
        raise RoutingError("weight matrix diagonal must be zero")
    finite = weights[np.isfinite(weights)]
    if finite.size and finite.min() < 0:
        raise RoutingError("negative interconnect weights are not allowed")

    distances = weights.copy()
    successors = _initial_successors(weights)
    # Reusable buffers: the k-loop runs K times over K^2 entries, so the
    # per-iteration allocations of the naive np.where formulation cost
    # more than the arithmetic on large fabrics.  Semantics are
    # unchanged: strict `<` replaces, ties keep the incumbent.
    through_k = np.empty_like(distances)
    better = np.empty(distances.shape, dtype=bool)
    successor_col = np.empty(size, dtype=np.int64)
    for k in range(size):
        np.add.outer(distances[:, k], distances[k, :], out=through_k)
        np.less(through_k, distances, out=better)
        if not better.any():
            continue
        np.copyto(distances, through_k, where=better)
        # Snapshot column k before writing: better[:, k] is always False
        # (through_k[:, k] == distances[:, k]), but copyto would other-
        # wise read from the array it is writing.
        successor_col[:] = successors[:, k]
        np.copyto(successors, successor_col[:, None], where=better)
    return distances, successors


def equal_cost_successors(
    weights: np.ndarray,
    distances: np.ndarray,
    successors: np.ndarray,
    source: int,
    destination: int,
) -> list[int]:
    """All next hops of ``source`` on a minimal path to ``destination``.

    The canonical successor matrix keeps a single (deterministic,
    first-found) next hop per pair; this recovers the full equal-cost
    group from the distance matrix.  A neighbour ``k`` qualifies when

    * the edge ``source -> k`` exists (finite weight, ``k != source``),
    * ``D[k, dest] < D[source, dest]`` — strict progress toward the
      destination, which guarantees loop freedom for positive weights
      (every hop decreases the remaining distance, so no cycle), and
    * ``W[source, k] + D[k, dest] <= D[source, dest] * (1 + tol)`` —
      the detour through ``k`` costs no more than the optimum (up to
      :data:`ECMP_COST_TOLERANCE`).

    The canonical successor always satisfies these conditions, so the
    group is never empty for a reachable pair; members are returned in
    ascending node order.  For an unreachable pair (or ``source ==
    destination``) the list is empty.
    """
    if source == destination:
        return []
    optimum = distances[source, destination]
    if not np.isfinite(optimum):
        return []
    edge = weights[source]
    remaining = distances[:, destination]
    candidates = (
        np.isfinite(edge)
        & (remaining < optimum)
        & (edge + remaining <= optimum * (1.0 + ECMP_COST_TOLERANCE))
    )
    candidates[source] = False
    group = [int(k) for k in np.flatnonzero(candidates)]
    canonical = int(successors[source, destination])
    if canonical != NO_SUCCESSOR and canonical not in group:
        # Rounding pushed the recomputed sum past the tolerance; the
        # canonical choice is minimal by construction, so keep it.
        group.append(canonical)
        group.sort()
    return group


def reference_floyd_warshall(
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct transcription of the paper's Fig 5 pseudo-code.

    O(K^3) in pure Python — test/reference use only.
    """
    weights = np.asarray(weights, dtype=float)
    size = weights.shape[0]
    distances = weights.copy()
    successors = _initial_successors(weights)
    for n in range(size):
        for i in range(size):
            for j in range(size):
                through_n = distances[i, n] + distances[n, j]
                # Paper Fig 5: keep S on <=, replace on strict >.
                if distances[i, j] > through_n:
                    distances[i, j] = through_n
                    successors[i, j] = successors[i, n]
    return distances, successors


def extract_path(
    successors: np.ndarray, source: int, destination: int
) -> list[int]:
    """Walk the successor matrix from ``source`` to ``destination``.

    Returns the node sequence including both endpoints.  Raises
    :class:`RoutingError` if the destination is unreachable or the
    successor matrix is corrupt (cycle without reaching the target).
    """
    size = successors.shape[0]
    if not (0 <= source < size and 0 <= destination < size):
        raise RoutingError(
            f"path endpoints ({source}, {destination}) outside 0..{size - 1}"
        )
    path = [source]
    current = source
    # A simple path visits each node at most once: size hops suffice.
    for _ in range(size):
        if current == destination:
            return path
        nxt = int(successors[current, destination])
        if nxt == NO_SUCCESSOR:
            raise RoutingError(
                f"destination {destination} unreachable from {source}"
            )
        path.append(nxt)
        current = nxt
    raise RoutingError(
        f"successor matrix loops walking {source} -> {destination}: {path}"
    )


def path_length(lengths: np.ndarray, path: list[int]) -> float:
    """Sum of physical hop lengths along a node sequence."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        hop = lengths[u, v]
        if not np.isfinite(hop):
            raise RoutingError(f"path uses missing edge {u} -> {v}")
        total += float(hop)
    return total
