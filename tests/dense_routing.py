"""The dense routing path: the oracles the package is pinned against.

The package routes on ``(K, M)`` edge arrays laid out like the
neighbour table (:mod:`repro.core.costs`, :mod:`repro.core.trees`).
This module keeps the paper's formulation over dense ``K x K``
matrices, so the property suites can compare the two on random views:

* phase 1 — :func:`sdr_weight_matrix` and :func:`ear_weight_matrix`,
  the masked length matrix and its receiver-column battery scale
  (paper Sec 6), with 0 on the diagonal and ``inf`` for non-edges;
* phase 2 — the paper's all-pairs Floyd–Warshall with successor
  matrices (Fig 5): :func:`floyd_warshall_successors`, numpy-vectorised
  over the inner two loops, and :func:`reference_floyd_warshall`, a
  line-by-line transcription of the pseudo-code in pure Python that the
  vectorised version is tested against.  Ties keep the incumbent
  successor (the pseudo-code only replaces on strict improvement), which
  makes the result deterministic;
* :func:`equal_cost_successors` and :func:`extract_path` — the ECMP
  group and the path walk over the dense matrices;
* phase 3 — :func:`reference_select_destinations`, the literal
  per-(node, duplicate) Fig 6 walk.

:func:`at_slots` gathers a dense matrix at a neighbour table's slots,
the layout the package weighs and routes on, and :func:`dense_of`
scatters an edge array back into a matrix.
"""

from __future__ import annotations

import numpy as np

from repro.core.phase3 import NO_DESTINATION
from repro.core.trees import ECMP_COST_TOLERANCE
from repro.core.view import NetworkView
from repro.core.weights import BatteryWeightFunction
from repro.errors import ConfigurationError, RoutingError


# ----------------------------------------------------------------------
# Dense matrices and the neighbour-table layout
# ----------------------------------------------------------------------
def at_slots(matrix: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """``matrix[n, neighbors[n, j]]`` per slot, ``inf`` on padding."""
    size = matrix.shape[0]
    edges = np.full(neighbors.shape, np.inf)
    for node in range(size):
        for slot, neighbor in enumerate(neighbors[node]):
            if neighbor < size:
                edges[node, slot] = matrix[node, neighbor]
    return edges


def dense_of(edge_weights: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """The ``K x K`` matrix of an edge array: 0 on the diagonal, ``inf``
    between nodes the neighbour table does not link."""
    size = neighbors.shape[0]
    matrix = np.full((size, size), np.inf)
    np.fill_diagonal(matrix, 0.0)
    for node in range(size):
        for slot, neighbor in enumerate(neighbors[node]):
            if neighbor < size:
                matrix[node, neighbor] = edge_weights[node, slot]
    return matrix


# ----------------------------------------------------------------------
# Phase 1 over dense matrices
# ----------------------------------------------------------------------
def scale_weights(weights: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Scale a weight matrix elementwise and re-zero the diagonal.

    ``multipliers`` is either a dense per-link ``(K, K)`` matrix or a
    ``(1, K)`` row that scales column ``j`` — the receiving endpoint.
    ``inf`` entries stay ``inf`` (``inf * x == inf`` for positive
    multipliers) and the diagonal is re-zeroed, so the Floyd–Warshall
    conventions survive.  Returns a new matrix; the input is unchanged.
    """
    weights = weights * multipliers
    np.fill_diagonal(weights, 0.0)
    return weights


def _masked_lengths(view: NetworkView) -> np.ndarray:
    """Length matrix with rows/columns of dead nodes removed (set inf).

    A dead node can neither originate, relay, nor receive packets, so
    every interconnect touching it disappears from the graph.  Diagonal
    stays 0 (the Floyd–Warshall convention W_ii = 0).
    """
    weights = np.array(view.lengths, dtype=float, copy=True)
    dead = ~view.alive
    weights[dead, :] = np.inf
    weights[:, dead] = np.inf
    np.fill_diagonal(weights, 0.0)
    return weights


def sdr_weight_matrix(view: NetworkView) -> np.ndarray:
    """``W^(SDR)``: pure line lengths over the live subgraph."""
    return _masked_lengths(view)


def battery_scale(
    weights: np.ndarray,
    view: NetworkView,
    weight_function: BatteryWeightFunction,
) -> np.ndarray:
    """Scale column ``j`` (the receiving endpoint) by ``f(N_B(j))``."""
    if weight_function.levels != view.levels:
        raise ConfigurationError(
            f"weight function expects {weight_function.levels} levels but "
            f"the view reports {view.levels}"
        )
    multipliers = weight_function.table()[view.battery_levels]
    return scale_weights(weights, multipliers[np.newaxis, :])


def ear_weight_matrix(
    view: NetworkView, weight_function: BatteryWeightFunction
) -> np.ndarray:
    """``W^(EAR)``: lengths scaled by the receiver's battery weight."""
    return battery_scale(_masked_lengths(view), view, weight_function)


# ----------------------------------------------------------------------
# Phase 2: all-pairs Floyd–Warshall (paper Fig 5)
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Phase 3: the literal Fig 6 walk
# ----------------------------------------------------------------------
def reference_select_destinations(
    view: NetworkView,
    distances: np.ndarray,
    successors: np.ndarray,
) -> np.ndarray:
    """Literal per-(node, duplicate) transcription of the Fig 6 walk.

    Reads the dense Floyd–Warshall matrices above.  O(K * |S_i|) in pure
    Python — the oracle :func:`repro.core.phase3.select_destinations` is
    pinned against.
    """
    mapping = view.mapping
    size = view.num_nodes
    destinations = np.full(
        (size, mapping.num_modules + 1), NO_DESTINATION, dtype=np.int64
    )
    blocked = view.blocked_ports
    for module in range(1, mapping.num_modules + 1):
        candidates = [
            dup for dup in mapping.duplicates(module) if view.alive[dup]
        ]
        if not candidates:
            continue
        for node in range(size):
            if not view.alive[node]:
                continue
            best_dest = NO_DESTINATION
            best_dist = np.inf
            for dup in candidates:
                dist = distances[node, dup]
                if not np.isfinite(dist):
                    continue
                if node != dup:
                    first_hop = int(successors[node, dup])
                    if first_hop == NO_SUCCESSOR:
                        continue
                    if (node, first_hop) in blocked:
                        continue
                if dist < best_dist:
                    best_dist = dist
                    best_dest = dup
            destinations[node, module] = best_dest
    return destinations
