"""Connectivity analysis over the set of live nodes.

The paper's system-death condition — "the target system dies when the
critical nodes become dead" (Sec 3) — is a reachability property: a job
at some node must still be able to reach a live duplicate of every module
it has yet to visit.  These helpers compute reachability restricted to
live nodes over each node's surviving lines (the engines pass their
working lengths, whose per-node dicts have no entry for a cut line),
plus articulation points for diagnostic tooling (module-3
nodes of the checkerboard mapping are the fabric's articulation-heavy
relay layer, which is why SDR's concentrated load is so damaging).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable, Sequence

from .mapping import ModuleMapping
from .topology import Topology


def reachable_set(
    neighbors: Sequence[Iterable[int]],
    alive: Collection[int],
    origin: int,
) -> frozenset[int]:
    """All live nodes reachable from ``origin`` through live nodes.

    ``neighbors[n]`` holds the nodes that ``n``'s surviving lines reach.
    ``origin`` itself must be alive to reach anything (a dead node cannot
    relay); the result always contains a live origin.
    """
    alive_set = set(alive)
    if origin not in alive_set:
        return frozenset()
    seen = {origin}
    queue = deque([origin])
    while queue:
        node = queue.popleft()
        for neighbor in neighbors[node]:
            if neighbor in alive_set and neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return frozenset(seen)


def system_is_alive(
    neighbors: Sequence[Iterable[int]],
    alive: Collection[int],
    mapping: ModuleMapping,
    origin: int,
) -> bool:
    """The paper's liveness predicate.

    True while, starting from ``origin`` (the node currently holding the
    job, or the injection point), at least one live duplicate of *every*
    module is reachable through live nodes.
    """
    reachable = reachable_set(neighbors, alive, origin)
    if not reachable:
        return False
    for module in range(1, mapping.num_modules + 1):
        if not any(dup in reachable for dup in mapping.duplicates(module)):
            return False
    return True


def articulation_points(
    topology: Topology, alive: Collection[int] | None = None
) -> frozenset[int]:
    """Articulation points of the undirected live subgraph.

    Uses the classic Hopcroft–Tarjan low-link algorithm, implemented
    iteratively so deep fabrics cannot overflow the recursion limit.
    """
    alive_set = (
        set(range(topology.num_nodes)) if alive is None else set(alive)
    )
    # Build an undirected adjacency restricted to live nodes.
    neighbors: dict[int, list[int]] = {n: [] for n in alive_set}
    for u in alive_set:
        for v in topology.neighbors(u):
            if v in alive_set and topology.has_edge(u, v):
                neighbors[u].append(v)

    index = {}
    low = {}
    parent: dict[int, int | None] = {}
    result: set[int] = set()
    counter = 0

    for root in sorted(alive_set):
        if root in index:
            continue
        parent[root] = None
        stack: list[tuple[int, int]] = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        root_children = 0
        while stack:
            node, edge_pos = stack[-1]
            if edge_pos < len(neighbors[node]):
                stack[-1] = (node, edge_pos + 1)
                child = neighbors[node][edge_pos]
                if child == parent[node]:
                    continue
                if child in index:
                    low[node] = min(low[node], index[child])
                else:
                    parent[child] = node
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append((child, 0))
                    if node == root:
                        root_children += 1
            else:
                stack.pop()
                if stack:
                    above = stack[-1][0]
                    low[above] = min(low[above], low[node])
                    if above != root and low[node] >= index[above]:
                        result.add(above)
        if root_children > 1:
            result.add(root)
    return frozenset(result)
