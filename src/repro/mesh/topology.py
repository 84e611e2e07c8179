"""Graph representation of the e-textile communication network.

A :class:`Topology` is a directed graph whose edges carry physical line
lengths in centimetres, read-only once a run is built from it.  The
routing engines consume the neighbour table
:func:`~repro.core.trees.line_slots` builds once from its adjacency;
the simulator copies its lines into per-node working lengths, the
record that fault injection edits.  The paper's
default platform is a 2-D mesh (Sec 5.2) built by :func:`mesh2d`;
arbitrary fabrics (e.g. the smart-shirt block diagram of Fig 3a) can be
assembled edge by edge.
"""

from __future__ import annotations

from ..errors import TopologyError
from ..units import require_positive
from .geometry import node_coordinates, node_id

#: Default physical distance between adjacent mesh nodes, in cm.  The
#: value is derived from the paper's Table 2 (see DESIGN.md): the implied
#: per-hop packet energy of ~116.7 pJ corresponds to a 128-bit packet
#: over a ~2.045 cm textile line.
DEFAULT_LINK_PITCH_CM = 2.045


class Topology:
    """Directed graph with per-edge physical lengths.

    Nodes are dense integers ``0 .. num_nodes-1``.  Most fabrics are
    symmetric; :meth:`add_edge` therefore adds both directions by
    default, but asymmetric links (e.g. a one-way sensor feed) are
    supported.
    """

    def __init__(self, num_nodes: int, name: str = "custom"):
        if num_nodes < 1:
            raise TopologyError(f"topology needs >= 1 node, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._name = name
        self._adjacency: list[dict[int, float]] = [
            {} for _ in range(self._num_nodes)
        ]
        #: Optional physical positions (x, y) per node, used for display
        #: and for mesh coordinate lookups.
        self.positions: dict[int, tuple[float, float]] = {}
        #: For meshes: the width, kept so coordinates can be recovered.
        self.mesh_width: int | None = None
        self.mesh_height: int | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self) -> int:
        """Append one node and return its id."""
        self._adjacency.append({})
        self._num_nodes += 1
        return self._num_nodes - 1

    def add_edge(
        self,
        u: int,
        v: int,
        length_cm: float,
        bidirectional: bool = True,
    ) -> None:
        """Connect ``u -> v`` with a textile line of ``length_cm``."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError(f"self-loop on node {u} is not allowed")
        require_positive("length_cm", length_cm)
        self._adjacency[u][v] = float(length_cm)
        if bidirectional:
            self._adjacency[v][u] = float(length_cm)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def nodes(self) -> range:
        return range(self._num_nodes)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Successor nodes of ``u`` (targets of out-edges)."""
        self._check_node(u)
        return tuple(self._adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._adjacency[u]

    def edge_length(self, u: int, v: int) -> float:
        """Physical length in cm of the ``u -> v`` line."""
        if not self.has_edge(u, v):
            raise TopologyError(f"no edge {u} -> {v} in topology {self._name!r}")
        return self._adjacency[u][v]

    def edges(self) -> list[tuple[int, int, float]]:
        """All directed edges as ``(u, v, length_cm)`` triples."""
        return [
            (u, v, length)
            for u in self.nodes
            for v, length in self._adjacency[u].items()
        ]

    def num_undirected_edges(self) -> int:
        """Number of node pairs connected in at least one direction."""
        pairs = {frozenset((u, v)) for u, v, _ in self.edges()}
        return len(pairs)

    def coordinates(self, node: int) -> tuple[int, int]:
        """Paper-style 1-based mesh coordinates of ``node``.

        Only available on mesh topologies built by :func:`mesh2d`.
        """
        if self.mesh_width is None:
            raise TopologyError(
                f"topology {self._name!r} has no mesh coordinate system"
            )
        self._check_node(node)
        return node_coordinates(node, self.mesh_width)

    def node_position(self, node: int) -> tuple[float, float] | None:
        """Physical position of ``node``, or None when unknown.

        Explicit :attr:`positions` win; mesh topologies fall back to
        their coordinate system, arbitrary fabrics without positions
        return None (geometric fault correlation degrades gracefully to
        single-link events there).
        """
        self._check_node(node)
        if node in self.positions:
            return self.positions[node]
        if self.mesh_width is not None:
            x, y = node_coordinates(node, self.mesh_width)
            return (float(x), float(y))
        return None

    def edge_midpoint(self, u: int, v: int) -> tuple[float, float] | None:
        """Geometric midpoint of the ``u - v`` line, or None when either
        endpoint has no known position.  The spatially correlated fault
        profiles (tear, moisture) measure link-to-link distance between
        these midpoints."""
        pu = self.node_position(u)
        pv = self.node_position(v)
        if pu is None or pv is None:
            return None
        return ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise TopologyError(
                f"node {node} outside topology {self._name!r} "
                f"({self._num_nodes} nodes)"
            )

    def __repr__(self) -> str:
        return (
            f"Topology(name={self._name!r}, nodes={self._num_nodes}, "
            f"edges={self.num_undirected_edges()})"
        )


def mesh2d(
    width: int,
    height: int | None = None,
    link_pitch_cm: float = DEFAULT_LINK_PITCH_CM,
) -> Topology:
    """Build the paper's 2-D mesh network.

    Args:
        width: Nodes per row.
        height: Nodes per column (defaults to ``width``, i.e. square).
        link_pitch_cm: Physical length of each neighbour-to-neighbour
            textile line.

    Returns:
        A :class:`Topology` whose node ids follow :func:`node_id` and
        which carries mesh coordinate metadata.
    """
    if height is None:
        height = width
    if width < 1 or height < 1:
        raise TopologyError(f"mesh must be at least 1x1, got {width}x{height}")
    require_positive("link_pitch_cm", link_pitch_cm)

    topo = Topology(width * height, name=f"mesh{width}x{height}")
    topo.mesh_width = width
    topo.mesh_height = height
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            node = node_id(x, y, width)
            topo.positions[node] = (float(x), float(y))
            if x < width:
                topo.add_edge(node, node_id(x + 1, y, width), link_pitch_cm)
            if y < height:
                topo.add_edge(node, node_id(x, y + 1, width), link_pitch_cm)
    return topo


def attach_external_node(
    topology: Topology,
    attach_to: int,
    link_length_cm: float,
) -> int:
    """Attach an external block (e.g. the smart shirt's sensor/actuator,
    Fig 3a) to an existing node via a dedicated textile line.

    Returns the id of the newly created external node.
    """
    new_node = topology.add_node()
    topology.add_edge(new_node, attach_to, link_length_cm)
    if topology.positions and attach_to in topology.positions:
        x, y = topology.positions[attach_to]
        topology.positions[new_node] = (x - 1.0, y - 1.0)
    return new_node
