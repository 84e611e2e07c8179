"""Unit tests for topology, geometry, mapping and connectivity."""

import numpy as np
import pytest

from repro.core.trees import line_slots
from repro.errors import MappingError, TopologyError
from repro.mesh.connectivity import (
    articulation_points,
    reachable_set,
    system_is_alive,
)
from repro.mesh.geometry import (
    manhattan_distance,
    node_coordinates,
    node_id,
    parity,
)
from repro.mesh.mapping import (
    ModuleMapping,
    checkerboard_mapping,
    harvest_proportional_mapping,
    proportional_mapping,
    uniform_mapping,
)
from repro.mesh.topology import (
    DEFAULT_LINK_PITCH_CM,
    Topology,
    attach_external_node,
    mesh2d,
)


class TestGeometry:
    def test_node_id_round_trip(self):
        for width in (2, 4, 7):
            for y in range(1, 4):
                for x in range(1, width + 1):
                    node = node_id(x, y, width)
                    assert node_coordinates(node, width) == (x, y)

    def test_row_major_order(self):
        assert node_id(1, 1, 4) == 0
        assert node_id(4, 1, 4) == 3
        assert node_id(1, 2, 4) == 4

    def test_out_of_range_rejected(self):
        with pytest.raises(TopologyError):
            node_id(5, 1, 4)
        with pytest.raises(TopologyError):
            node_id(0, 1, 4)

    def test_manhattan_distance(self):
        assert manhattan_distance((1, 1), (4, 4)) == 6
        assert manhattan_distance((2, 3), (2, 3)) == 0

    def test_parity(self):
        assert parity(1) == 1 and parity(2) == 0


class TestMesh2d:
    def test_node_and_edge_counts(self):
        topo = mesh2d(4)
        assert topo.num_nodes == 16
        assert topo.num_undirected_edges() == 2 * 4 * 3  # 24 for 4x4

    def test_rectangular_mesh(self):
        topo = mesh2d(3, 5)
        assert topo.num_nodes == 15
        assert topo.mesh_width == 3 and topo.mesh_height == 5

    def test_neighbor_structure(self):
        topo = mesh2d(4)
        corner = node_id(1, 1, 4)
        assert len(topo.neighbors(corner)) == 2
        center = node_id(2, 2, 4)
        assert len(topo.neighbors(center)) == 4

    def test_edge_lengths_are_the_pitch(self):
        topo = mesh2d(4, link_pitch_cm=3.0)
        assert topo.edge_length(0, 1) == 3.0

    def test_length_matrix_conventions(self):
        # The slot builder's conventions: one row per node, neighbours
        # in ascending id order, then the padding value K behind an
        # inf length; the width is the largest degree.
        neighbors, lengths = line_slots(mesh2d(3))
        assert neighbors.shape == lengths.shape == (9, 4)
        assert neighbors[0].tolist() == [1, 3, 9, 9]  # a corner
        assert neighbors[4].tolist() == [1, 3, 5, 7]  # the centre
        assert not (neighbors == np.arange(9)[:, None]).any()
        assert np.isinf(lengths[neighbors == 9]).all()
        assert np.all(lengths[neighbors < 9] == DEFAULT_LINK_PITCH_CM)
        # A fabric without lines still has one (padding) column.
        assert line_slots(Topology(3))[0].tolist() == [[3], [3], [3]]

    def test_coordinates_require_mesh(self):
        topo = Topology(3)
        with pytest.raises(TopologyError):
            topo.coordinates(0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(TopologyError):
            mesh2d(0)


class TestTopologyEdits:
    def test_add_edge_validation(self):
        topo = Topology(3)
        with pytest.raises(TopologyError):
            topo.add_edge(0, 0, 1.0)  # self loop
        with pytest.raises(TopologyError):
            topo.add_edge(0, 5, 1.0)  # unknown node

    def test_directed_edge(self):
        topo = Topology(2)
        topo.add_edge(0, 1, 1.0, bidirectional=False)
        assert topo.has_edge(0, 1)
        assert not topo.has_edge(1, 0)

    def test_attach_external_node(self):
        topo = mesh2d(4)
        external = attach_external_node(topo, 0, 10.0)
        assert external == 16
        assert topo.has_edge(external, 0)
        assert topo.edge_length(external, 0) == 10.0


class TestGeometryLookups:
    def test_mesh_node_position_from_coordinates(self):
        topo = mesh2d(4)
        assert topo.node_position(0) == (1.0, 1.0)
        assert topo.node_position(5) == (2.0, 2.0)

    def test_edge_midpoint_on_mesh(self):
        topo = mesh2d(4)
        assert topo.edge_midpoint(0, 1) == (1.5, 1.0)
        assert topo.edge_midpoint(0, 4) == (1.0, 1.5)

    def test_position_unknown_without_geometry(self):
        topo = Topology(3)
        topo.add_edge(0, 1, 1.0)
        assert topo.node_position(0) is None
        assert topo.edge_midpoint(0, 1) is None

    def test_explicit_positions_win(self):
        topo = Topology(2)
        topo.add_edge(0, 1, 1.0)
        topo.positions[0] = (0.0, 0.0)
        topo.positions[1] = (2.0, 2.0)
        assert topo.edge_midpoint(0, 1) == (1.0, 1.0)


class TestCheckerboardMapping:
    def test_paper_rule_on_4x4(self, mesh4):
        mapping = checkerboard_mapping(mesh4)
        # Paper Sec 5.2: module 1 on odd/odd, module 2 on even/even,
        # module 3 elsewhere.
        assert mapping.module_of(node_id(1, 1, 4)) == 1
        assert mapping.module_of(node_id(3, 3, 4)) == 1
        assert mapping.module_of(node_id(2, 2, 4)) == 2
        assert mapping.module_of(node_id(4, 4, 4)) == 2
        assert mapping.module_of(node_id(2, 1, 4)) == 3
        assert mapping.module_of(node_id(1, 2, 4)) == 3

    def test_counts_on_4x4(self, mapping4):
        assert mapping4.duplicate_counts() == {1: 4, 2: 4, 3: 8}

    def test_module3_has_most_duplicates_every_size(self):
        # Theorem 1: module 3 has the highest H_i, hence most duplicates.
        for width in (4, 5, 6, 7, 8):
            mapping = checkerboard_mapping(mesh2d(width))
            counts = mapping.duplicate_counts()
            assert counts[3] == max(counts.values())

    def test_requires_mesh_topology(self):
        with pytest.raises(MappingError):
            checkerboard_mapping(Topology(4))

    def test_restricted_node_set(self):
        topo = mesh2d(4)
        attach_external_node(topo, 0, 10.0)
        mapping = checkerboard_mapping(topo, nodes=range(16))
        assert mapping.module_of(16) is None


class TestProportionalMapping:
    def test_counts_follow_theorem1(self):
        topo = mesh2d(4)
        energies = {1: 2367.9, 2: 1710.3, 3: 3225.7}
        mapping = proportional_mapping(topo, energies)
        counts = mapping.duplicate_counts()
        assert sum(counts.values()) == 16
        # Theorem-1 reals are (5.19, 3.75, 7.07); integer allocation
        # must round to (5, 4, 7).
        assert counts == {1: 5, 2: 4, 3: 7}

    def test_every_module_present(self):
        topo = mesh2d(3)
        mapping = proportional_mapping(topo, {1: 1.0, 2: 1000.0, 3: 1.0})
        counts = mapping.duplicate_counts()
        assert all(counts[m] >= 1 for m in (1, 2, 3))

    def test_too_few_nodes_rejected(self):
        topo = Topology(2)
        with pytest.raises(MappingError):
            proportional_mapping(topo, {1: 1.0, 2: 1.0, 3: 1.0})


class TestUniformMapping:
    def test_balanced_counts(self):
        mapping = uniform_mapping(mesh2d(3), num_modules=3)
        assert mapping.duplicate_counts() == {1: 3, 2: 3, 3: 3}


class TestHarvestProportionalMapping:
    ENERGIES = {1: 2367.9, 2: 1710.3, 3: 3225.7}

    def test_zero_income_equals_proportional(self):
        topo = mesh2d(4)
        aware = harvest_proportional_mapping(
            topo, self.ENERGIES, [0.0] * 16
        )
        assert aware == proportional_mapping(topo, self.ENERGIES)

    def test_income_moves_placement(self):
        topo = mesh2d(4)
        income = [30.0 if node % 4 == 0 else 0.0 for node in range(16)]
        aware = harvest_proportional_mapping(topo, self.ENERGIES, income)
        assert aware != proportional_mapping(topo, self.ENERGIES)
        counts = aware.duplicate_counts()
        assert sum(counts.values()) == 16
        assert all(count >= 1 for count in counts.values())

    def test_rejects_bad_bias(self):
        with pytest.raises(MappingError):
            harvest_proportional_mapping(
                mesh2d(4), self.ENERGIES, [0.0] * 16, income_bias=1.5
            )

    def test_accepts_mapping_style_income(self):
        topo = mesh2d(3)
        income = {node: float(node) for node in range(9)}
        mapping = harvest_proportional_mapping(topo, self.ENERGIES, income)
        assert sum(mapping.duplicate_counts().values()) == 9


class TestMappingErrorMessages:
    """The missing-module message names the modules and says why it is
    fatal; each strategy's failure mode surfaces an explicit message."""

    def test_missing_module_message_names_the_modules(self):
        with pytest.raises(
            MappingError,
            match=r"modules \[2\] are not instantiated on any node",
        ):
            ModuleMapping({0: 1, 1: 1}, num_modules=2)

    def test_checkerboard_subset_missing_a_parity_class(self):
        # Only odd/odd and even/even nodes selected: module 3 (mixed
        # parity) is never instantiated.
        topo = mesh2d(4)
        nodes = [node_id(1, 1, 4), node_id(2, 2, 4)]
        with pytest.raises(
            MappingError,
            match=r"modules \[3\] are not instantiated on any node; "
            r"every module needs at least one duplicate",
        ):
            checkerboard_mapping(topo, nodes)

    def test_proportional_too_few_nodes_message(self):
        with pytest.raises(
            MappingError,
            match=r"cannot allocate 2 nodes to 3 modules",
        ):
            proportional_mapping(
                Topology(2), {1: 1.0, 2: 1.0, 3: 1.0}
            )

    def test_uniform_too_few_nodes_message(self):
        with pytest.raises(
            MappingError, match=r"2 nodes cannot host 3 modules"
        ):
            uniform_mapping(Topology(2), num_modules=3)


class TestModuleMapping:
    def test_missing_module_rejected(self):
        with pytest.raises(MappingError):
            ModuleMapping({0: 1, 1: 1}, num_modules=2)

    def test_bad_module_id_rejected(self):
        with pytest.raises(MappingError):
            ModuleMapping({0: 0}, num_modules=1)

    def test_duplicates_sorted(self):
        mapping = ModuleMapping({3: 1, 1: 1, 2: 2}, num_modules=2)
        assert mapping.duplicates(1) == (1, 3)

    def test_equality(self):
        a = ModuleMapping({0: 1, 1: 2}, num_modules=2)
        b = ModuleMapping({0: 1, 1: 2}, num_modules=2)
        assert a == b


def surviving(topology: Topology) -> list[tuple[int, ...]]:
    """Every node's neighbours over a fabric with no line cut."""
    return [topology.neighbors(node) for node in topology.nodes]


class TestConnectivity:
    def test_reachable_set_full_mesh(self, mesh4):
        reachable = reachable_set(surviving(mesh4), range(16), 0)
        assert reachable == frozenset(range(16))

    def test_dead_origin_reaches_nothing(self, mesh4):
        assert reachable_set(surviving(mesh4), range(1, 16), 0) == frozenset()

    def test_dead_wall_partitions(self):
        topo = mesh2d(4)
        # Kill the entire second column (x=2): left column isolated.
        dead = {node_id(2, y, 4) for y in range(1, 5)}
        alive = set(range(16)) - dead
        reachable = reachable_set(surviving(topo), alive, node_id(1, 1, 4))
        assert reachable == {node_id(1, y, 4) for y in range(1, 5)}

    def test_a_missing_neighbour_is_a_cut_line(self, mesh4, mapping4):
        # Cut both lines of corner (1,1): every node lives, and the
        # corner reaches only itself.
        corner = node_id(1, 1, 4)
        neighbors = [
            tuple(n for n in row if corner not in (node, n))
            for node, row in enumerate(surviving(mesh4))
        ]
        assert reachable_set(neighbors, range(16), corner) == {corner}
        assert not system_is_alive(neighbors, range(16), mapping4, corner)

    def test_system_alive_full(self, mesh4, mapping4):
        assert system_is_alive(surviving(mesh4), range(16), mapping4, 0)

    def test_system_dies_when_module_exhausted(self, mesh4, mapping4):
        alive = set(range(16)) - set(mapping4.duplicates(2))
        assert not system_is_alive(surviving(mesh4), alive, mapping4, 0)

    def test_system_dies_when_partitioned_from_module(self, mesh4, mapping4):
        # Kill the two neighbours of corner (1,1): the corner is cut off.
        dead = {node_id(2, 1, 4), node_id(1, 2, 4)}
        alive = set(range(16)) - dead
        origin = node_id(1, 1, 4)
        assert not system_is_alive(surviving(mesh4), alive, mapping4, origin)

    def test_articulation_points_line(self):
        topo = Topology(3)
        topo.add_edge(0, 1, 1.0)
        topo.add_edge(1, 2, 1.0)
        assert articulation_points(topo) == frozenset({1})

    def test_articulation_points_full_mesh_has_none(self):
        assert articulation_points(mesh2d(3)) == frozenset()

    def test_articulation_respects_dead_nodes(self):
        topo = mesh2d(3)
        # Kill the centre: corners connect through edge nodes; killing
        # (2,1) too makes (3,1)... compute on the live subgraph.
        alive = set(range(9)) - {node_id(2, 2, 3)}
        points = articulation_points(topo, alive)
        # The ring of 8 nodes around a dead centre has no articulation.
        assert points == frozenset()
