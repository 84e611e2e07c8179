"""Unit tests for the routing core: weights, the dense Floyd-Warshall
oracle, phase 3, engines (repro.core)."""

from dataclasses import replace

import numpy as np
import pytest

from dense_routing import (
    NO_SUCCESSOR,
    at_slots,
    dense_of,
    edge_lengths,
    extract_path,
    floyd_warshall_successors,
    length_matrix,
    neighbor_table,
    path_length,
    reference_floyd_warshall,
    sdr_weight_matrix,
)
from helpers import make_view
from repro.core.costs import WEAR_CHANNEL, CostPipeline
from repro.core.engines import RoutingEngine
from repro.core.phase3 import NO_DESTINATION, SINK, select_destinations
from repro.core.trees import line_slots, shortest_path_trees
from repro.core.weights import BatteryWeightFunction
from repro.errors import (
    ConfigurationError,
    RoutingError,
    UnreachableModuleError,
)
from repro.mesh.geometry import node_id
from repro.mesh.mapping import ModuleMapping
from repro.mesh.topology import Topology, attach_external_node, mesh2d


class TestWeightFunction:
    def test_full_battery_weight_is_one(self):
        f = BatteryWeightFunction(q=1.5, levels=8)
        assert f(7) == pytest.approx(1.0)

    def test_monotone_decreasing_level_increases_weight(self):
        f = BatteryWeightFunction(q=1.5, levels=8)
        weights = [f(level) for level in range(8)]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_paper_form(self):
        # f(n) = Q^(2*(N_B - 1 - n))
        f = BatteryWeightFunction(q=2.0, levels=4)
        assert f(3) == 1.0
        assert f(2) == 4.0
        assert f(1) == 16.0
        assert f(0) == 64.0

    def test_q_one_degenerates_to_sdr(self):
        f = BatteryWeightFunction(q=1.0, levels=8)
        assert all(f(level) == 1.0 for level in range(8))

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            BatteryWeightFunction(q=0.0)
        with pytest.raises(ConfigurationError):
            BatteryWeightFunction(levels=0)
        f = BatteryWeightFunction(levels=8)
        with pytest.raises(ConfigurationError):
            f(8)


class TestWearWeightFunction:
    """Wear specifics of the shared contract in TestLevelChannel."""

    def test_pristine_link_is_unpenalised(self):
        assert WEAR_CHANNEL(0) == pytest.approx(1.0)

    def test_monotone_and_saturating(self):
        g = replace(WEAR_CHANNEL, q=1.3, levels=4)
        values = [g(level) for level in range(6)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert g(3) == g(5)  # saturates at levels - 1

    def test_q_one_degenerates_to_reactive_ear(self):
        assert replace(WEAR_CHANNEL, q=1.0).is_neutral

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            replace(WEAR_CHANNEL, q=0.9)
        with pytest.raises(ConfigurationError):
            replace(WEAR_CHANNEL, quantum=0)

    def test_apply_wear_penalty_preserves_conventions(
        self, mesh4, mapping4, full_view
    ):
        weights = CostPipeline().weight_matrix(full_view)
        neighbors = full_view.neighbors
        wear = np.zeros((16, 16), dtype=int)
        wear[0, 1] = wear[1, 0] = 2
        levels = at_slots(wear, neighbors, fill=0)
        levels[neighbors == 16] = 5  # padding wear must stay inert
        g = replace(WEAR_CHANNEL, q=1.5)
        worn = with_channel_levels(full_view, wear=levels)
        penalised = g.apply(weights, worn)
        scaled = dense_of(penalised, neighbors)
        pitch = mesh4.edge_length(0, 1)
        assert scaled[0, 1] == pytest.approx(pitch * 1.5**2)
        assert scaled[1, 0] == pytest.approx(pitch * 1.5**2)
        assert scaled[0, 4] == pytest.approx(pitch)  # untouched
        # Only the two 0-1 slots moved: padding stays inf.
        assert np.count_nonzero(penalised != weights) == 2

    def test_ear_engine_applies_wear_from_the_view(
        self, mesh4, mapping4, full_view
    ):
        wear = np.zeros((16, 16), dtype=int)
        wear[0, 1] = wear[1, 0] = 3
        view = make_view(mesh4, mapping4)
        neighbors = view.neighbors
        worn_view = with_channel_levels(
            view, wear=at_slots(wear, neighbors, fill=0)
        )
        g = replace(WEAR_CHANNEL, q=1.5)
        pipeline = CostPipeline.ear(channels=(g,))
        weights = dense_of(pipeline.weight_matrix(worn_view), neighbors)
        reactive = dense_of(
            CostPipeline.ear().weight_matrix(worn_view), neighbors
        )
        assert weights[0, 1] == pytest.approx(reactive[0, 1] * 1.5**3)
        assert weights[2, 3] == pytest.approx(reactive[2, 3])
        # Without wear data in the view, the wear pipeline is reactive.
        assert np.array_equal(
            pipeline.weight_matrix(full_view),
            CostPipeline.ear().weight_matrix(full_view),
        )


def with_channel_levels(view, **channel_levels):
    return type(view)(
        neighbors=view.neighbors,
        edge_lengths=view.edge_lengths,
        alive=view.alive,
        battery_levels=view.battery_levels,
        levels=view.levels,
        mapping=view.mapping,
        channel_levels=channel_levels,
    )


class TestWeightMatrices:
    def test_sdr_weights_are_lengths(self, mesh4, mapping4, full_view):
        weights = CostPipeline().weight_matrix(full_view)
        assert np.array_equal(
            weights, at_slots(length_matrix(mesh4), full_view.neighbors)
        )

    def test_dead_node_removed_from_graph(self, mesh4, mapping4):
        alive = np.ones(16, dtype=bool)
        alive[5] = False
        view = make_view(mesh4, mapping4, alive=alive)
        weights = dense_of(CostPipeline().weight_matrix(view), view.neighbors)
        assert np.isinf(weights[5, 6]) and np.isinf(weights[4, 5])

    def test_ear_scales_by_receiver_level(self, mesh4, mapping4):
        levels = np.full(16, 7)
        levels[1] = 0  # depleted node
        view = make_view(mesh4, mapping4, levels_vector=levels)
        f = BatteryWeightFunction(q=1.5, levels=8)
        weights = dense_of(
            CostPipeline.ear(f).weight_matrix(view), view.neighbors
        )
        pitch = mesh4.edge_length(0, 1)
        assert weights[0, 1] == pytest.approx(pitch * f(0))
        assert weights[1, 0] == pytest.approx(pitch * 1.0)

    def test_ear_full_battery_equals_sdr(self, full_view):
        f = BatteryWeightFunction(q=1.7, levels=8)
        assert np.array_equal(
            CostPipeline.ear(f).weight_matrix(full_view),
            CostPipeline().weight_matrix(full_view),
        )

    def test_level_count_mismatch_rejected(self, full_view):
        f = BatteryWeightFunction(q=1.5, levels=16)
        with pytest.raises(ConfigurationError):
            CostPipeline.ear(f).weight_matrix(full_view)


class TestFloydWarshall:
    def test_matches_reference_on_mesh(self, full_view):
        weights = sdr_weight_matrix(full_view)
        d_fast, s_fast = floyd_warshall_successors(weights)
        d_ref, s_ref = reference_floyd_warshall(weights)
        assert np.allclose(d_fast, d_ref)
        assert np.array_equal(s_fast, s_ref)

    def test_matches_networkx(self, mesh4, full_view):
        import networkx as nx

        weights = sdr_weight_matrix(full_view)
        distances, _ = floyd_warshall_successors(weights)
        graph = nx.DiGraph()
        graph.add_weighted_edges_from(mesh4.edges(), weight="length")
        nx_lengths = dict(
            nx.all_pairs_dijkstra_path_length(graph, weight="length")
        )
        for i in range(16):
            for j in range(16):
                assert distances[i, j] == pytest.approx(nx_lengths[i][j])

    def test_successor_walk_reaches_destination(self, mesh4, full_view):
        weights = sdr_weight_matrix(full_view)
        distances, successors = floyd_warshall_successors(weights)
        path = extract_path(successors, 0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert path_length(length_matrix(mesh4), path) == pytest.approx(
            distances[0, 15]
        )

    def test_unreachable_marked(self):
        weights = np.array(
            [[0.0, 1.0, np.inf], [1.0, 0.0, np.inf], [np.inf, np.inf, 0.0]]
        )
        distances, successors = floyd_warshall_successors(weights)
        assert np.isinf(distances[0, 2])
        assert successors[0, 2] == NO_SUCCESSOR
        with pytest.raises(RoutingError):
            extract_path(successors, 0, 2)

    def test_negative_weights_rejected(self):
        weights = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(RoutingError):
            floyd_warshall_successors(weights)

    def test_nonzero_diagonal_rejected(self):
        weights = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(RoutingError):
            floyd_warshall_successors(weights)

    def test_relay_through_cheap_detour(self):
        # A 3-node line where the direct edge is expensive: the shortest
        # path detours through the middle node.
        weights = np.array(
            [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
        )
        distances, successors = floyd_warshall_successors(weights)
        assert distances[0, 2] == pytest.approx(2.0)
        assert successors[0, 2] == 1


def phase3_destinations(view):
    """Phase 3's destination table over the phase 2 trees of SDR."""
    weights = CostPipeline().weight_matrix(view)
    trees = shortest_path_trees(weights, view.neighbors, view.targets())
    destinations, _ = select_destinations(view, trees)
    return destinations


class TestPhase3:
    def test_module_node_selects_itself(self, full_view):
        dests = phase3_destinations(full_view)
        for module in (1, 2, 3):
            for node in full_view.mapping.duplicates(module):
                assert dests[node, module] == node

    def test_nearest_duplicate_chosen(self, mesh4, mapping4, full_view):
        dests = phase3_destinations(full_view)
        origin = node_id(2, 1, 4)  # module 3 node
        # Nearest module-1 duplicates are (1,1) and (3,1), both 1 hop;
        # the tie breaks to the lower node id = (1,1) = 0.
        assert dests[origin, 1] == node_id(1, 1, 4)

    def test_dead_duplicates_skipped(self, mesh4, mapping4):
        alive = np.ones(16, dtype=bool)
        alive[node_id(1, 1, 4)] = False
        view = make_view(mesh4, mapping4, alive=alive)
        dests = phase3_destinations(view)
        origin = node_id(2, 1, 4)
        assert dests[origin, 1] == node_id(3, 1, 4)

    def test_all_dead_module_unreachable(self, mesh4, mapping4):
        alive = np.ones(16, dtype=bool)
        for dup in mapping4.duplicates(2):
            alive[dup] = False
        view = make_view(mesh4, mapping4, alive=alive)
        dests = phase3_destinations(view)
        assert np.all(dests[:, 2] == NO_DESTINATION)

    def test_blocked_port_redirects(self, mesh4, mapping4):
        origin = node_id(2, 1, 4)
        preferred = node_id(1, 1, 4)
        blocked = frozenset({(origin, preferred)})
        view = make_view(mesh4, mapping4, blocked=blocked)
        dests = phase3_destinations(view)
        # The first hop to (1,1) is blocked, so another duplicate whose
        # first hop differs must be chosen.
        assert dests[origin, 1] != preferred


class TestShortestPathTrees:
    def test_edge_lengths_follow_the_neighbour_table(self, mesh4):
        # The slot builder gives exactly the table and lengths the dense
        # length matrix compacts to on a pristine fabric.
        neighbors, edges = line_slots(mesh4)
        lengths = length_matrix(mesh4)
        assert np.array_equal(neighbors, neighbor_table(lengths))
        assert np.array_equal(edges, edge_lengths(lengths, neighbors))
        assert np.array_equal(edges, at_slots(lengths, neighbors))
        # No node lists itself, so no term ever scales a diagonal.
        assert not (neighbors == np.arange(16)[:, None]).any()
        # Corner 0 links to 1 and 4 only; its padding slots read inf.
        assert list(neighbors[0, :2]) == [1, 4]
        assert np.isinf(edges[0, 2:]).all()

    def test_kernel_rejects_bad_edge_weights(self, full_view):
        weights = CostPipeline().weight_matrix(full_view)
        neighbors, targets = full_view.neighbors, full_view.targets()
        with pytest.raises(RoutingError):
            shortest_path_trees(weights[:, :-1], neighbors, targets)
        with pytest.raises(RoutingError):
            shortest_path_trees(sdr_weight_matrix(full_view), neighbors, targets)
        weights[0, 0] = -1.0
        with pytest.raises(RoutingError):
            shortest_path_trees(weights, neighbors, targets)

    def test_canonical_tie_is_exact(self):
        # Node 0 reaches the sink (3) via node 1 at 0.1 + 0.2, one ulp
        # above 0.3, and via node 2 at 0.25 + 0.05 == 0.3 exactly.  Like
        # Floyd–Warshall's strict `<`, the tree keeps the shorter route;
        # a tie tolerance would take the lower-id node 1.
        topology = Topology(4)
        for u, v, length in ((0, 1, 0.1), (1, 3, 0.2), (0, 2, 0.25), (2, 3, 0.05)):
            topology.add_edge(u, v, length)
        view = make_view(
            topology,
            ModuleMapping({0: 1, 1: 1, 2: 1}, num_modules=1),
            sink=3,
        )
        plan = RoutingEngine().compute_plan(view)
        dense, successors = floyd_warshall_successors(sdr_weight_matrix(view))
        assert 0.1 + 0.2 > 0.3
        assert plan.distances[0, SINK] == dense[0, 3] == 0.3
        assert plan.hop(0, SINK) == successors[0, 3] == 2

    def test_unreachable_nodes_stay_unlabelled(self):
        # Dead nodes 4, 5, 7, 12, 13 sit between the duplicates.  A
        # label handed across a missing edge could swap back and forth
        # between unreachable nodes and keep the passes from settling.
        alive = np.ones(16, dtype=bool)
        alive[[4, 5, 7, 12, 13]] = False
        view = make_view(
            mesh2d(4),
            ModuleMapping({0: 1, 2: 1, 11: 1}, num_modules=1),
            alive=alive,
        )
        weights = sdr_weight_matrix(view)
        trees = shortest_path_trees(
            at_slots(weights, view.neighbors), view.neighbors, view.targets()
        )
        dense, _ = floyd_warshall_successors(weights)
        assert np.array_equal(trees.distances[:, 1], dense[:, [0, 2, 11]].min(axis=1))
        unreachable = np.isinf(trees.distances)
        assert unreachable[~alive].all()
        assert np.all(trees.labels[unreachable] == 16)

    def test_fully_blocked_node_has_no_module_destination(self, mapping4):
        # Node 0's two mesh ports are deadlocked; its only other port is
        # the source link, which leads uphill.  Module-bound packets must
        # wait there instead of bouncing over the source link.
        topology = mesh2d(4)
        source = attach_external_node(topology, 0, 2.0)
        view = make_view(
            topology,
            mapping4,
            blocked=frozenset({(0, 1), (0, 4)}),
            sink=source,
        )
        plan = RoutingEngine().compute_plan(view)
        own = mapping4.module_of(0)
        for module in (1, 2, 3):
            if module == own:
                assert plan.destination(0, module) == 0
                continue
            assert not plan.has_destination(0, module)
            assert plan.hop(0, module) == NO_DESTINATION
        # The sink route ignores deadlock reports.
        assert plan.hop(0, SINK) == source
        # A neighbour still routes normally.
        assert plan.has_destination(1, 2)


class TestEngines:
    def test_plan_accessors(self, full_view):
        plan = RoutingEngine().compute_plan(full_view)
        assert plan.num_nodes == 16
        dest = plan.destination(0, 2)
        assert dest in full_view.mapping.duplicates(2)
        path = plan.path_to_module(0, 2)
        assert path[0] == 0 and path[-1] == dest

    def test_unreachable_raises(self, mesh4, mapping4):
        alive = np.ones(16, dtype=bool)
        for dup in mapping4.duplicates(2):
            alive[dup] = False
        view = make_view(mesh4, mapping4, alive=alive)
        plan = RoutingEngine().compute_plan(view)
        assert not plan.has_destination(0, 2)
        with pytest.raises(UnreachableModuleError):
            plan.destination(0, 2)

    def test_ear_avoids_depleted_relay(self, mesh4, mapping4):
        # Deplete (2,2); EAR routes 2-hop journeys around it.
        levels = np.full(16, 7)
        depleted = node_id(2, 2, 4)
        levels[depleted] = 0
        view = make_view(mesh4, mapping4, levels_vector=levels)
        ear_plan = RoutingEngine(
            CostPipeline.ear(BatteryWeightFunction(q=2.0, levels=8))
        ).compute_plan(view)
        sdr_plan = RoutingEngine().compute_plan(view)
        origin = node_id(1, 2, 4)  # module 3, adjacent to depleted node
        # SDR still happily selects the depleted module-2 node.
        assert sdr_plan.destination(origin, 2) == depleted
        # EAR prefers a farther but charged duplicate.
        assert ear_plan.destination(origin, 2) != depleted

    def test_engines_identical_at_full_charge(self, full_view):
        ear = RoutingEngine(CostPipeline.ear()).compute_plan(full_view)
        sdr = RoutingEngine().compute_plan(full_view)
        assert np.array_equal(ear.destinations, sdr.destinations)
        assert np.allclose(ear.distances, sdr.distances)

    def test_repr(self):
        assert "battery" in repr(RoutingEngine(CostPipeline.ear()))
        assert "sdr" in repr(RoutingEngine())
