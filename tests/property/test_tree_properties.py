"""Property tests pinning phase 2's shortest-path trees to the dense oracles.

Random meshes (3x3 to 8x8, the source block attached at a random node)
with dead nodes, cut lines, random battery levels and optional
deadlocked ports are routed twice: through the per-module trees and
phase 3 the engines use, fed the dense EAR weights gathered at the
neighbour-table slots, and through the all-pairs Floyd–Warshall and
the literal Fig 6 walk kept as oracles in ``tests/dense_routing.py``.
A cut line is an ``inf`` slot of the fabric's fixed table, and routes
exactly like a table that has no slot for it.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_routing import (
    at_slots,
    dense_of,
    ear_weight_matrix,
    edge_lengths,
    equal_cost_successors,
    floyd_warshall_successors,
    neighbor_table,
    reference_select_destinations,
)
from repro.control.controller import ControlPlane
from repro.core.costs import WEAR_CHANNEL, CostPipeline
from repro.core.engines import RoutingEngine
from repro.core.phase3 import (
    NO_DESTINATION,
    SINK,
    EcmpSelector,
    select_destinations,
)
from repro.core.trees import line_slots, shortest_path_trees, slot_of
from repro.core.view import NetworkView
from repro.core.weights import BatteryWeightFunction
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import attach_external_node, mesh2d

#: Line lengths of the float views: decimal fractions whose sums round
#: differently by summation order, so near-ties one ulp apart show up.
DECIMAL_LENGTHS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.5)


@st.composite
def mesh_views(draw, exact=False, blocking=False):
    """A routed mesh: ``(view, weights)``.

    ``exact`` views have integer line lengths and Q = 2, so every path
    weight is an exactly representable integer and the trees and the
    dense oracle agree bit for bit.
    """
    width = draw(st.integers(min_value=3, max_value=8))
    topology = mesh2d(width)
    mesh_nodes = width * width
    mapping = checkerboard_mapping(topology, range(mesh_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    sink = attach_external_node(
        topology, int(rng.integers(mesh_nodes)), 2.0 if exact else 1.5
    )
    size = topology.num_nodes
    pairs = sorted((u, v) for u, v, _ in topology.edges() if u < v)
    # Few distinct lengths and levels make exact ties common, which is
    # where the canonical tie-break is decided.
    spread = draw(st.sampled_from((1, 2, 9)))
    cuts = []
    for u, v in pairs:
        if exact:
            length = float(rng.integers(1, 1 + spread))
        else:
            length = float(rng.choice(DECIMAL_LENGTHS[: 1 + spread]))
        topology.add_edge(u, v, length)
        if v != sink and rng.random() < draw(st.sampled_from((0.0, 0.1))):
            cuts.append((u, v))
    # A known cut stays in the fixed table as an inf slot.
    neighbors, lengths = line_slots(topology)
    for u, v in cuts:
        lengths[u, slot_of(neighbors, u, v)] = np.inf
        lengths[v, slot_of(neighbors, v, u)] = np.inf
    alive = np.ones(size, dtype=bool)
    alive[:mesh_nodes] = rng.random(mesh_nodes) >= draw(
        st.sampled_from((0.0, 0.1, 0.3))
    )
    blocked = frozenset()
    if blocking:
        blocked = frozenset(
            (u, v)
            for a, b in pairs
            for u, v in ((a, b), (b, a))
            if rng.random() < 0.15
        )
    view = NetworkView(
        neighbors=neighbors,
        edge_lengths=lengths,
        alive=alive,
        battery_levels=rng.integers(
            draw(st.sampled_from((0, 6, 7))), 8, size=size
        ),
        levels=8,
        mapping=mapping,
        blocked_ports=blocked,
        sink=sink,
    )
    q = 2.0 if exact else draw(st.floats(min_value=1.0, max_value=3.0))
    weights = ear_weight_matrix(view, BatteryWeightFunction(q=q, levels=8))
    return view, weights


def route(view, weights):
    trees = shortest_path_trees(
        at_slots(weights, view.neighbors), view.neighbors, view.targets()
    )
    destinations, hops = select_destinations(view, trees)
    return trees, destinations, hops


def column_targets(view):
    targets = view.targets()
    return [np.flatnonzero(targets[:, c]) for c in range(targets.shape[1])]


def neighbours_of(view, node):
    return [int(h) for h in view.neighbors[node] if h < view.num_nodes]


@settings(max_examples=60, deadline=None)
@given(mesh_views(blocking=True))
def test_distances_equal_dense_column_minima(routed):
    view, weights = routed
    trees, _, _ = route(view, weights)
    dense, _ = floyd_warshall_successors(weights)
    for column, roots in enumerate(column_targets(view)):
        expected = (
            dense[:, roots].min(axis=1)
            if roots.size
            else np.full(view.num_nodes, np.inf)
        )
        got = trees.distances[:, column]
        assert np.array_equal(np.isinf(got), np.isinf(expected))
        finite = np.isfinite(expected)
        assert got[finite] == pytest.approx(expected[finite], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(mesh_views(exact=True))
def test_exact_views_match_the_fig6_oracle(routed):
    view, weights = routed
    trees, destinations, _ = route(view, weights)
    dense, successors = floyd_warshall_successors(weights)
    reference = reference_select_destinations(view, dense, successors)
    assert np.array_equal(destinations[:, 1:], reference[:, 1:])
    ecmp = EcmpSelector(trees, destinations, view.blocked_ports, seed=0)
    for node in np.flatnonzero(view.alive).tolist():
        for module in range(1, destinations.shape[1]):
            destination = int(destinations[node, module])
            if destination in (NO_DESTINATION, node):
                continue
            assert ecmp.group(node, module) == equal_cost_successors(
                weights, dense, successors, node, destination
            )


@settings(max_examples=60, deadline=None)
@given(st.one_of(mesh_views(), mesh_views(exact=True)))
def test_hops_are_tight_labelled_and_loop_free(routed):
    view, weights = routed
    trees, destinations, hops = route(view, weights)
    distances = trees.distances
    size, columns = distances.shape
    for column in range(columns):
        for node in range(size):
            destination = int(destinations[node, column])
            if destination == NO_DESTINATION:
                assert hops[node, column] == NO_DESTINATION
                continue
            if destination == node:
                assert hops[node, column] == node
                continue

            def canonical(h):
                return (
                    weights[node, h] + distances[h, column]
                    == distances[node, column]
                    and destinations[h, column] == destination
                )

            hop = int(hops[node, column])
            assert canonical(hop)
            assert not any(
                canonical(h) for h in neighbours_of(view, node) if h < hop
            )
            # Following the table strictly descends to the destination.
            current, walked = node, 0
            while current != destination:
                nxt = int(hops[current, column])
                assert distances[nxt, column] < distances[current, column]
                current, walked = nxt, walked + 1
                assert walked <= size


@settings(max_examples=60, deadline=None)
@given(mesh_views(blocking=True))
def test_blocked_ports_are_skipped_downhill(routed):
    view, weights = routed
    trees, destinations, hops = route(view, weights)
    distances = trees.distances
    for node in range(view.num_nodes):
        for module in range(1, distances.shape[1]):
            hop = int(hops[node, module])
            if destinations[node, module] in (NO_DESTINATION, node):
                continue
            assert (node, hop) not in view.blocked_ports
            assert distances[hop, module] < distances[node, module]
    # The sink route ignores deadlock reports.
    _, _, free_hops = route(replace(view, blocked_ports=frozenset()), weights)
    assert np.array_equal(hops[:, SINK], free_hops[:, SINK])


def compacted(view: NetworkView, wear: np.ndarray) -> NetworkView:
    """The view on a table of its finite lines only, with ``wear``
    gathered at that table's slots."""
    dense = dense_of(view.edge_lengths, view.neighbors)
    neighbors = neighbor_table(dense)
    return replace(
        view,
        neighbors=neighbors,
        edge_lengths=edge_lengths(dense, neighbors),
        channel_levels={"wear": at_slots(wear, neighbors, fill=0)},
    )


def plan_record(engine, view):
    """Everything a plan routes by, plus the per-term attribution rows."""
    rows = []
    plan = engine.compute_plan(
        view, term_observer=ControlPlane._term_observer(rows)
    )
    groups = [
        plan.ecmp.group(node, column)
        for node in np.flatnonzero(view.alive).tolist()
        for column in range(plan.destinations.shape[1])
    ]
    return (
        plan.distances.tobytes(),
        plan.destinations.tolist(),
        plan.hops.tolist(),
        groups,
        rows,
    )


@settings(max_examples=60, deadline=None)
@given(mesh_views(blocking=True), st.integers(min_value=0, max_value=2**31 - 1))
def test_an_inf_slot_routes_exactly_like_a_missing_slot(routed, seed):
    view, _ = routed
    rng = np.random.default_rng(seed)
    size = view.num_nodes
    wear = np.triu(rng.integers(0, 9, size=(size, size)), 1)
    wear += wear.T
    fixed = replace(
        view, channel_levels={"wear": at_slots(wear, view.neighbors, fill=0)}
    )
    compact = compacted(view, wear)
    ear = CostPipeline.ear(
        BatteryWeightFunction(q=1.5, levels=8), channels=(WEAR_CHANNEL,)
    )
    for pipeline in (CostPipeline(), ear):
        engine = RoutingEngine(pipeline, ecmp_seed=seed)
        assert plan_record(engine, fixed) == plan_record(engine, compact)


@settings(max_examples=40, deadline=None)
@given(mesh_views(), st.integers(min_value=0, max_value=2**31 - 1))
def test_trees_outlive_the_next_plan_of_the_same_shape(routed, seed):
    """A kept result survives the next plan of the same shape, so a kernel
    that carries state from plan to plan must not hand out views of it."""
    view, weights = routed
    rng = np.random.default_rng(seed)
    other = replace(
        view, battery_levels=rng.integers(0, 8, size=view.num_nodes)
    )
    other_weights = ear_weight_matrix(
        other, BatteryWeightFunction(q=2.5, levels=8)
    )

    def contents(trees):
        arrays = [getattr(trees, field.name) for field in fields(trees)]
        return [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    kept, _, _ = route(view, weights)
    rerouted, _, _ = route(other, other_weights)
    assert rerouted.through.shape == kept.through.shape
    # Read the kept result before a fresh run on its view could refill
    # anything it shares.
    kept_after = contents(kept)
    assert kept_after == contents(route(view, weights)[0])
