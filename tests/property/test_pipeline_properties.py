"""Property tests for the cost pipeline and ECMP successor groups.

The pipeline's contract is *bit-identity* with the EAR weight formula:
composing the battery term with the wear, harvest and congestion level
channels must reproduce, on randomised views, a literal per-entry
reference written out below — the battery weight, then
``q_w ** min(w, cap)`` per link, ``q_h ** -min(r, cap)`` per nearly-full
receiver, ``q_c ** min(l, cap)`` per link, in that order.  The pipeline
weighs ``(K, M)`` edge arrays, so each dense reference is gathered at
the view's neighbour-table slots before the comparison.  The ECMP
properties pin the group-validity invariants (strict distance progress,
cost within tolerance, canonical membership) that keep round-robin
spreading loop-free on any weight matrix.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_routing import (
    NO_SUCCESSOR,
    at_slots,
    ear_weight_matrix,
    equal_cost_successors,
    floyd_warshall_successors,
    sdr_weight_matrix,
)
from repro.core.costs import (
    CONGESTION_CHANNEL,
    HARVEST_CHANNEL,
    WEAR_CHANNEL,
    CostPipeline,
)
from repro.core.view import NetworkView
from repro.core.weights import BatteryWeightFunction
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import mesh2d

#: Level cap of the default channels; drawn levels overshoot it so the
#: saturation is exercised.
CAP = 7


@st.composite
def random_views(draw, with_channels=False):
    """Randomised small-mesh views: batteries, deaths, blocked ports,
    and optional wear / income / load levels."""
    width = draw(st.integers(min_value=3, max_value=6))
    topo = mesh2d(width)
    size = topo.num_nodes
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    levels = 8
    alive = rng.random(size) > 0.15
    alive[0] = True  # keep at least one node alive
    battery = rng.integers(0, levels, size=size)
    blocked = frozenset(
        (int(u), int(v))
        for u, v in zip(
            rng.integers(0, size, size=3), rng.integers(0, size, size=3)
        )
        if u != v
    )
    channel_levels = {}
    if with_channels:
        for name in ("wear", "congestion"):
            matrix = rng.integers(0, CAP + 3, size=(size, size))
            matrix = np.minimum(matrix, matrix.T)
            np.fill_diagonal(matrix, 0)
            channel_levels[name] = matrix
        channel_levels["harvest"] = rng.integers(0, CAP + 3, size=size) * (
            rng.random(size) < 0.5
        )
    return NetworkView(
        lengths=topo.length_matrix(),
        alive=alive,
        battery_levels=battery,
        levels=levels,
        mapping=checkerboard_mapping(topo),
        blocked_ports=blocked,
        channel_levels=channel_levels,
    )


def reference_weights(view, battery, q_wear, q_harvest, q_load):
    """The EAR weight matrix, entry by entry."""
    weights = ear_weight_matrix(view, battery)
    wear = view.channel_levels["wear"]
    income = view.channel_levels["harvest"]
    load = view.channel_levels["congestion"]
    size = view.num_nodes
    for i in range(size):
        for j in range(size):
            if i != j:
                weights[i, j] *= q_wear ** min(int(wear[i, j]), CAP)
    for j in range(size):
        # The bonus only applies within two levels of a full battery.
        if view.battery_levels[j] >= view.levels - 2:
            for i in range(size):
                if i != j:
                    weights[i, j] *= q_harvest ** -min(int(income[j]), CAP)
    for i in range(size):
        for j in range(size):
            if i != j:
                weights[i, j] *= q_load ** min(int(load[i, j]), CAP)
    return weights


q_values = st.floats(min_value=1.0, max_value=3.0)


class TestPipelineBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(random_views())
    def test_empty_pipeline_matches_sdr(self, view):
        assert np.array_equal(
            CostPipeline().weight_matrix(view),
            at_slots(sdr_weight_matrix(view), view.neighbors),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        view=random_views(),
        q=st.floats(min_value=1.0, max_value=3.0),
    )
    def test_battery_pipeline_matches_ear(self, view, q):
        fn = BatteryWeightFunction(q=q)
        assert np.array_equal(
            CostPipeline.ear(fn).weight_matrix(view),
            at_slots(ear_weight_matrix(view, fn), view.neighbors),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        view=random_views(with_channels=True),
        q_wear=q_values,
        q_harvest=q_values,
        q_load=q_values,
    )
    def test_full_pipeline_matches_manual_composition(
        self, view, q_wear, q_harvest, q_load
    ):
        battery = BatteryWeightFunction()
        pipeline = CostPipeline.ear(
            battery,
            (
                replace(WEAR_CHANNEL, q=q_wear),
                replace(HARVEST_CHANNEL, q=q_harvest),
                replace(CONGESTION_CHANNEL, q=q_load),
            ),
        )
        reference = reference_weights(view, battery, q_wear, q_harvest, q_load)
        assert np.array_equal(
            pipeline.weight_matrix(view), at_slots(reference, view.neighbors)
        )


class TestTermOrderIndependence:
    @settings(max_examples=30, deadline=None)
    @given(random_views(with_channels=True))
    def test_wear_and_harvest_commute(self, view):
        """Wear (link scale) and harvest (receiver scale) are both
        elementwise multiplications, so their order changes results
        only by float rounding."""
        base = CostPipeline.ear().weight_matrix(view)
        wear_first = HARVEST_CHANNEL.apply(
            WEAR_CHANNEL.apply(base, view), view
        )
        harvest_first = WEAR_CHANNEL.apply(
            HARVEST_CHANNEL.apply(base, view), view
        )
        finite = np.isfinite(wear_first)
        assert np.array_equal(finite, np.isfinite(harvest_first))
        assert np.allclose(
            wear_first[finite], harvest_first[finite], rtol=1e-12
        )


class TestEcmpGroupValidity:
    @settings(max_examples=40, deadline=None)
    @given(random_views())
    def test_groups_progress_and_include_canonical(self, view):
        weights = sdr_weight_matrix(view)
        distances, successors = floyd_warshall_successors(weights)
        size = view.num_nodes
        rng = np.random.default_rng(0)
        pairs = zip(
            rng.integers(0, size, size=24), rng.integers(0, size, size=24)
        )
        for source, dest in ((int(s), int(d)) for s, d in pairs):
            group = equal_cost_successors(
                weights, distances, successors, source, dest
            )
            canonical = successors[source, dest]
            if source == dest or canonical == NO_SUCCESSOR:
                assert group == []
                continue
            assert canonical in group
            assert group == sorted(set(group))
            for member in group:
                # Strict progress toward the destination (loop-free)
                # at a total cost matching the optimum.
                assert distances[member, dest] < distances[source, dest]
                assert (
                    weights[source, member] + distances[member, dest]
                    <= distances[source, dest] * (1 + 1e-9)
                )
