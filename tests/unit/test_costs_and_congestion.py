"""Unit tests for the cost pipeline, level channels and ECMP.

Covers the composable ``CostPipeline`` and its terms, the shared
``LevelChannel`` contract (parametrised over the three default
channels), the link-level store and load estimator behind the
congestion channel, and the equal-cost successor machinery
(``equal_cost_successors`` + ``EcmpSelector``).
"""

from dataclasses import replace

import numpy as np
import pytest

from dense_routing import (
    at_slots,
    dense_of,
    ear_weight_matrix,
    equal_cost_successors,
    floyd_warshall_successors,
    sdr_weight_matrix,
)
from helpers import build_engine, make_config, make_view
from repro.core import (
    CONGESTION_CHANNEL,
    HARVEST_CHANNEL,
    WEAR_CHANNEL,
    BatteryTerm,
    CostPipeline,
    CostTerm,
    EcmpSelector,
    LevelChannel,
    ShortestDistanceRouting,
    select_destinations,
    shortest_path_trees,
)
from repro.core.phase3 import SINK
from repro.core.trees import line_slots
from repro.core.weights import BatteryWeightFunction
from repro.errors import ConfigurationError
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import mesh2d
from repro.sim.level_estimators import LinkLevelStore, LoadEstimator

DEFAULT_CHANNELS = (WEAR_CHANNEL, HARVEST_CHANNEL, CONGESTION_CHANNEL)

#: Neighbour table of a 2x2 mesh: rows [1, 2], [0, 3], [0, 3], [1, 2].
SQUARE = line_slots(mesh2d(2))[0]


def build_view(**overrides):
    topo = mesh2d(4)
    return make_view(topo, checkerboard_mapping(topo), **overrides)


def with_levels(view, **channel_levels):
    return type(view)(
        neighbors=view.neighbors,
        edge_lengths=view.edge_lengths,
        alive=view.alive,
        battery_levels=view.battery_levels,
        levels=view.levels,
        mapping=view.mapping,
        channel_levels=channel_levels,
    )


@pytest.mark.parametrize(
    "channel", DEFAULT_CHANNELS, ids=[c.name for c in DEFAULT_CHANNELS]
)
class TestLevelChannel:
    def test_level_zero_is_unweighted_and_the_cap_saturates(self, channel):
        assert channel(0) == 1.0
        cap = channel.levels - 1
        assert channel(cap) == channel(cap + 1) == channel(99)
        assert np.array_equal(
            channel.table(), [channel(level) for level in range(channel.levels)]
        )

    def test_exponent_sign(self, channel):
        # Penalties grow with the level, the harvest bonus shrinks.
        values = [channel(level) for level in range(channel.levels)]
        step = channel(1) / channel(0)
        if channel.sign > 0:
            assert values == sorted(values) and step == channel.q
        else:
            assert values == sorted(values, reverse=True)
            assert step == channel.q ** -1

    def test_validation(self, channel):
        for bad in (
            {"q": 0.9},
            {"quantum": 0.0},
            {"levels": 0},
            {"sign": 2},
            {"keyed": "edge"},
        ):
            with pytest.raises(ConfigurationError):
                replace(channel, **bad)
        with pytest.raises(ConfigurationError):
            channel(-1)

    def test_neutral_q_changes_no_weight(self, channel):
        neutral = replace(channel, q=1.0)
        assert neutral.is_neutral and not channel.is_neutral
        assert all(neutral(level) == 1.0 for level in range(channel.levels))

    def test_applies_only_once_reported(self, channel):
        view = build_view()
        shape = (16,) if channel.keyed == "node" else view.neighbors.shape
        assert not channel.applies(view)
        reported = with_levels(
            build_view(), **{channel.name: np.zeros(shape, dtype=int)}
        )
        assert channel.applies(reported)


class TestCongestionWeightFunction:
    """Congestion specifics of the shared contract in TestLevelChannel."""

    def test_defaults_and_cap(self):
        f = CONGESTION_CHANNEL
        assert f(3) == pytest.approx(f.q**3)
        assert f(99) == f(f.levels - 1)

    def test_neutral_detection(self):
        assert replace(CONGESTION_CHANNEL, q=1.0).is_neutral
        assert not CONGESTION_CHANNEL.is_neutral

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            replace(CONGESTION_CHANNEL, rich_band=2)  # link channel

    def test_table_matches_call(self):
        f = replace(CONGESTION_CHANNEL, q=1.5, levels=4)
        assert np.allclose(f.table(), [f(i) for i in range(4)])


class TestApplyCongestionPenalty:
    def test_scales_loaded_links_only(self):
        view = build_view()
        edges = CostPipeline().weight_matrix(view)
        load = np.zeros((16, 16), dtype=int)
        load[0, 1] = load[1, 0] = 2
        f = replace(CONGESTION_CHANNEL, q=2.0)
        levels = at_slots(load, view.neighbors, fill=0)
        penalised = dense_of(
            f.apply(edges.copy(), with_levels(view, congestion=levels)),
            view.neighbors,
        )
        weights = dense_of(edges, view.neighbors)
        assert penalised[0, 1] == pytest.approx(weights[0, 1] * 4.0)
        assert penalised[1, 0] == pytest.approx(weights[1, 0] * 4.0)
        mask = np.ones_like(weights, dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        assert np.array_equal(penalised[mask], weights[mask])


class TestCostPipeline:
    def test_terms_satisfy_protocol(self):
        for term in (BatteryTerm(BatteryWeightFunction()), *DEFAULT_CHANNELS):
            assert isinstance(term, CostTerm)

    def test_empty_pipeline_is_sdr(self):
        view = build_view()
        assert np.array_equal(
            CostPipeline().weight_matrix(view),
            at_slots(sdr_weight_matrix(view), view.neighbors),
        )

    def test_ear_composition_and_lookup(self):
        pipeline = CostPipeline.ear(
            BatteryWeightFunction(), (WEAR_CHANNEL, CONGESTION_CHANNEL)
        )
        assert [t.name for t in pipeline.terms] == [
            "battery", "wear", "congestion",
        ]
        assert pipeline.term("wear") is pipeline.terms[1]
        assert pipeline.term("harvest") is None
        assert repr(pipeline) == "CostPipeline(battery+wear+congestion)"
        assert repr(CostPipeline()) == "CostPipeline(sdr)"

    def test_terms_gate_on_view_telemetry(self):
        view = build_view()
        assert BatteryTerm(BatteryWeightFunction()).applies(view)
        assert not WEAR_CHANNEL.applies(view)
        assert not CONGESTION_CHANNEL.applies(view)
        loaded = with_levels(
            view, congestion=np.zeros(view.neighbors.shape, dtype=int)
        )
        assert CONGESTION_CHANNEL.applies(loaded)
        assert not WEAR_CHANNEL.applies(loaded)

    def test_battery_only_pipeline_matches_ear(self):
        view = build_view()
        fn = BatteryWeightFunction()
        pipeline = CostPipeline.ear(fn)
        assert np.array_equal(
            pipeline.weight_matrix(view),
            at_slots(ear_weight_matrix(view, fn), view.neighbors),
        )

    def test_a_new_channel_is_one_instance(self):
        # A resistance-style hop cost needs no new class: one more link
        # channel composes after the defaults.
        extra = LevelChannel(
            name="resistance", signal="resistance", keyed="link",
            q=2.0, quantum=1.0,
        )
        view = build_view()
        view = with_levels(
            view, resistance=np.ones(view.neighbors.shape, dtype=int)
        )
        pipeline = CostPipeline.ear(BatteryWeightFunction(), (extra,))
        base = at_slots(
            ear_weight_matrix(view, BatteryWeightFunction()), view.neighbors
        )
        finite = np.isfinite(base)
        assert np.array_equal(
            pipeline.weight_matrix(view)[finite], base[finite] * 2.0
        )


class TestLinkLevelStore:
    def test_canonical_ordering(self):
        load = LoadEstimator(replace(CONGESTION_CHANNEL, quantum=1.0), 4)
        load.note_traversal(3, 1)
        load.note_traversal(1, 3)
        load.end_frame()
        assert load.totals == {(1, 3): 2}

    def test_dirty_only_on_change(self):
        store = LinkLevelStore(CONGESTION_CHANNEL)
        assert not store.dirty
        store.set_level((0, 1), 2)
        assert store.dirty
        store.dirty = False
        # Same level again: no change, no dirt.
        store.set_level((0, 1), 2)
        assert not store.dirty
        store.set_level((0, 1), 3)
        assert store.dirty

    def test_zero_level_clears(self):
        store = LinkLevelStore(CONGESTION_CHANNEL)
        store.set_level((0, 1), 2)
        store.dirty = False
        store.set_level((0, 1), 0)
        assert store.dirty
        assert store.snapshot() == {}

    def test_matrix_and_max(self):
        store = LinkLevelStore(CONGESTION_CHANNEL)
        store.set_level((0, 2), 4)
        levels = store.levels(SQUARE)
        # Both directions' slots: node 2 is node 0's second neighbour,
        # node 0 is node 2's first.
        assert levels[0, 1] == 4 and levels[2, 0] == 4
        assert levels.sum() == 8
        assert store.snapshot() == {(0, 2): 4}


class TestCongestionRuntime:
    def estimator(self, alpha=0.5):
        channel = replace(CONGESTION_CHANNEL, quantum=1.0)
        return LoadEstimator(channel, 2, alpha=alpha)

    def test_disabled_without_quantum(self):
        # Congestion-blind runs build no estimator and count nothing.
        engine = build_engine(make_config())
        assert engine.estimators == {}
        assert engine._traversal_sinks == ()

    def test_ema_folds_and_levels(self):
        runtime = self.estimator()
        for _ in range(4):
            runtime.note_traversal(0, 1)
        runtime.end_frame()
        # rate = 0 + 0.5 * (4 - 0) = 2.0 -> level 2
        assert runtime.dirty
        assert runtime.levels(SQUARE)[0, 0] == 2
        assert runtime.max_link_traversals() == 4

    def test_quiet_links_decay(self):
        runtime = self.estimator()
        for _ in range(8):
            runtime.note_traversal(0, 1)
        runtime.end_frame()
        level0 = runtime.levels(SQUARE)[0, 0]
        for _ in range(6):
            runtime.end_frame()
        assert runtime.levels(SQUARE)[0, 0] < level0

    def test_hot_link_share(self):
        runtime = self.estimator(alpha=0.2)
        for _ in range(3):
            runtime.note_traversal(0, 1)
        runtime.note_traversal(1, 2)
        runtime.end_frame()
        assert runtime.hot_link_share() == pytest.approx(0.75)


class TestEqualCostSuccessors:
    def test_uniform_mesh_has_two_way_fan(self):
        view = build_view()
        weights = sdr_weight_matrix(view)
        distances, successors = floyd_warshall_successors(weights)
        # Corner 0 -> opposite corner 15: both neighbours (1 and 4)
        # start minimal paths on a uniform 4x4 mesh.
        group = equal_cost_successors(weights, distances, successors, 0, 15)
        assert group == [1, 4]
        # A straight-line pair has a single minimal successor.
        assert equal_cost_successors(
            weights, distances, successors, 0, 3
        ) == [1]

    def test_unreachable_and_self(self):
        view = build_view()
        weights = sdr_weight_matrix(view)
        weights[:, 5] = np.inf  # nothing enters node 5
        weights[5, 5] = 0.0
        distances, successors = floyd_warshall_successors(weights)
        assert equal_cost_successors(
            weights, distances, successors, 0, 5
        ) == []
        assert equal_cost_successors(
            weights, distances, successors, 3, 3
        ) == []

    def test_members_strictly_progress(self):
        view = build_view()
        weights = sdr_weight_matrix(view)
        distances, successors = floyd_warshall_successors(weights)
        for source in range(16):
            for dest in range(16):
                if source == dest:
                    continue
                for member in equal_cost_successors(
                    weights, distances, successors, source, dest
                ):
                    assert distances[member, dest] < distances[source, dest]
                    assert (
                        weights[source, member] + distances[member, dest]
                        <= distances[source, dest] * (1 + 1e-9)
                    )


class TestEcmpSelector:
    def _selector(self, blocked=frozenset(), seed=0, sink=15):
        # The sink column routes every node toward the one node
        # ``sink``, so each group is that of a (node, sink) pair.
        view = build_view(blocked=blocked, sink=sink)
        trees = shortest_path_trees(
            CostPipeline().weight_matrix(view), view.neighbors, view.targets()
        )
        destinations, _ = select_destinations(view, trees)
        return EcmpSelector(trees, destinations, blocked, seed)

    def test_round_robin_cycles_group(self):
        selector = self._selector()
        hops = [selector.next_hop(0, SINK) for _ in range(4)]
        assert sorted(set(hops)) == [1, 4]
        assert hops[:2] != hops[2:0:-1] or hops[0] != hops[1]
        # Consecutive picks alternate around the two-member group.
        assert hops[0] != hops[1] and hops[2] != hops[3]
        assert hops[0] == hops[2] and hops[1] == hops[3]

    def test_seed_changes_rotation_start(self):
        starts = {
            self._selector(seed=seed).next_hop(0, SINK) for seed in range(8)
        }
        assert starts == {1, 4}

    def test_blocked_ports_skipped(self):
        selector = self._selector(blocked=frozenset({(0, 1)}))
        assert all(selector.next_hop(0, SINK) == 4 for _ in range(4))

    def test_all_blocked_falls_back(self):
        selector = self._selector(
            blocked=frozenset({(0, 1), (0, 4)})
        )
        assert selector.next_hop(0, SINK) is None

    def test_single_member_group_is_stable(self):
        # A straight-line pair has one minimal hop: the selector defers
        # to the canonical table, which the plan then returns every time.
        selector = self._selector(sink=3)
        assert all(selector.next_hop(0, SINK) is None for _ in range(3))
        engine = ShortestDistanceRouting()
        engine.configure_ecmp(0)
        plan = engine.compute_plan(build_view(sink=3))
        assert all(plan.next_hop(0, SINK) == 1 for _ in range(3))
