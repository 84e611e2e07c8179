"""Unit tests for the controller's network view (repro.core.view)."""

import numpy as np
import pytest

from repro.core.trees import edge_lengths
from repro.core.view import NetworkView
from repro.errors import ConfigurationError
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import mesh2d


def build_view(**overrides):
    topo = mesh2d(4)
    mapping = checkerboard_mapping(topo)
    kwargs = dict(
        lengths=topo.length_matrix(),
        alive=np.ones(16, dtype=bool),
        battery_levels=np.full(16, 7, dtype=int),
        levels=8,
        mapping=mapping,
    )
    kwargs.update(overrides)
    return NetworkView(**kwargs)


class TestNetworkView:
    def test_basic_accessors(self):
        view = build_view()
        assert view.num_nodes == 16
        assert view.alive_nodes() == tuple(range(16))

    def test_alive_nodes_filters(self):
        alive = np.ones(16, dtype=bool)
        alive[[2, 5]] = False
        view = build_view(alive=alive)
        assert 2 not in view.alive_nodes()
        assert 5 not in view.alive_nodes()
        assert len(view.alive_nodes()) == 14

    def test_with_blocked_ports(self):
        view = build_view()
        blocked = frozenset({(0, 1)})
        updated = view.with_blocked_ports(blocked)
        assert updated.blocked_ports == blocked
        assert view.blocked_ports == frozenset()
        assert updated.levels == view.levels

    def test_edge_lengths_follow_the_neighbour_table(self):
        view = build_view()
        assert np.array_equal(
            view.edge_lengths, edge_lengths(view.lengths, view.neighbors)
        )
        updated = view.with_blocked_ports(frozenset({(0, 1)}))
        assert updated.edge_lengths is view.edge_lengths

    def test_edge_lengths_shape_mismatch_rejected(self):
        view = build_view()
        with pytest.raises(ConfigurationError):
            build_view(
                neighbors=view.neighbors,
                edge_lengths=view.edge_lengths[:, :-1],
            )

    def test_non_square_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            build_view(lengths=np.zeros((4, 5)))

    def test_vector_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            build_view(alive=np.ones(15, dtype=bool))
        with pytest.raises(ConfigurationError):
            build_view(battery_levels=np.zeros(15, dtype=int))

    def test_levels_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            build_view(battery_levels=np.full(16, 8, dtype=int))
        with pytest.raises(ConfigurationError):
            build_view(battery_levels=np.full(16, -1, dtype=int))

    def test_zero_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            build_view(levels=0)

    def test_wear_defaults_to_none(self):
        assert build_view().channel_levels == {}

    def test_wear_matrix_accepted_and_propagated(self):
        wear = np.zeros((16, 16), dtype=int)
        wear[0, 1] = wear[1, 0] = 2
        view = build_view(channel_levels={"wear": wear})
        assert view.channel_levels["wear"][0, 1] == 2
        blocked = view.with_blocked_ports(frozenset({(0, 1)}))
        assert np.array_equal(blocked.channel_levels["wear"], wear)

    def test_wear_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            build_view(channel_levels={"wear": np.zeros((4, 4), dtype=int)})

    def test_negative_wear_rejected(self):
        wear = np.zeros((16, 16), dtype=int)
        wear[3, 4] = -1
        with pytest.raises(ConfigurationError):
            build_view(channel_levels={"wear": wear})

    def test_node_channel_vector_accepted(self):
        income = np.arange(16)
        view = build_view(channel_levels={"harvest": income})
        assert np.array_equal(view.channel_levels["harvest"], income)

    def test_sink_outside_the_fabric_rejected(self):
        with pytest.raises(ConfigurationError):
            build_view(sink=16)

    def test_targets_mark_the_live_sink_and_duplicates(self):
        alive = np.ones(16, dtype=bool)
        alive[[0, 3]] = False
        view = build_view(alive=alive, sink=3)
        targets = view.targets()
        assert targets.shape == (16, 4)
        assert not targets[:, 0].any()  # the sink is dead
        for module in (1, 2, 3):
            expected = [n for n in view.mapping.duplicates(module) if alive[n]]
            assert np.flatnonzero(targets[:, module]).tolist() == expected
        assert build_view(sink=3).targets()[:, 0].tolist() == [
            node == 3 for node in range(16)
        ]
        # A view without a sink roots no sink tree.
        assert not build_view().targets()[:, 0].any()
