"""Property-based tests: Theorem 1 dominance and mapping invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import ApplicationProfile
from repro.core.upper_bound import (
    jobs_for_duplicates,
    optimize_duplicates,
    theorem1,
)
from repro.mesh.mapping import (
    harvest_proportional_mapping,
    proportional_mapping,
    uniform_mapping,
)
from repro.mesh.topology import mesh2d


@st.composite
def random_profiles(draw):
    """Random application profiles with 1..4 modules."""
    p = draw(st.integers(min_value=1, max_value=4))
    operations = {
        m: draw(st.integers(min_value=1, max_value=20))
        for m in range(1, p + 1)
    }
    compute = {
        m: draw(st.floats(min_value=1.0, max_value=500.0))
        for m in range(1, p + 1)
    }
    comm = {
        m: draw(st.floats(min_value=0.0, max_value=500.0))
        for m in range(1, p + 1)
    }
    return ApplicationProfile(
        name="random",
        operations=operations,
        computation_energy_pj=compute,
        communication_energy_pj=comm,
    )


class TestTheorem1Properties:
    @settings(max_examples=80, deadline=None)
    @given(
        random_profiles(),
        st.floats(min_value=100.0, max_value=1e6),
        st.integers(min_value=4, max_value=30),
    )
    def test_closed_form_equals_relaxed_optimum(self, profile, budget, nodes):
        bound = theorem1(profile, budget, nodes)
        jobs, _ = optimize_duplicates(profile, budget, nodes, integral=False)
        assert jobs == pytest.approx(bound.jobs, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        random_profiles(),
        st.floats(min_value=100.0, max_value=1e6),
        st.integers(min_value=4, max_value=16),
    )
    def test_integer_allocations_never_beat_the_bound(
        self, profile, budget, nodes
    ):
        bound = theorem1(profile, budget, nodes)
        jobs, allocation = optimize_duplicates(
            profile, budget, nodes, integral=True
        )
        assert jobs <= bound.jobs + 1e-9
        assert sum(allocation.values()) == nodes

    @settings(max_examples=50, deadline=None)
    @given(
        random_profiles(),
        st.floats(min_value=100.0, max_value=1e6),
        st.integers(min_value=4, max_value=16),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_arbitrary_allocation_below_optimum(
        self, profile, budget, nodes, seed
    ):
        import numpy as np

        rng = np.random.default_rng(seed)
        modules = profile.modules
        if nodes < len(modules):
            return
        # Random positive integer allocation summing to `nodes`.
        cuts = sorted(
            rng.choice(
                range(1, nodes), size=len(modules) - 1, replace=False
            ).tolist()
        ) if len(modules) > 1 else []
        parts = []
        last = 0
        for cut in cuts + [nodes]:
            parts.append(cut - last)
            last = cut
        allocation = {m: float(c) for m, c in zip(modules, parts)}
        jobs_opt, _ = optimize_duplicates(
            profile, budget, nodes, integral=True
        )
        jobs_rand = jobs_for_duplicates(
            profile, budget, allocation, floor_jobs=True
        )
        assert jobs_rand <= jobs_opt + 1e-9


class TestMappingProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=2, max_value=9),
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=2,
            max_size=4,
        ),
    )
    def test_proportional_mapping_invariants(self, width, height, weights):
        topo = mesh2d(width, height)
        if topo.num_nodes < len(weights):
            return
        energies = {m + 1: w for m, w in enumerate(weights)}
        mapping = proportional_mapping(topo, energies)
        counts = mapping.duplicate_counts()
        # Total preserved, every module present.
        assert sum(counts.values()) == topo.num_nodes
        assert all(c >= 1 for c in counts.values())
        # Allocation ordered like the weights (up to integer rounding).
        heaviest = max(energies, key=lambda m: energies[m])
        lightest = min(energies, key=lambda m: energies[m])
        assert counts[heaviest] >= counts[lightest] - 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=4),
    )
    def test_uniform_mapping_balance(self, width, modules):
        topo = mesh2d(width)
        if topo.num_nodes < modules:
            return
        mapping = uniform_mapping(topo, num_modules=modules)
        counts = mapping.duplicate_counts()
        assert max(counts.values()) - min(counts.values()) <= 1


class TestHarvestProportionalMappingProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=2,
            max_size=4,
        ),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_uniform_income_degenerates_to_proportional(
        self, width, weights, level, bias
    ):
        """The income-aware mapping with a flat income picture — any
        constant, including the all-zero income of a harvest-free run —
        must reproduce the plain Theorem-1 mapping *exactly*, whatever
        the bias."""
        topo = mesh2d(width)
        if topo.num_nodes < len(weights):
            return
        energies = {m + 1: w for m, w in enumerate(weights)}
        income = [level] * topo.num_nodes
        aware = harvest_proportional_mapping(
            topo, energies, income, income_bias=bias
        )
        assert aware == proportional_mapping(topo, energies)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=2,
            max_size=4,
        ),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_mapping_stays_valid_under_any_income(
        self, width, weights, seed, bias
    ):
        import numpy as np

        topo = mesh2d(width)
        if topo.num_nodes < len(weights):
            return
        energies = {m + 1: w for m, w in enumerate(weights)}
        rng = np.random.default_rng(seed)
        income = rng.uniform(0.0, 50.0, size=topo.num_nodes).tolist()
        mapping = harvest_proportional_mapping(
            topo, energies, income, income_bias=bias
        )
        counts = mapping.duplicate_counts()
        # Every node mapped, every module instantiated.
        assert sum(counts.values()) == topo.num_nodes
        assert all(count >= 1 for count in counts.values())
        mapped = {
            node
            for module in range(1, mapping.num_modules + 1)
            for node in mapping.duplicates(module)
        }
        assert mapped == set(range(topo.num_nodes))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_income_aware_mapping_is_deterministic(self, width, seed, bias):
        import numpy as np

        topo = mesh2d(width)
        energies = {1: 2367.9, 2: 1710.3, 3: 3225.7}
        income = (
            np.random.default_rng(seed)
            .uniform(0.0, 50.0, size=topo.num_nodes)
            .tolist()
        )
        one = harvest_proportional_mapping(
            topo, energies, income, income_bias=bias
        )
        two = harvest_proportional_mapping(
            mesh2d(width), energies, list(income), income_bias=bias
        )
        assert one == two

    def test_concentrated_income_biases_duplicate_counts(self):
        """The second (supply-mass) pass genuinely moves Theorem-1
        duplicate counts: with the income concentrated on one corner
        block, the hungriest module captures the rich nodes in pass 1
        and needs fewer duplicates in pass 2."""
        topo = mesh2d(4)
        energies = {1: 2367.9, 2: 1710.3, 3: 3225.7}
        income = [40.0 if node < 4 else 0.0 for node in range(16)]
        plain = proportional_mapping(topo, energies).duplicate_counts()
        aware = harvest_proportional_mapping(
            topo, energies, income, income_bias=0.5
        ).duplicate_counts()
        assert plain == {1: 5, 2: 4, 3: 7}
        assert aware == {1: 6, 2: 4, 3: 6}
