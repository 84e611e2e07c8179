"""EXP-RT — paper Sec 6 complexity claim.

"For either EAR or SDR, the complexity is O(n^3), the hidden constants
are small and most of the running time is spent in the second phase.
Thus, EAR and SDR are practical for graphs consisting of tens to a few
hundreds of nodes."

This bench times one full routing computation (phases 1-3) at increasing
node counts and checks the practicality claim directly.  Phase 2 grows
per-module shortest-path trees instead of the paper's all-pairs
Floyd–Warshall, so the full-scale table reaches garment-sized fabrics
(32x32, over a thousand nodes).
"""

import time

import numpy as np

from repro.analysis.tables import format_table
from repro.core.engines import EnergyAwareRouting
from repro.core.trees import line_slots
from repro.core.view import NetworkView
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import mesh2d


def make_view(width: int) -> NetworkView:
    topology = mesh2d(width)
    mapping = checkerboard_mapping(topology)
    size = topology.num_nodes
    rng = np.random.default_rng(width)
    neighbors, lengths = line_slots(topology)
    return NetworkView(
        neighbors=neighbors,
        edge_lengths=lengths,
        alive=np.ones(size, dtype=bool),
        battery_levels=rng.integers(0, 8, size=size),
        levels=8,
        mapping=mapping,
    )


def test_routing_runtime_8x8(benchmark, reporter):
    """pytest-benchmark timing of one recomputation on the 8x8 mesh."""
    engine = EnergyAwareRouting()
    view = make_view(8)
    benchmark(engine.compute_plan, view)

    # Scaling table across mesh sizes, measured once each.
    from bench_plumbing import bench_widths

    rows = []
    for width in bench_widths((4, 8, 16, 24, 32), smoke=(4, 8)):
        sample_view = make_view(width)
        start = time.perf_counter()
        repeats = 5
        for _ in range(repeats):
            engine.compute_plan(sample_view)
        elapsed = (time.perf_counter() - start) / repeats
        rows.append((width * width, round(1e3 * elapsed, 3)))
    table = format_table(
        ["nodes", "routing computation (ms)"],
        rows,
        title=(
            "Sec 6 — EAR routing computation time "
            "(phases 1-3, per-module shortest-path trees)"
        ),
    )
    reporter.add("Routing runtime scaling", table)

    # The paper's practicality claim: a few hundred nodes stay fast.
    biggest_ms = rows[-1][1]
    assert biggest_ms < 500.0
