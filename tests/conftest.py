"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from helpers import make_config, make_view
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import mesh2d


@pytest.fixture
def mesh4() :
    """A paper-default 4x4 mesh topology."""
    return mesh2d(4)


@pytest.fixture
def mapping4(mesh4):
    """The paper's checkerboard mapping on the 4x4 mesh."""
    return checkerboard_mapping(mesh4)


@pytest.fixture
def full_view(mesh4, mapping4):
    """A network view with every node alive at full battery."""
    return make_view(mesh4, mapping4)


@pytest.fixture
def small_sim_config():
    """A fast-to-run 4x4 simulation configuration."""
    return make_config(max_frames=50_000)


@pytest.fixture
def budget_sim_config():
    """A configuration capped at a handful of jobs (sub-second runs)."""
    return make_config(max_jobs=3, max_frames=50_000)
