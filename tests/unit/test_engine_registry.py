"""The engine registry and the ``SimulationConfig.engine`` field."""

from __future__ import annotations

import pytest

from helpers import make_config
from repro.config import ENGINE_NAMES, SimulationConfig
from repro.errors import ConfigurationError, SimulationError
from repro.orchestration.cache import config_hash
from repro.sim import ENGINE_REGISTRY
from repro.sim.concurrent_engine import ConcurrentEngine
from repro.sim.et_sim import run_simulation
from repro.sim.job import Job
from repro.sim.registry import build_engine
from repro.sim.sequential_engine import SequentialEngine
from repro.sim.vector_engine import VectorEngine


class TestRegistry:
    def test_registry_names_match_the_config_constant(self):
        # "auto" is a config-level alias, never a registry key.
        assert set(ENGINE_REGISTRY) == set(ENGINE_NAMES) - {"auto"}

    @pytest.mark.parametrize(
        "engine, expected",
        [
            ("sequential", SequentialEngine),
            ("concurrent", ConcurrentEngine),
            ("vector", VectorEngine),
        ],
    )
    def test_explicit_name_selects_the_engine(self, engine, expected):
        built = build_engine(make_config(engine=engine))
        assert type(built) is expected

    def test_auto_resolves_by_workload_kind(self):
        sequential = build_engine(make_config(kind="sequential"))
        assert type(sequential) is SequentialEngine
        concurrent = build_engine(
            make_config(kind="concurrent", concurrency=2)
        )
        assert type(concurrent) is ConcurrentEngine

    def test_registry_build_rejects_unregistered_names(self):
        config = make_config()
        object.__setattr__(config, "engine", "warp")
        with pytest.raises(ConfigurationError, match="warp"):
            build_engine(config)

    def test_unknown_engine_name_is_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            make_config(engine="warp")


class TestRunSimulation:
    @pytest.mark.parametrize("kind", ["sequential", "concurrent"])
    def test_a_job_failing_verification_is_a_simulation_error(
        self, kind, monkeypatch
    ):
        # A corrupted ciphertext is a simulator fault, not a bad
        # configuration.
        monkeypatch.setattr(Job, "verify", lambda self: False)
        config = make_config(
            kind=kind, concurrency=2 if kind == "concurrent" else 1, max_jobs=2
        )
        with pytest.raises(SimulationError, match="failed AES verification"):
            run_simulation(config)


class TestConfigField:
    def test_engine_survives_the_dict_round_trip(self):
        config = make_config(engine="vector")
        restored = SimulationConfig.from_dict(config.to_dict())
        assert restored.engine == "vector"
        assert restored == config

    def test_pre_engine_payloads_default_to_auto(self):
        data = make_config().to_dict()
        del data["engine"]
        assert SimulationConfig.from_dict(data).engine == "auto"

    def test_resolved_engine(self):
        assert make_config().resolved_engine() == "sequential"
        assert (
            make_config(kind="concurrent", concurrency=2).resolved_engine()
            == "concurrent"
        )
        assert make_config(engine="vector").resolved_engine() == "vector"


class TestCacheHashStability:
    def test_auto_and_explicit_default_engine_hash_identically(self):
        """Pre-field cache entries must keep hitting: spelling out the
        engine ``"auto"`` would pick cannot change the key."""
        auto = make_config(engine="auto")
        explicit = make_config(engine="sequential")
        assert config_hash(auto) == config_hash(explicit)

    def test_concurrent_workloads_normalise_their_own_default(self):
        auto = make_config(kind="concurrent", concurrency=2)
        explicit = make_config(
            kind="concurrent", concurrency=2, engine="concurrent"
        )
        assert config_hash(auto) == config_hash(explicit)

    def test_overriding_engine_forks_the_hash(self):
        assert config_hash(make_config(engine="vector")) != config_hash(
            make_config()
        )

    def test_engine_key_is_absent_from_the_normalised_payload(self):
        """The seed-era payload had no ``engine`` key at all, so the
        normalised form must match it byte for byte."""
        data = make_config().to_dict()
        assert data.pop("engine") == "auto"
        legacy_style = make_config()
        assert config_hash(legacy_style) == config_hash(
            SimulationConfig.from_dict(data)
        )
