"""Unit tests for the vectorised engine's internal machinery.

The cross-engine property suite pins the *observable* agreements
(jobs, conservation, event counts); these tests reach into the
engine itself: its mesh cells and live-node set, the deferred draw
buckets, the upload-vector cache and the finalisation-time
conservation check.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import build_engine, make_config
from repro.errors import DeadNodeError, SimulationError
from repro.sim.vector_engine import VectorEngine


def vector_config(**kwargs):
    kwargs.setdefault("engine", "vector")
    kwargs.setdefault("max_jobs", 5)
    kwargs.setdefault("seed", 11)
    return make_config(**kwargs)


class TestRunBehaviour:
    def test_smoke_run_completes_the_job_budget(self):
        engine = build_engine(vector_config())
        assert isinstance(engine, VectorEngine)
        summary = engine.run().summary()
        assert summary["jobs_completed"] == 5
        assert summary["death_cause"] == "job-budget"
        assert summary["verification_failures"] == 0

    @pytest.mark.parametrize("battery", ["ideal", "thin-film"])
    def test_matches_sequential_jobs_on_a_budget(self, battery):
        results = {}
        for engine_name in ("sequential", "vector"):
            config = vector_config(engine=engine_name, battery=battery)
            results[engine_name] = build_engine(config).run().summary()
        assert (
            results["vector"]["jobs_completed"]
            == results["sequential"]["jobs_completed"]
        )

    def test_ledger_merge_is_idempotent(self):
        engine = build_engine(vector_config())
        engine.run()
        booked = engine.ledger.node_total_pj
        engine._merge_ledger()  # _finalize already merged once
        assert engine.ledger.node_total_pj == booked

    def test_conservation_check_trips_on_a_cooked_ledger(self):
        engine = build_engine(vector_config())
        engine.run()
        engine._assert_conservation()  # closes on an honest run
        engine.ledger.data_tx_pj += 123.0
        with pytest.raises(SimulationError, match="conservation"):
            engine._assert_conservation()


class TestDeferredDraws:
    def test_buckets_empty_after_every_flush(self):
        engine = build_engine(vector_config())
        engine.run()
        assert not engine._hop_senders
        assert not engine._hop_energies
        assert not engine._compute_nodes
        assert not engine._compute_energies

    def test_upload_vector_cache_drops_on_death(self):
        engine = build_engine(vector_config())
        engine._flush_buckets(upload=True)
        assert engine._upload_vectors is not None
        victim = 5
        engine.bank.alive[victim] = False
        engine.on_node_death(victim)
        assert engine._upload_vectors is None
        engine._flush_buckets(upload=True)
        upload_req, upload_dur = engine._upload_vectors
        assert upload_req[victim] == 0.0
        assert upload_dur[victim] == 0.0
        survivors = np.flatnonzero(upload_req)
        assert victim not in survivors
        assert len(survivors) > 0

    def test_fault_killed_nodes_pay_no_upload(self):
        engine = build_engine(vector_config())
        victim = 7
        engine._killed[victim] = True
        engine.on_node_death(victim)
        engine._flush_buckets(upload=True)
        upload_req, _ = engine._upload_vectors
        assert upload_req[victim] == 0.0


class TestMeshNodes:
    """The vector engine keeps the base engine's mesh cells: one bank
    index per node id, one kill record and one live-node set."""

    def test_killed_node_rejects_draws(self):
        """A fault-killed node and a node whose cell a draw exhausted
        both reject draws: drawing from either is a simulator bug."""
        engine = build_engine(vector_config())
        engine._killed[3] = True
        engine.on_node_death(3)
        assert engine._draw(4, engine.bank.capacity_pj, 16.0).died
        engine.on_node_death(4)
        for node in (3, 4):
            with pytest.raises(DeadNodeError):
                engine._draw(node, 1.0, 16.0)

    def test_source_has_no_cell(self):
        engine = build_engine(vector_config())
        mesh = engine.num_mesh_nodes
        assert engine.source == mesh
        assert len(engine.bank.alive) == len(engine._killed) == mesh
        assert engine.source in engine._alive_set
