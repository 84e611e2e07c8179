"""Unit tests for the simulator building blocks: jobs, workload, stats
(repro.sim)."""

import numpy as np
import pytest

import aes_reference
from repro.aes.cipher import encrypt_block
from repro.aes.dataflow import AesJobDataflow
from repro.errors import SimulationError
from repro.sim.job import Job
from repro.sim.stats import EnergyLedger, NodeStats, SimulationStats
from repro.sim.workload import JobFactory


class TestJob:
    def test_walks_the_dataflow(self):
        key = bytes(16)
        flow = AesJobDataflow(key)
        job = Job(0, bytes(16), flow, origin=99)
        assert job.holder == 99
        node = 0
        while not job.completed:
            job.execute_current(node)
            node += 1
        assert job.verify()
        assert job.holder == 29  # last executing node

    def test_tampered_state_fails_verification(self):
        flow = AesJobDataflow(bytes(16))
        job = Job(0, bytes(16), flow, origin=0)
        while not job.completed:
            job.execute_current(0)
        job.state = bytes(16)  # corrupt
        assert not job.verify()

    def test_progress_fraction(self):
        flow = AesJobDataflow(bytes(16))
        job = Job(0, bytes(16), flow, origin=0)
        assert job.progress_fraction == 0.0
        for _ in range(15):
            job.execute_current(0)
        assert job.progress_fraction == pytest.approx(0.5)

    def test_verify_before_completion_rejected(self):
        flow = AesJobDataflow(bytes(16))
        job = Job(0, bytes(16), flow, origin=0)
        with pytest.raises(SimulationError):
            job.verify()

    def test_current_op_after_completion_rejected(self):
        flow = AesJobDataflow(bytes(16))
        job = Job(0, bytes(16), flow, origin=0)
        while not job.completed:
            job.execute_current(0)
        with pytest.raises(SimulationError):
            _ = job.current_operation

    def test_expected_ciphertext_matches_reference(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes(range(16))
        flow = AesJobDataflow(key)
        job = Job(0, plaintext, flow, origin=0)
        while not job.completed:
            job.execute_current(1)
        assert job.state == encrypt_block(plaintext, key)


    @pytest.mark.parametrize(
        "key",
        [bytes(range(16)), bytes(range(32))],
        ids=["aes128", "aes256"],
    )
    def test_a_skipped_or_repeated_operation_fails_verification(self, key):
        flow = AesJobDataflow(key)
        plaintext = bytes(range(100, 116))
        expected = aes_reference.encrypt_block(plaintext, key)
        for faulty in range(flow.total_operations):
            skipped = Job(0, plaintext, flow, origin=0)
            repeated = Job(0, plaintext, flow, origin=0)
            assert skipped._expected == repeated._expected == expected
            while not skipped.completed:
                if skipped.op_index == faulty:
                    skipped.op_index += 1
                    continue
                skipped.execute_current(0)
            while not repeated.completed:
                if repeated.op_index == faulty:
                    repeated.execute_current(0)
                    repeated.op_index -= 1
                repeated.execute_current(0)
            assert not skipped.verify(), f"skipped operation {faulty}"
            assert not repeated.verify(), f"repeated operation {faulty}"

    def test_execute_after_completion_rejected(self):
        flow = AesJobDataflow(bytes(16))
        job = Job(0, bytes(16), flow, origin=0)
        while not job.completed:
            job.execute_current(0)
        with pytest.raises(SimulationError):
            job.execute_current(0)
        assert job.op_index == flow.total_operations


class TestJobFactory:
    def test_deterministic_given_seed(self):
        a = JobFactory(bytes(16), seed=7, origin=0)
        b = JobFactory(bytes(16), seed=7, origin=0)
        assert a.next_job().plaintext == b.next_job().plaintext

    def test_different_seeds_differ(self):
        a = JobFactory(bytes(16), seed=7, origin=0).next_job()
        b = JobFactory(bytes(16), seed=8, origin=0).next_job()
        assert a.plaintext != b.plaintext

    def test_plaintexts_are_the_generators_draws(self):
        factory = JobFactory(bytes(16), seed=11, origin=0)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            draw = bytes(int(b) for b in rng.integers(0, 256, size=16))
            assert factory.next_job().plaintext == draw

    def test_ids_sequential(self):
        factory = JobFactory(bytes(16), seed=1, origin=0)
        assert [factory.next_job().job_id for _ in range(3)] == [0, 1, 2]
        assert factory.created == 3


class TestEnergyLedger:
    def test_buckets_accumulate(self):
        ledger = EnergyLedger(4)
        ledger.add_compute(0, 100.0)
        ledger.add_data_tx(0, 50.0, relay=False)
        ledger.add_data_tx(1, 25.0, relay=True)
        ledger.upload_pj += 5.0  # the engines book uploads frame-wide
        assert ledger.compute_pj == 100.0
        assert ledger.data_tx_pj == 75.0
        assert ledger.node_total_pj == 180.0
        assert ledger.nodes.operations.tolist() == [1, 0, 0, 0]
        assert ledger.nodes.packets_sent.tolist() == [1, 1, 0, 0]
        assert ledger.nodes.packets_relayed.tolist() == [0, 1, 0, 0]

    def test_controller_breakdown(self):
        ledger = EnergyLedger(2)
        ledger.add_controller({"rx": 10.0, "download_tx": 4.0})
        ledger.add_controller({"rx": 5.0})
        assert ledger.controller_pj["rx"] == 15.0
        assert ledger.controller_total_pj == 19.0

    def test_control_overhead_metric(self):
        # The paper's Sec 7.1 metric counts only medium exchanges.
        ledger = EnergyLedger(2)
        ledger.add_compute(0, 900.0)
        ledger.upload_pj += 50.0
        ledger.add_controller({"rx": 1000.0, "download_tx": 50.0})
        assert ledger.control_medium_pj == 100.0
        assert ledger.control_overhead_fraction() == pytest.approx(0.1)

    def test_death_marked_once(self):
        ledger = EnergyLedger(2)
        ledger.mark_death(0, 10)
        ledger.mark_death(0, 20)
        assert ledger.nodes.died_at_frame.tolist() == [10, -1]


class TestSimulationStats:
    def test_fractional_jobs(self):
        stats = SimulationStats(jobs_completed=10, partial_progress=0.8)
        assert stats.jobs_fractional == pytest.approx(10.8)

    def test_summary_is_json_safe(self):
        import json

        stats = SimulationStats(energy=EnergyLedger(2))
        json.dumps(stats.summary())

    def test_node_stats_total(self):
        stats = NodeStats(2)
        stats.compute_pj[0] = 1.0
        stats.data_tx_pj[0] = 2.0
        stats.upload_pj[1] = 3.0
        stats.share_tx_pj[1] = 4.0
        assert stats.total_pj.tolist() == [3.0, 7.0]
