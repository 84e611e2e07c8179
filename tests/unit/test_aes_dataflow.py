"""Unit tests for the distributed-AES job dataflow."""

import pytest

import aes_reference
from repro.aes.cipher import encrypt_block
from repro.aes.dataflow import (
    AesJobDataflow,
    MODULE_ADDROUNDKEY,
    MODULE_MIXCOLUMNS,
    MODULE_SUBBYTES_SHIFTROWS,
    operation_sequence,
    operations_per_module,
)
from repro.aes.energy import AES_MODULE_ENERGIES_PJ, module_energy_pj
from repro.aes.key_expansion import round_keys
from repro.errors import ConfigurationError


class TestOperationSequence:
    def test_paper_f_values_for_aes128(self):
        # Paper Sec 3: f1=10, f2=9, f3=11 for 128-bit AES.
        assert operations_per_module(10) == {1: 10, 2: 9, 3: 11}

    def test_total_operations(self):
        assert len(operation_sequence(10)) == 30

    def test_starts_with_initial_add_round_key(self):
        ops = operation_sequence(10)
        assert ops[0].module == MODULE_ADDROUNDKEY
        assert ops[0].round == 0

    def test_final_round_has_no_mixcolumns(self):
        ops = operation_sequence(10)
        final_round_ops = [op for op in ops if op.round == 10]
        assert [op.module for op in final_round_ops] == [
            MODULE_SUBBYTES_SHIFTROWS,
            MODULE_ADDROUNDKEY,
        ]

    def test_middle_round_structure(self):
        ops = operation_sequence(10)
        round5 = [op.module for op in ops if op.round == 5]
        assert round5 == [
            MODULE_SUBBYTES_SHIFTROWS,
            MODULE_MIXCOLUMNS,
            MODULE_ADDROUNDKEY,
        ]

    def test_indices_are_sequential(self):
        ops = operation_sequence(10)
        assert [op.index for op in ops] == list(range(30))

    def test_generalizes_to_other_round_counts(self):
        assert operations_per_module(12) == {1: 12, 2: 11, 3: 13}
        assert operations_per_module(14) == {1: 14, 2: 13, 3: 15}

    def test_bad_round_count_rejected(self):
        with pytest.raises(ValueError):
            operation_sequence(0)

    def test_operation_name_readable(self):
        op = operation_sequence(10)[1]
        assert "SubBytes" in op.name and "r1" in op.name


class TestAesJobDataflow:
    def test_distributed_equals_monolithic(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        flow = AesJobDataflow(key)
        assert aes_reference.run_reference(flow, plaintext) == encrypt_block(
            plaintext, key
        )

    def test_apply_index_steps_match_sequence(self):
        flow = AesJobDataflow(bytes(16))
        state = bytes(16)
        for index in range(flow.total_operations):
            state = flow.apply_index(index, state)
        assert state == encrypt_block(bytes(16), bytes(16))

    def test_aes256_dataflow(self):
        flow = AesJobDataflow(bytes(32))
        assert flow.rounds == 14
        # f1 + f2 + f3 = Nr + (Nr-1) + (Nr+1) = 3*Nr = 42 operations.
        assert flow.total_operations == 42
        assert aes_reference.run_reference(flow, bytes(16)) == encrypt_block(
            bytes(16), bytes(32)
        )

    def test_schedule_is_expanded_once_and_bound_per_operation(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        flow = AesJobDataflow(key)
        assert flow.schedule == tuple(round_keys(key))
        assert len(flow.steps) == flow.total_operations == 30
        oracle = {
            MODULE_SUBBYTES_SHIFTROWS: aes_reference.sub_bytes_shift_rows,
            MODULE_MIXCOLUMNS: aes_reference.mix_columns,
        }
        state = bytes(range(16))
        for op, step in zip(flow.operations, flow.steps):
            if op.module == MODULE_ADDROUNDKEY:
                expected = aes_reference.add_round_key(
                    state, flow.schedule[op.round]
                )
            else:
                expected = oracle[op.module](state)
            assert step(state) == expected
            assert flow.apply_index(op.index, state) == expected

    def test_jobs_never_expand_the_key_again(self, monkeypatch):
        from repro.aes import cipher, key_expansion
        from repro.sim.workload import JobFactory

        factory = JobFactory(bytes(16), seed=3, origin=0)

        def expand(key):
            raise AssertionError("key expanded again")

        monkeypatch.setattr(cipher, "round_keys", expand)
        monkeypatch.setattr(key_expansion, "round_keys", expand)
        job = factory.next_job()
        while not job.completed:
            job.execute_current(0)
        assert job.verify()

    def test_module_of(self):
        flow = AesJobDataflow(bytes(16))
        assert flow.module_of(0) == MODULE_ADDROUNDKEY
        assert flow.module_of(1) == MODULE_SUBBYTES_SHIFTROWS


class TestModuleEnergies:
    def test_paper_values(self):
        # Paper Sec 5.1.1.
        assert AES_MODULE_ENERGIES_PJ[1] == pytest.approx(120.1)
        assert AES_MODULE_ENERGIES_PJ[2] == pytest.approx(73.34)
        assert AES_MODULE_ENERGIES_PJ[3] == pytest.approx(176.55)

    def test_lookup_helper(self):
        assert module_energy_pj(3) == pytest.approx(176.55)

    def test_unknown_module_rejected(self):
        with pytest.raises(ConfigurationError):
            module_energy_pj(4)
