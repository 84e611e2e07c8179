"""Property-based tests for the AES substrate (hypothesis).

The table-driven forward path is pinned byte for byte to the per-byte
FIPS-197 transcription in ``tests/aes_reference.py``: every transform,
the whole cipher, the dataflow walk and a simulated job's reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import aes_reference
from aes_reference import (
    decrypt_block,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    run_reference,
)
from repro.aes.cipher import encrypt_block
from repro.aes.dataflow import AesJobDataflow
from repro.aes.gf import gf_inverse, gf_mul
from repro.aes.transforms import (
    add_round_key,
    mix_columns,
    shift_rows,
    sub_bytes,
    sub_bytes_shift_rows,
)
from repro.sim.job import Job

blocks = st.binary(min_size=16, max_size=16)
keys128 = st.binary(min_size=16, max_size=16)
keys_any = st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
gf_bytes = st.integers(min_value=0, max_value=255)


class TestGfProperties:
    @given(gf_bytes, gf_bytes)
    def test_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(gf_bytes, gf_bytes, gf_bytes)
    def test_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(gf_bytes, gf_bytes, gf_bytes)
    def test_distributive_over_xor(self, a, b, c):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @given(st.integers(min_value=1, max_value=255))
    def test_inverse_property(self, a):
        assert gf_mul(a, gf_inverse(a)) == 1


class TestTransformProperties:
    @given(blocks)
    def test_sub_bytes_round_trip(self, block):
        assert inv_sub_bytes(sub_bytes(block)) == block

    @given(blocks)
    def test_shift_rows_round_trip(self, block):
        assert inv_shift_rows(shift_rows(block)) == block

    @given(blocks)
    def test_mix_columns_round_trip(self, block):
        assert inv_mix_columns(mix_columns(block)) == block

    @given(blocks, blocks)
    def test_add_round_key_involution(self, block, key):
        assert add_round_key(add_round_key(block, key), key) == block

    @given(blocks)
    def test_transforms_preserve_length(self, block):
        for transform in (sub_bytes, shift_rows, mix_columns):
            assert len(transform(block)) == 16

    @given(blocks, blocks)
    def test_mix_columns_linear_over_xor(self, a, b):
        xor = bytes(x ^ y for x, y in zip(a, b))
        mixed_xor = bytes(
            x ^ y for x, y in zip(mix_columns(a), mix_columns(b))
        )
        assert mix_columns(xor) == mixed_xor


class TestCipherProperties:
    @settings(max_examples=40)
    @given(blocks, keys_any)
    def test_encrypt_decrypt_round_trip(self, plaintext, key):
        assert decrypt_block(encrypt_block(plaintext, key), key) == plaintext

    @settings(max_examples=25)
    @given(blocks, keys128)
    def test_dataflow_agrees_with_cipher(self, plaintext, key):
        flow = AesJobDataflow(key)
        assert run_reference(flow, plaintext) == encrypt_block(plaintext, key)

    @settings(max_examples=25)
    @given(blocks, keys128)
    def test_encryption_not_identity(self, plaintext, key):
        # AES has no fixed blocks in practice for random inputs; more
        # robustly: encrypting twice differs from encrypting once.
        once = encrypt_block(plaintext, key)
        twice = encrypt_block(once, key)
        assert once != twice or plaintext == once


class TestFastPathMatchesOracle:
    @given(blocks)
    def test_sub_bytes(self, block):
        assert sub_bytes(block) == aes_reference.sub_bytes(block)

    @given(blocks)
    def test_shift_rows(self, block):
        assert shift_rows(block) == aes_reference.shift_rows(block)

    @given(blocks)
    def test_sub_bytes_shift_rows(self, block):
        assert sub_bytes_shift_rows(block) == (
            aes_reference.sub_bytes_shift_rows(block)
        )

    @given(blocks)
    def test_mix_columns(self, block):
        assert mix_columns(block) == aes_reference.mix_columns(block)

    @given(blocks, blocks)
    def test_add_round_key(self, block, key):
        assert add_round_key(block, key) == (
            aes_reference.add_round_key(block, key)
        )

    @settings(max_examples=40)
    @given(blocks, keys_any)
    def test_encrypt_block(self, plaintext, key):
        assert encrypt_block(plaintext, key) == (
            aes_reference.encrypt_block(plaintext, key)
        )

    @settings(max_examples=40)
    @given(blocks, keys_any)
    def test_dataflow_walk_and_job_reference(self, plaintext, key):
        expected = aes_reference.encrypt_block(plaintext, key)
        flow = AesJobDataflow(key)
        assert run_reference(flow, plaintext) == expected
        job = Job(0, plaintext, flow, origin=0)
        assert job._expected == expected
        while not job.completed:
            job.execute_current(0)
        assert job.state == expected and job.verify()
