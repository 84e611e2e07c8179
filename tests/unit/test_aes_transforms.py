"""Unit tests for the AES round transforms (repro.aes.transforms)."""

import pytest

import aes_reference
from aes_reference import (
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    inv_sub_bytes_shift_rows,
)
from repro.aes.transforms import (
    add_round_key,
    mix_columns,
    shift_rows,
    sub_bytes,
    sub_bytes_shift_rows,
)

#: FIPS-197 Appendix B round-1 intermediate states.
START_R1 = bytes.fromhex("193de3bea0f4e22b9ac68d2ae9f84808")
AFTER_SUB = bytes.fromhex("d42711aee0bf98f1b8b45de51e415230")
AFTER_SHIFT = bytes.fromhex("d4bf5d30e0b452aeb84111f11e2798e5")
AFTER_MIX = bytes.fromhex("046681e5e0cb199a48f8d37a2806264c")
ROUND_KEY_1 = bytes.fromhex("a0fafe1788542cb123a339392a6c7605")
AFTER_ARK = bytes.fromhex("a49c7ff2689f352b6b5bea43026a5049")


class TestStateLayout:
    def test_column_major_layout(self):
        # state[r][c] = input[r + 4c]: row r is bytes r, r+4, r+8, r+12,
        # so ShiftRows keeps row 0 in place and rotates the others.
        block = bytes(range(16))
        shifted = shift_rows(block)
        assert shifted == bytes.fromhex("00050a0f04090e03080d02070c01060b")
        assert shifted[0::4] == block[0::4]

    def test_state_index(self):
        # Byte r + 4c is row r of column c: MixColumns spreads it over
        # the four bytes of column c and touches no other column.
        for row, column in ((0, 0), (1, 2), (3, 3)):
            block = bytearray(16)
            block[row + 4 * column] = 1
            mixed = mix_columns(bytes(block))
            own = range(4 * column, 4 * column + 4)
            assert all(mixed[i] for i in own)
            assert not any(mixed[i] for i in range(16) if i not in own)

    def test_bad_block_rejected(self):
        with pytest.raises(ValueError):
            sub_bytes(b"short")
        with pytest.raises(TypeError):
            sub_bytes("not-bytes")  # type: ignore[arg-type]


class TestSubBytes:
    def test_fips_appendix_b_round1(self):
        assert sub_bytes(START_R1) == AFTER_SUB

    def test_inverse_round_trip(self):
        assert inv_sub_bytes(sub_bytes(START_R1)) == START_R1


class TestShiftRows:
    def test_fips_appendix_b_round1(self):
        assert shift_rows(AFTER_SUB) == AFTER_SHIFT

    def test_row0_unchanged(self):
        block = bytes(range(16))
        shifted = shift_rows(block)
        # Row 0 lives at indices 0, 4, 8, 12 and must not move.
        for col in range(4):
            assert shifted[4 * col] == block[4 * col]

    def test_inverse_round_trip(self):
        block = bytes(range(16))
        assert inv_shift_rows(shift_rows(block)) == block

    def test_four_applications_identity(self):
        block = bytes(range(16))
        result = block
        for _ in range(4):
            result = shift_rows(result)
        assert result == block


class TestMixColumns:
    def test_fips_appendix_b_round1(self):
        assert mix_columns(AFTER_SHIFT) == AFTER_MIX

    def test_inverse_round_trip(self):
        assert inv_mix_columns(mix_columns(AFTER_SHIFT)) == AFTER_SHIFT

    def test_known_single_column(self):
        # Widely published MixColumns vector: db135345 -> 8e4da1bc.
        column = bytes.fromhex("db135345") + bytes(12)
        mixed = mix_columns(column)
        assert mixed[:4] == bytes.fromhex("8e4da1bc")


class TestAddRoundKey:
    def test_fips_appendix_b_round1(self):
        assert add_round_key(AFTER_MIX, ROUND_KEY_1) == AFTER_ARK

    def test_is_an_involution(self):
        assert add_round_key(AFTER_ARK, ROUND_KEY_1) == AFTER_MIX

    def test_zero_key_is_identity(self):
        assert add_round_key(START_R1, bytes(16)) == START_R1


class TestFusedModule1:
    def test_matches_separate_transforms(self):
        assert sub_bytes_shift_rows(START_R1) == shift_rows(
            sub_bytes(START_R1)
        )

    def test_inverse_round_trip(self):
        fused = sub_bytes_shift_rows(START_R1)
        assert inv_sub_bytes_shift_rows(fused) == START_R1


class TestReferenceTranscription:
    """The per-byte oracle the fast path is pinned to, on the same
    FIPS-197 Appendix B round states."""

    def test_fips_appendix_b_round1(self):
        assert aes_reference.sub_bytes(START_R1) == AFTER_SUB
        assert aes_reference.shift_rows(AFTER_SUB) == AFTER_SHIFT
        assert aes_reference.sub_bytes_shift_rows(START_R1) == AFTER_SHIFT
        assert aes_reference.mix_columns(AFTER_SHIFT) == AFTER_MIX
        assert aes_reference.add_round_key(AFTER_MIX, ROUND_KEY_1) == AFTER_ARK

    def test_known_single_column(self):
        column = bytes.fromhex("db135345") + bytes(12)
        assert aes_reference.mix_columns(column)[:4] == bytes.fromhex("8e4da1bc")

    def test_bad_block_rejected(self):
        for transform in (
            aes_reference.sub_bytes,
            aes_reference.shift_rows,
            aes_reference.mix_columns,
        ):
            with pytest.raises(ValueError):
                transform(b"short")


class TestFastPathValidation:
    """Every fast transform still validates every input block."""

    @pytest.mark.parametrize(
        "transform",
        [sub_bytes, shift_rows, sub_bytes_shift_rows, mix_columns],
        ids=lambda f: f.__name__,
    )
    def test_rejects_bad_blocks(self, transform):
        with pytest.raises(ValueError):
            transform(bytes(15))
        with pytest.raises(TypeError):
            transform("0123456789abcdef")  # type: ignore[arg-type]

    def test_add_round_key_rejects_bad_blocks_and_keys(self):
        with pytest.raises(ValueError):
            add_round_key(bytes(17), bytes(16))
        with pytest.raises(ValueError):
            add_round_key(bytes(16), bytes(15))
        with pytest.raises(TypeError):
            add_round_key(bytes(16), list(range(16)))  # type: ignore[arg-type]

    def test_bytearray_input_gives_bytes(self):
        block = bytearray(START_R1)
        for transform in (sub_bytes, shift_rows, sub_bytes_shift_rows, mix_columns):
            assert type(transform(block)) is bytes
        assert type(add_round_key(block, bytearray(ROUND_KEY_1))) is bytes
