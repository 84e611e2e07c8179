"""Unit tests for the generated S-box (repro.aes.sbox) and the test
oracle's inverse of it."""

from aes_reference import INV_SBOX, generate_inverse_sbox
from repro.aes.sbox import SBOX, generate_sbox
from repro.aes.vectors import SBOX_SPOT_VALUES


class TestSbox:
    def test_published_spot_values(self):
        for value, expected in SBOX_SPOT_VALUES.items():
            assert SBOX[value] == expected, hex(value)

    def test_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_has_no_fixed_points(self):
        # The AES S-box was designed without fixed points.
        assert all(SBOX[x] != x for x in range(256))

    def test_has_no_opposite_fixed_points(self):
        assert all(SBOX[x] != (x ^ 0xFF) for x in range(256))

    def test_generation_is_deterministic(self):
        assert generate_sbox() == SBOX


class TestInverseSbox:
    def test_round_trip(self):
        for value in range(256):
            assert INV_SBOX[SBOX[value]] == value
            assert SBOX[INV_SBOX[value]] == value

    def test_is_a_permutation(self):
        assert sorted(INV_SBOX) == list(range(256))

    def test_published_inverse_spot_value(self):
        # FIPS-197 Sec 5.3.2 example: InvSubBytes(0x63) = 0x00.
        assert INV_SBOX[0x63] == 0x00

    def test_generate_inverse_of_identity(self):
        identity = tuple(range(256))
        assert generate_inverse_sbox(identity) == identity
