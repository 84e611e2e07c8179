"""Unit tests for GF(2^8) arithmetic (repro.aes.gf)."""

import pytest

from aes_reference import gf_dot
from repro.aes.gf import gf_inverse, gf_mul, gf_pow, xtime


class TestXtime:
    def test_doubles_small_values(self):
        assert xtime(0x01) == 0x02
        assert xtime(0x02) == 0x04
        assert xtime(0x40) == 0x80

    def test_reduces_on_overflow(self):
        # FIPS-197 Sec 4.2.1 worked example: xtime(0x80) = 0x1B.
        assert xtime(0x80) == 0x1B

    def test_fips_example_chain(self):
        # {57} * {02} chain from FIPS-197 Sec 4.2.
        assert xtime(0x57) == 0xAE
        assert xtime(0xAE) == 0x47
        assert xtime(0x47) == 0x8E
        assert xtime(0x8E) == 0x07

    def test_result_always_a_byte(self):
        for value in range(256):
            assert 0 <= xtime(value) <= 0xFF


class TestMul:
    def test_fips_worked_example(self):
        # FIPS-197 Sec 4.2: {57} x {13} = {fe}.
        assert gf_mul(0x57, 0x13) == 0xFE

    def test_multiplication_by_zero(self):
        for value in (0x00, 0x01, 0x53, 0xFF):
            assert gf_mul(value, 0) == 0
            assert gf_mul(0, value) == 0

    def test_multiplication_by_one_is_identity(self):
        for value in range(256):
            assert gf_mul(value, 1) == value

    def test_commutativity_exhaustive_sample(self):
        for a in range(0, 256, 17):
            for b in range(0, 256, 13):
                assert gf_mul(a, b) == gf_mul(b, a)

    def test_distributes_over_xor(self):
        for a, b, c in [(0x57, 0x83, 0x1B), (0xCA, 0x35, 0xF0)]:
            assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestPow:
    def test_zeroth_power_is_one(self):
        assert gf_pow(0x57, 0) == 1

    def test_first_power_is_identity(self):
        assert gf_pow(0x57, 1) == 0x57

    def test_square_matches_mul(self):
        for value in (0x02, 0x57, 0xCA):
            assert gf_pow(value, 2) == gf_mul(value, value)

    def test_order_of_multiplicative_group(self):
        # Every non-zero element satisfies a^255 == 1.
        for value in (0x01, 0x02, 0x03, 0x57, 0xFF):
            assert gf_pow(value, 255) == 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            gf_pow(0x02, -1)


class TestInverse:
    def test_zero_maps_to_zero(self):
        assert gf_inverse(0) == 0

    def test_inverse_of_one(self):
        assert gf_inverse(1) == 1

    def test_all_nonzero_elements_invert(self):
        for value in range(1, 256):
            assert gf_mul(value, gf_inverse(value)) == 1

    def test_inverse_is_involution(self):
        for value in range(256):
            assert gf_inverse(gf_inverse(value)) == value


class TestDot:
    def test_matches_manual_expansion(self):
        coeffs = (0x02, 0x03, 0x01, 0x01)
        values = (0xD4, 0xBF, 0x5D, 0x30)
        # First MixColumns output byte of the FIPS-197 Appendix B round 1.
        expected = (
            gf_mul(0x02, 0xD4)
            ^ gf_mul(0x03, 0xBF)
            ^ gf_mul(0x01, 0x5D)
            ^ gf_mul(0x01, 0x30)
        )
        assert gf_dot(coeffs, values) == expected == 0x04

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gf_dot((1, 2), (1, 2, 3))
