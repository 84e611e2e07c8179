"""The AES S-box, generated from first principles.

Rather than hard-coding the 256-entry table from FIPS-197, the S-box is
*derived*: each byte is replaced by its multiplicative inverse in GF(2^8)
followed by the fixed affine transformation over GF(2)

    b'_i = b_i ^ b_{(i+4) mod 8} ^ b_{(i+5) mod 8}
               ^ b_{(i+6) mod 8} ^ b_{(i+7) mod 8} ^ c_i

with ``c = 0x63``.  The test suite checks the generated table against the
published FIPS-197 spot values, and its inverse against a full
round-trip property.
"""

from __future__ import annotations

from .gf import gf_inverse

#: The affine constant from FIPS-197 Sec 5.1.1.
AFFINE_CONSTANT = 0x63


def _affine_transform(byte: int) -> int:
    """Apply the AES affine transformation over GF(2) to one byte."""
    result = 0
    for i in range(8):
        bit = (
            (byte >> i)
            ^ (byte >> ((i + 4) % 8))
            ^ (byte >> ((i + 5) % 8))
            ^ (byte >> ((i + 6) % 8))
            ^ (byte >> ((i + 7) % 8))
            ^ (AFFINE_CONSTANT >> i)
        ) & 1
        result |= bit << i
    return result


def generate_sbox() -> tuple[int, ...]:
    """Generate the 256-entry AES S-box from the GF(2^8) inverse map."""
    return tuple(_affine_transform(gf_inverse(x)) for x in range(256))


#: The forward S-box used by SubBytes.
SBOX: tuple[int, ...] = generate_sbox()
