"""Arithmetic in the AES finite field GF(2^8).

AES works in GF(2^8) with the reduction polynomial

    m(x) = x^8 + x^4 + x^3 + x + 1      (0x11B)

Bytes are polynomials over GF(2); addition is XOR and multiplication is
carry-less polynomial multiplication modulo ``m(x)``.  These routines are
deliberately written from first principles (no lookup tables) so that the
table-based fast paths elsewhere in the package can be *verified against
them* in the test suite.
"""

from __future__ import annotations

#: The AES reduction polynomial x^8 + x^4 + x^3 + x + 1.
REDUCTION_POLY = 0x11B


def xtime(a: int) -> int:
    """Multiply ``a`` by ``x`` (i.e. 0x02) in GF(2^8).

    This is the primitive used by FIPS-197 Sec 4.2.1: shift left one bit
    and, if the result overflows 8 bits, reduce by XOR with 0x1B.
    """
    a <<= 1
    if a & 0x100:
        a ^= REDUCTION_POLY
    return a & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiply two bytes in GF(2^8) by shift-and-add (Russian peasant)."""
    a &= 0xFF
    b &= 0xFF
    product = 0
    while b:
        if b & 1:
            product ^= a
        a = xtime(a)
        b >>= 1
    return product


def gf_pow(a: int, exponent: int) -> int:
    """Raise ``a`` to a non-negative integer power in GF(2^8)."""
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    result = 1
    base = a & 0xFF
    e = exponent
    while e:
        if e & 1:
            result = gf_mul(result, base)
        base = gf_mul(base, base)
        e >>= 1
    return result


def gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8), with the AES convention 0 -> 0.

    By Lagrange's theorem the multiplicative group of GF(2^8) has order
    255, so ``a^254`` is the inverse of any non-zero ``a``.
    """
    if a & 0xFF == 0:
        return 0
    return gf_pow(a, 254)
