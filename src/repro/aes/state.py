"""The AES state layout and conversions.

FIPS-197 arranges the 16 input bytes into a 4x4 *state* array column by
column: ``state[r][c] = input[r + 4*c]``.  The transforms in this package
take and return the flat 16-byte representation in that layout, as whole
immutable blocks; this module provides the validation every transform
applies to its input.
"""

from __future__ import annotations

#: Number of 32-bit words in the state (fixed at 4 for AES).
NB = 4

#: Number of bytes in one AES block.
BLOCK_BYTES = 4 * NB


def validate_block(block: bytes, name: str = "block") -> bytes:
    """Check that ``block`` is exactly one AES block (16 bytes)."""
    if not isinstance(block, (bytes, bytearray)):
        raise TypeError(f"{name} must be bytes, got {type(block).__name__}")
    if len(block) != BLOCK_BYTES:
        raise ValueError(
            f"{name} must be exactly {BLOCK_BYTES} bytes, got {len(block)}"
        )
    return bytes(block)
