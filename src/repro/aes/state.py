"""The AES state layout and conversions.

FIPS-197 arranges the 16 input bytes into a 4x4 *state* array column by
column: ``state[r][c] = input[r + 4*c]``.  The transforms in this package
take and return the flat 16-byte representation in that layout, as whole
immutable blocks; this module provides the explicit conversions plus the
validation every transform applies to its input.
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


def bytes_to_grid(block: bytes) -> list[list[int]]:
    """Convert a flat 16-byte block into the 4x4 column-major state grid."""
    validate_block(block)
    return [[block[r + 4 * c] for c in range(NB)] for r in range(4)]


def grid_to_bytes(grid: list[list[int]]) -> bytes:
    """Convert a 4x4 state grid back to the flat 16-byte representation."""
    if len(grid) != 4 or any(len(row) != NB for row in grid):
        raise ValueError("state grid must be 4x4")
    return bytes(grid[r][c] for c in range(NB) for r in range(4))


def state_index(row: int, col: int) -> int:
    """Flat index of state cell ``(row, col)`` in the 16-byte layout."""
    if not (0 <= row < 4 and 0 <= col < NB):
        raise IndexError(f"state cell ({row}, {col}) out of range")
    return row + 4 * col
