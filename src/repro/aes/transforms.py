"""The four AES round transformations.

All transforms take and return a flat 16-byte block in the FIPS-197
column-major layout (``state[r][c] == block[r + 4*c]``, see
:mod:`repro.aes.state`).  They are pure functions: the simulator treats
each as the unit of computation performed by one e-textile module
(Sec 5.1.1 of the paper), so keeping them side-effect free makes the
distributed execution trivially checkable against the monolithic cipher.

The forward transforms run inside every simulated act of computation,
so each is a whole-block operation on tables built once at import:
SubBytes is one ``bytes.translate`` through the S-box, ShiftRows one
fixed byte permutation, AddRoundKey one 128-bit integer XOR, and
MixColumns a ``x2`` translate plus byte rotations within each column of
the block read as one 128-bit integer.  The test suite pins every one of
them, byte for byte, to a per-byte FIPS-197 transcription, which also
holds the inverse transforms: jobs only encrypt.
"""

from __future__ import annotations

from operator import itemgetter

from .gf import gf_mul
from .sbox import SBOX
from .state import BLOCK_BYTES, validate_block

#: The S-box as a ``bytes.translate`` table.
_SUB_TABLE = bytes(SBOX)

#: ``gf_mul(2, b)`` for every byte, as a ``bytes.translate`` table.
_DOUBLE_TABLE = bytes(gf_mul(2, value) for value in range(256))

#: ShiftRows as a gather: output byte ``r + 4c`` is input byte
#: ``r + 4((c + r) mod 4)``.
_SHIFT_ROWS = itemgetter(
    *((i % 4) + 4 * ((i // 4 + i % 4) % 4) for i in range(BLOCK_BYTES))
)


# Read big-endian, each column is one 32-bit word with row 0 as its most
# significant byte.  Rotating every column by ``k`` rows moves row
# ``r + k`` into row ``r``: the bytes shifted up stay inside their column
# under the HIGH mask, and the ones that would cross into the next column
# come back in from below under the LOW mask.  Multiplying a 32-bit
# pattern by ``_COLUMNS`` repeats it over the four columns.
_COLUMNS = 0x00000001_00000001_00000001_00000001
_ROT1_HIGH, _ROT1_LOW = 0xFFFFFF00 * _COLUMNS, 0x000000FF * _COLUMNS
_ROT2_HIGH, _ROT2_LOW = 0xFFFF0000 * _COLUMNS, 0x0000FFFF * _COLUMNS
_ROT3_HIGH, _ROT3_LOW = 0xFF000000 * _COLUMNS, 0x00FFFFFF * _COLUMNS


def sub_bytes(block: bytes) -> bytes:
    """Apply the S-box to every byte of the state."""
    return validate_block(block).translate(_SUB_TABLE)


def shift_rows(block: bytes) -> bytes:
    """Cyclically shift row ``r`` of the state left by ``r`` positions."""
    return bytes(_SHIFT_ROWS(validate_block(block)))


def sub_bytes_shift_rows(block: bytes) -> bytes:
    """The fused SubBytes+ShiftRows operation of the paper's Module 1.

    The paper packages SubBytes and ShiftRows into a single hardware
    module, so one *act of computation* (one f1 operation) applies both.
    SubBytes works byte by byte and ShiftRows only moves bytes, so the
    two commute: the permutation runs first and one translate follows.
    """
    return bytes(_SHIFT_ROWS(validate_block(block))).translate(_SUB_TABLE)


def mix_columns(block: bytes) -> bytes:
    """Multiply each state column by the MixColumns matrix over GF(2^8).

    This is the paper's Module 2 operation (one f2 act of computation).
    Row ``r`` of a column becomes ``2 b[r] ^ 3 b[r+1] ^ b[r+2] ^ b[r+3]``;
    with ``3 b = 2 b ^ b`` that is ``d ^ rot1(d ^ x) ^ rot2(x) ^ rot3(x)``
    over the whole block, where ``x`` is the state and ``d`` its doubled
    bytes.
    """
    state = validate_block(block)
    x = int.from_bytes(state, "big")
    d = int.from_bytes(state.translate(_DOUBLE_TABLE), "big")
    t = d ^ x
    mixed = (
        d
        ^ ((t << 8) & _ROT1_HIGH)
        ^ ((t >> 24) & _ROT1_LOW)
        ^ ((x << 16) & _ROT2_HIGH)
        ^ ((x >> 16) & _ROT2_LOW)
        ^ ((x << 24) & _ROT3_HIGH)
        ^ ((x >> 8) & _ROT3_LOW)
    )
    return mixed.to_bytes(BLOCK_BYTES, "big")


def add_round_key(block: bytes, round_key: bytes) -> bytes:
    """XOR the state with one 16-byte round key.

    This is the paper's Module 3 operation (one f3 act of computation);
    the key schedule itself is produced by
    :func:`repro.aes.key_expansion.round_keys`, which the paper likewise
    assigns to Module 3.
    """
    state = int.from_bytes(validate_block(block), "big")
    key = int.from_bytes(validate_block(round_key, name="round_key"), "big")
    return (state ^ key).to_bytes(BLOCK_BYTES, "big")
