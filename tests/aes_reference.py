"""The per-byte FIPS-197 transcription the fast AES path is pinned to.

:mod:`repro.aes.transforms` runs the forward round transforms as
whole-block table operations.  This module keeps them as FIPS-197
writes them, one byte at a time, so the property suites can compare the
two byte for byte on random blocks and keys:

* :func:`sub_bytes` — one S-box lookup per byte;
* :func:`shift_rows` — the ``state[r][c] = block[r + 4c]`` index loop;
* :func:`mix_columns` — each column times the circulant matrix through
  the first-principles :func:`repro.aes.gf.gf_mul`, no tables;
* :func:`add_round_key` — a byte-wise XOR;
* :func:`encrypt_block` — the paper's Fig 1 built from these.

The known-answer vectors and the FIPS-197 Appendix B round states stay
the ground truth: the unit tests check this module against them too.
"""

from __future__ import annotations

from repro.aes.gf import gf_dot
from repro.aes.key_expansion import round_keys, rounds_for_key
from repro.aes.sbox import SBOX
from repro.aes.state import BLOCK_BYTES, NB, validate_block

#: MixColumns circulant matrix rows (FIPS-197 Sec 5.1.3).
MIX_ROWS = (
    (0x02, 0x03, 0x01, 0x01),
    (0x01, 0x02, 0x03, 0x01),
    (0x01, 0x01, 0x02, 0x03),
    (0x03, 0x01, 0x01, 0x02),
)


def sub_bytes(block: bytes) -> bytes:
    """Apply the S-box to every byte of the state."""
    validate_block(block)
    return bytes(SBOX[b] for b in block)


def shift_rows(block: bytes) -> bytes:
    """Cyclically shift row ``r`` of the state left by ``r`` positions."""
    validate_block(block)
    out = bytearray(BLOCK_BYTES)
    for r in range(4):
        for c in range(NB):
            out[r + 4 * c] = block[r + 4 * ((c + r) % NB)]
    return bytes(out)


def sub_bytes_shift_rows(block: bytes) -> bytes:
    """SubBytes then ShiftRows: the paper's Module 1 operation."""
    return shift_rows(sub_bytes(block))


def mix_columns(block: bytes) -> bytes:
    """Multiply each state column by the MixColumns matrix over GF(2^8)."""
    validate_block(block)
    out = bytearray(BLOCK_BYTES)
    for c in range(NB):
        column = tuple(block[4 * c : 4 * c + 4])
        for r in range(4):
            out[r + 4 * c] = gf_dot(MIX_ROWS[r], column)
    return bytes(out)


def add_round_key(block: bytes, round_key: bytes) -> bytes:
    """XOR the state with one 16-byte round key, byte by byte."""
    validate_block(block)
    validate_block(round_key, name="round_key")
    return bytes(b ^ k for b, k in zip(block, round_key))


def encrypt_block(plaintext: bytes, key: bytes) -> bytes:
    """Fig 1's encryption of one block, built from the transforms above."""
    state = validate_block(plaintext, name="plaintext")
    keys = round_keys(key)
    nr = rounds_for_key(key)

    state = add_round_key(state, keys[0])
    for rnd in range(1, nr):
        state = sub_bytes(state)
        state = shift_rows(state)
        state = mix_columns(state)
        state = add_round_key(state, keys[rnd])
    state = sub_bytes(state)
    state = shift_rows(state)
    state = add_round_key(state, keys[nr])
    return state
