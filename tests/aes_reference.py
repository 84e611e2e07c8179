"""The per-byte FIPS-197 transcription the fast AES path is pinned to.

:mod:`repro.aes.transforms` runs the forward round transforms as
whole-block table operations.  This module keeps them as FIPS-197
writes them, one byte at a time, so the property suites can compare the
two byte for byte on random blocks and keys:

* :func:`sub_bytes` — one S-box lookup per byte;
* :func:`shift_rows` — the ``state[r][c] = block[r + 4c]`` index loop;
* :func:`mix_columns` — each column times the circulant matrix through
  :func:`gf_dot` on the first-principles :func:`repro.aes.gf.gf_mul`,
  no tables;
* :func:`add_round_key` — a byte-wise XOR;
* :func:`encrypt_block` — the paper's Fig 1 built from these;
* :func:`run_reference` — a dataflow's bound steps run locally.

It also holds the inverse cipher, which jobs never run: the inverse
S-box, the three inverse transforms and :func:`decrypt_block`, so the
tests can check that every forward transform and the whole cipher
round-trip.

The known-answer vectors and the FIPS-197 Appendix B round states stay
the ground truth: the unit tests check this module against them too.
"""

from __future__ import annotations

from repro.aes.gf import gf_mul
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

#: InvMixColumns circulant matrix rows (FIPS-197 Sec 5.3.3).
INV_MIX_ROWS = (
    (0x0E, 0x0B, 0x0D, 0x09),
    (0x09, 0x0E, 0x0B, 0x0D),
    (0x0D, 0x09, 0x0E, 0x0B),
    (0x0B, 0x0D, 0x09, 0x0E),
)


def gf_dot(coefficients: tuple[int, ...], values: tuple[int, ...]) -> int:
    """GF(2^8) dot product: XOR-accumulate ``gf_mul(c, v)`` pairs."""
    if len(coefficients) != len(values):
        raise ValueError(
            f"length mismatch: {len(coefficients)} coefficients "
            f"vs {len(values)} values"
        )
    acc = 0
    for c, v in zip(coefficients, values):
        acc ^= gf_mul(c, v)
    return acc


def generate_inverse_sbox(sbox: tuple[int, ...]) -> tuple[int, ...]:
    """Invert an S-box permutation."""
    inverse = [0] * 256
    for x, y in enumerate(sbox):
        inverse[y] = x
    return tuple(inverse)


#: The inverse S-box used by InvSubBytes.
INV_SBOX: tuple[int, ...] = generate_inverse_sbox(SBOX)


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


def run_reference(flow, plaintext: bytes) -> bytes:
    """Run an :class:`~repro.aes.dataflow.AesJobDataflow`'s bound steps
    locally (no network) on ``plaintext``."""
    state = bytes(plaintext)
    for step in flow.steps:
        state = step(state)
    return state


def inv_sub_bytes(block: bytes) -> bytes:
    """Apply the inverse S-box to every byte of the state."""
    validate_block(block)
    return bytes(INV_SBOX[b] for b in block)


def inv_shift_rows(block: bytes) -> bytes:
    """Cyclically shift row ``r`` of the state right by ``r`` positions."""
    validate_block(block)
    out = bytearray(BLOCK_BYTES)
    for r in range(4):
        for c in range(NB):
            out[r + 4 * ((c + r) % NB)] = block[r + 4 * c]
    return bytes(out)


def inv_sub_bytes_shift_rows(block: bytes) -> bytes:
    """Inverse of the Module 1 operation (InvShiftRows then InvSubBytes)."""
    return inv_sub_bytes(inv_shift_rows(block))


def inv_mix_columns(block: bytes) -> bytes:
    """Multiply each state column by the InvMixColumns matrix."""
    validate_block(block)
    out = bytearray(BLOCK_BYTES)
    for c in range(NB):
        column = tuple(block[4 * c : 4 * c + 4])
        for r in range(4):
            out[r + 4 * c] = gf_dot(INV_MIX_ROWS[r], column)
    return bytes(out)


def decrypt_block(ciphertext: bytes, key: bytes) -> bytes:
    """Decrypt a single 16-byte block (inverse cipher, FIPS-197 Sec 5.3)."""
    state = validate_block(ciphertext, name="ciphertext")
    keys = round_keys(key)
    nr = rounds_for_key(key)

    state = add_round_key(state, keys[nr])
    for rnd in range(nr - 1, 0, -1):
        state = inv_shift_rows(state)
        state = inv_sub_bytes(state)
        state = add_round_key(state, keys[rnd])
        state = inv_mix_columns(state)
    state = inv_shift_rows(state)
    state = inv_sub_bytes(state)
    state = add_round_key(state, keys[0])
    return state
