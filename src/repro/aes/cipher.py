"""The complete AES block cipher (FIPS-197 Sec 5.1 / 5.3).

``encrypt_block`` follows the exact pseudo-code reproduced in the paper's
Fig 1.  ``encrypt_with_schedule`` is the same Fig 1 loop on an expanded key
schedule: every simulated job computes its reference ciphertext with it,
on its dataflow's one schedule, and a completed job's carried state must
equal that ciphertext byte for byte.
"""

from __future__ import annotations

from collections.abc import Sequence

from .key_expansion import round_keys
from .state import validate_block
from .transforms import add_round_key, mix_columns, shift_rows, sub_bytes


def expand_key(key: bytes) -> list[bytes]:
    """Public alias for the round-key schedule (see :mod:`key_expansion`)."""
    return round_keys(key)


def encrypt_block(plaintext: bytes, key: bytes) -> bytes:
    """Encrypt a single 16-byte block under AES with the given key.

    Mirrors the paper's Fig 1: an initial AddRoundKey, ``Nr - 1`` full
    rounds (SubBytes, ShiftRows, MixColumns, AddRoundKey) and a final
    round without MixColumns.  For AES-128 that is 10 SubBytes/ShiftRows
    operations, 9 MixColumns operations and 11 AddRoundKey operations —
    the paper's ``(f1, f2, f3) = (10, 9, 11)``.
    """
    return encrypt_with_schedule(plaintext, round_keys(key))


def encrypt_with_schedule(plaintext: bytes, schedule: Sequence[bytes]) -> bytes:
    """Fig 1's encryption under an already expanded key schedule.

    ``schedule`` holds the ``Nr + 1`` round keys of :func:`expand_key`,
    so a caller that encrypts many blocks under one key expands it once.
    """
    state = validate_block(plaintext, name="plaintext")
    nr = len(schedule) - 1

    state = add_round_key(state, schedule[0])
    for rnd in range(1, nr):
        state = sub_bytes(state)
        state = shift_rows(state)
        state = mix_columns(state)
        state = add_round_key(state, schedule[rnd])
    state = sub_bytes(state)
    state = shift_rows(state)
    state = add_round_key(state, schedule[nr])
    return state
