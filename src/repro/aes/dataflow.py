"""The distributed-AES job dataflow.

A *job* in the paper is one complete AES encryption of a 128-bit block.
The cipher is partitioned into three modules; each pass of the state
through a module is one *operation* (one "act of computation" followed by
an "act of communication" in the paper's terminology, Sec 3).  For
AES-128 a job therefore consists of 30 operations:

====================  ======================  =====
Module                Function                f_i
====================  ======================  =====
1                     SubBytes / ShiftRows    10
2                     MixColumns              9
3                     KeyExpansion /          11
                      AddRoundKey
====================  ======================  =====

This module encodes that dataflow as an explicit operation sequence so
the simulator can walk a real 16-byte state through the network node by
node, and so the analytical machinery (Theorem 1) can read off the
``f_i`` values directly from the application definition instead of
hard-coding them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .key_expansion import round_keys, rounds_for_key
from .transforms import add_round_key, mix_columns, sub_bytes_shift_rows

#: Paper module ids (Sec 5.1.1).  Module ids are 1-based as in the paper.
MODULE_SUBBYTES_SHIFTROWS = 1
MODULE_MIXCOLUMNS = 2
MODULE_ADDROUNDKEY = 3

#: All module ids of the AES application, in id order.
AES_MODULES: tuple[int, ...] = (
    MODULE_SUBBYTES_SHIFTROWS,
    MODULE_MIXCOLUMNS,
    MODULE_ADDROUNDKEY,
)

#: Human-readable module names used in reports and traces.
MODULE_NAMES: dict[int, str] = {
    MODULE_SUBBYTES_SHIFTROWS: "SubBytes/ShiftRows",
    MODULE_MIXCOLUMNS: "MixColumns",
    MODULE_ADDROUNDKEY: "KeyExpansion/AddRoundKey",
}


@dataclass(frozen=True)
class Operation:
    """One step of the job dataflow.

    Attributes:
        index: Position of the operation in the job (0-based).
        module: Module id (1..3) that must execute this operation.
        round: Cipher round the operation belongs to (0 = initial
            AddRoundKey, ``Nr`` = final round).
    """

    index: int
    module: int
    round: int

    @property
    def name(self) -> str:
        """Readable label, e.g. ``"MixColumns[r3]"``."""
        return f"{MODULE_NAMES[self.module]}[r{self.round}]"


def operation_sequence(rounds: int = 10) -> tuple[Operation, ...]:
    """The ordered operation list for an ``rounds``-round AES encryption.

    Follows the paper's Fig 1 pseudo-code: initial AddRoundKey, then
    ``rounds - 1`` iterations of (SubBytes/ShiftRows, MixColumns,
    AddRoundKey), then a final (SubBytes/ShiftRows, AddRoundKey).
    """
    if rounds < 1:
        raise ValueError(f"AES needs at least 1 round, got {rounds}")
    ops: list[Operation] = [Operation(0, MODULE_ADDROUNDKEY, 0)]
    for rnd in range(1, rounds):
        ops.append(Operation(len(ops), MODULE_SUBBYTES_SHIFTROWS, rnd))
        ops.append(Operation(len(ops), MODULE_MIXCOLUMNS, rnd))
        ops.append(Operation(len(ops), MODULE_ADDROUNDKEY, rnd))
    ops.append(Operation(len(ops), MODULE_SUBBYTES_SHIFTROWS, rounds))
    ops.append(Operation(len(ops), MODULE_ADDROUNDKEY, rounds))
    return tuple(ops)


def operations_per_module(rounds: int = 10) -> dict[int, int]:
    """The ``f_i`` values of the paper's Table 1 for a given round count.

    For the 128-bit AES used throughout the paper this returns
    ``{1: 10, 2: 9, 3: 11}``.
    """
    counts = Counter(op.module for op in operation_sequence(rounds))
    return {module: counts.get(module, 0) for module in AES_MODULES}


class AesJobDataflow:
    """Executable dataflow of one distributed AES job.

    The object owns the key schedule and applies individual operations to
    a carried 16-byte state, which is exactly what a network node does
    when a packet arrives.  It is deliberately independent of any
    network/topology concept: the simulator asks *what* must be computed,
    the routing strategy decides *where*.

    The key is expanded once, and each operation is bound once to its
    transform, round key included: :attr:`steps` holds one one-argument
    callable per operation, in order, and :meth:`apply_index` runs one.

    Args:
        key: AES cipher key (16, 24 or 32 bytes).

    Example:
        >>> flow = AesJobDataflow(bytes(16))
        >>> state = bytes(16)
        >>> for step in flow.steps:
        ...     state = step(state)
        >>> from repro.aes.cipher import encrypt_block
        >>> state == encrypt_block(bytes(16), bytes(16))
        True
    """

    def __init__(self, key: bytes):
        self._key = bytes(key)
        self._rounds = rounds_for_key(self._key)
        self._schedule = tuple(round_keys(self._key))
        self._operations = operation_sequence(self._rounds)
        self._steps = tuple(self._bind(op) for op in self._operations)

    def _bind(self, op: Operation) -> Callable[[bytes], bytes]:
        if op.module == MODULE_SUBBYTES_SHIFTROWS:
            return sub_bytes_shift_rows
        if op.module == MODULE_MIXCOLUMNS:
            return mix_columns
        if op.module == MODULE_ADDROUNDKEY:
            return partial(add_round_key, round_key=self._schedule[op.round])
        raise ValueError(f"operation {op} references unknown module {op.module}")

    @property
    def key(self) -> bytes:
        """The cipher key this dataflow encrypts under."""
        return self._key

    @property
    def schedule(self) -> tuple[bytes, ...]:
        """The ``Nr + 1`` round keys, expanded once from :attr:`key`."""
        return self._schedule

    @property
    def rounds(self) -> int:
        """Number of cipher rounds ``Nr``."""
        return self._rounds

    @property
    def operations(self) -> tuple[Operation, ...]:
        """The ordered operation sequence of one job."""
        return self._operations

    @property
    def steps(self) -> tuple[Callable[[bytes], bytes], ...]:
        """Each operation's transform, bound to its round key, in order."""
        return self._steps

    @property
    def total_operations(self) -> int:
        """Total number of operations per job (30 for AES-128)."""
        return len(self._operations)

    def operations_per_module(self) -> dict[int, int]:
        """Per-module operation counts, i.e. the paper's ``f_i``."""
        return operations_per_module(self._rounds)

    def module_of(self, op_index: int) -> int:
        """Module id that must execute operation ``op_index``."""
        return self._operations[op_index].module

    def apply_index(self, op_index: int, state: bytes) -> bytes:
        """Execute the operation at position ``op_index`` on ``state``."""
        return self._steps[op_index](state)
