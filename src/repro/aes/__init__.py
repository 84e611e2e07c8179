"""AES-128/192/256 application substrate.

The paper drives its e-textile platform with a distributed implementation
of the Advanced Encryption Standard (FIPS-197), partitioned into three
hardware modules (Sec 5.1.1):

* **Module 1** — ``SubBytes`` / ``ShiftRows``
* **Module 2** — ``MixColumns``
* **Module 3** — ``KeyExpansion`` / ``AddRoundKey``

This package implements the complete forward cipher (all three key
sizes; jobs only encrypt), the module partitioning, the per-job operation
dataflow ``(f1, f2, f3) = (10, 9, 11)`` used by the routing formulation,
and the paper's measured per-operation energies.  The simulator carries
real cipher state through the network, so every completed job is
verified bit-for-bit against Fig 1's monolithic cipher
(:func:`repro.aes.cipher.encrypt_with_schedule`, on the dataflow's one
key schedule).  The forward transforms are whole-block table operations;
the test suite pins them to a per-byte FIPS-197 transcription.
"""

from .cipher import encrypt_block, expand_key
from .dataflow import (
    MODULE_ADDROUNDKEY,
    MODULE_MIXCOLUMNS,
    MODULE_SUBBYTES_SHIFTROWS,
    AesJobDataflow,
    Operation,
    operations_per_module,
)
from .energy import AES_MODULE_ENERGIES_PJ, module_energy_pj
from .sbox import SBOX

__all__ = [
    "AES_MODULE_ENERGIES_PJ",
    "AesJobDataflow",
    "MODULE_ADDROUNDKEY",
    "MODULE_MIXCOLUMNS",
    "MODULE_SUBBYTES_SHIFTROWS",
    "Operation",
    "SBOX",
    "encrypt_block",
    "expand_key",
    "module_energy_pj",
    "operations_per_module",
]
