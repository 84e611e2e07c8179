"""TDMA schedule of the shared control medium (paper Fig 4).

One frame consists of an uploading phase — one slot per node, in node-id
order — followed by a downloading phase, then the remainder of the frame
is available to the data network.  The medium is very narrow ("for
instance, only 2-bit wide"), so a transfer of ``b`` bits occupies
``ceil(b / width)`` cycles of the shared medium.

The schedule object is pure arithmetic: it fixes slot positions, frame
length and per-transfer energies; the stateful protocol logic lives in
:mod:`repro.control.controller`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..link.transmission_line import TransmissionLineModel

#: Default frame length in cycles.  At the paper's 100 MHz clock a frame
#: is ~10 us; a 30-operation AES job spans a handful of frames.
DEFAULT_FRAME_CYCLES = 1024

#: Default shared-medium width (paper Sec 5.3: "only 2-bit wide").
DEFAULT_MEDIUM_WIDTH_BITS = 2

#: Default status report payload: 3 bits of battery level + 1 deadlock
#: flag.
DEFAULT_STATUS_BITS = 4

#: Default routing-table entry payload: node address + module id + next
#: hop (mesh degree <= 4 plus self).
DEFAULT_TABLE_ENTRY_BITS = 12

#: Effective electrical length of one slot transfer on the shared
#: medium, in cm.  The medium is bused along the fabric; transfers are
#: short-haul to the nearest controller tap.
DEFAULT_MEDIUM_SEGMENT_CM = 1.0


@dataclass(frozen=True)
class TdmaSchedule:
    """Static timing/energy parameters of the shared control medium.

    Attributes:
        num_nodes: Number of node upload slots per frame.
        frame_cycles: Total frame length in cycles.
        medium_width_bits: Parallel width of the shared medium.
        status_bits: Upload payload size per node report.
        table_entry_bits: Download payload per routing-table entry.
        medium_segment_cm: Electrical length used for per-bit energy on
            the medium.
        line: Transmission-line model for the medium's per-bit energy.
    """

    num_nodes: int
    frame_cycles: int = DEFAULT_FRAME_CYCLES
    medium_width_bits: int = DEFAULT_MEDIUM_WIDTH_BITS
    status_bits: int = DEFAULT_STATUS_BITS
    table_entry_bits: int = DEFAULT_TABLE_ENTRY_BITS
    medium_segment_cm: float = DEFAULT_MEDIUM_SEGMENT_CM
    line: TransmissionLineModel = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.line is None:
            object.__setattr__(self, "line", TransmissionLineModel())
        if self.num_nodes < 1:
            raise ConfigurationError("schedule needs >= 1 node")
        if self.medium_width_bits < 1:
            raise ConfigurationError(
                f"medium width must be >= 1 bit, got {self.medium_width_bits}"
            )
        if self.status_bits < 1 or self.table_entry_bits < 1:
            raise ConfigurationError("payload sizes must be >= 1 bit")
        if self.medium_segment_cm <= 0:
            raise ConfigurationError("medium segment length must be positive")
        if self.frame_cycles < self.control_section_cycles:
            raise ConfigurationError(
                f"frame of {self.frame_cycles} cycles cannot fit the "
                f"control section of {self.control_section_cycles} cycles"
            )

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @property
    def upload_slot_cycles(self) -> int:
        """Cycles occupied by one node's status upload."""
        return -(-self.status_bits // self.medium_width_bits)

    @property
    def download_slot_cycles(self) -> int:
        """Cycles occupied by one routing-table entry download."""
        return -(-self.table_entry_bits // self.medium_width_bits)

    @property
    def control_section_cycles(self) -> int:
        """Cycles reserved for the upload + download phases per frame.

        The download budget is sized for one table entry per node, which
        bounds the common case (incremental updates); larger downloads
        spill into subsequent frames without affecting energy accounting.
        """
        return self.num_nodes * (
            self.upload_slot_cycles + self.download_slot_cycles
        )

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    @property
    def energy_per_bit_pj(self) -> float:
        """Per-bit-switch energy of one transfer on the shared medium."""
        return self.line.energy_per_bit_switch_pj(self.medium_segment_cm)

    @property
    def upload_energy_pj(self) -> float:
        """Transmit energy of one status upload (paid by the node)."""
        return self.status_bits * self.energy_per_bit_pj

    @property
    def table_entry_energy_pj(self) -> float:
        """Transmit energy of one table-entry download (paid by the
        active controller)."""
        return self.table_entry_bits * self.energy_per_bit_pj
