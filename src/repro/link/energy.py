"""Per-hop link energy and timing calculator."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..units import require_positive
from .packet import PacketFormat
from .transmission_line import TransmissionLineModel


@dataclass(frozen=True)
class LinkEnergyModel:
    """Combines a line model with a packet format.

    This is the single place where "energy consumed on transmitting a
    packet over these transmission lines" (paper Sec 5.1.2) is computed:
    per-bit-switch energy at the line's length, times the packet's
    switched bits.  The transmit cost is charged to the *sending* node,
    matching the paper's definition of ``C_j`` (energy spent transmitting
    own packets or relaying others').

    Attributes:
        line: The textile line energy/length model.
        packet: The fixed packet format of the data network.
        link_width_bits: Parallel width of a data link (textile lines are
            single threads, so serial width 1 by default).
    """

    line: TransmissionLineModel = field(default_factory=TransmissionLineModel)
    packet: PacketFormat = field(default_factory=PacketFormat)
    link_width_bits: int = 1

    def hop_energy_pj(self, length_cm: float) -> float:
        """Energy charged to the sender for one packet over one hop."""
        require_positive("length_cm", length_cm)
        per_bit = self.line.energy_per_bit_switch_pj(length_cm)
        return per_bit * self.packet.switched_bits

    def hop_cycles(self) -> int:
        """Serialisation delay of one packet over one hop."""
        return self.packet.serialization_cycles(self.link_width_bits)
