"""Central-controller energy model.

The paper designs controllers in Verilog for every mesh size and reports,
for the 4x4 controller at 100 MHz, a dynamic power of 6.94 mW and a
leakage power of 0.57 mW (Sec 7.3).  Those figures are kept here as the
:class:`ControllerPowerReference`.

Taken literally against the paper's shrunken 60 000 pJ battery a
controller would die within microseconds, so — like the paper, which
shrinks capacity "to reduce the simulation time" and compresses the
discharge profile to match — the simulator works with *per-action energy
quanta* whose relative scaling follows the hardware reference:

* receive cost per status upload (RX datapath activity),
* routing recomputation cost proportional to K^3 (the paper's
  controller runs Floyd–Warshall, which dominates its dynamic activity,
  Sec 6 — this models that hardware, not the simulator's own phase 2,
  which grows per-module shortest-path trees),
* per-frame housekeeping proportional to mesh size (frame sync, slot
  counters — the "bigger mesh controller consumes more power" effect
  behind Fig 8's decreasing tails),
* idle leakage per frame for the spare controllers of the fail-over
  chain.

The default quanta are calibrated so Fig 8's structure reproduces: a
single controller sustains roughly half the node-limited lifetime on a
4x4 mesh and a small fraction of it on an 8x8 mesh.  All quanta are
explicit configuration, revisited in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import mw_to_pj_per_cycle, require_non_negative


@dataclass(frozen=True)
class ControllerPowerReference:
    """Published hardware figures for the synthesised controller."""

    dynamic_power_mw: float = 6.94
    leakage_power_mw: float = 0.57
    clock_hz: float = 100e6
    mesh_size: int = 16

    @property
    def dynamic_pj_per_cycle(self) -> float:
        """Dynamic energy per active cycle (69.4 pJ for the reference)."""
        return mw_to_pj_per_cycle(self.dynamic_power_mw, self.clock_hz)

    @property
    def leakage_pj_per_cycle(self) -> float:
        """Leakage energy per cycle (5.7 pJ for the reference)."""
        return mw_to_pj_per_cycle(self.leakage_power_mw, self.clock_hz)


@dataclass(frozen=True)
class ControllerEnergyModel:
    """Per-action energy quanta of one central controller.

    Attributes:
        rx_per_status_pj: Energy to receive and process one node status
            upload.
        route_compute_coeff_pj: Coefficient ``kappa`` of the routing
            recomputation cost ``kappa * K^3`` (the Floyd–Warshall work
            of the paper's controller).
        housekeeping_per_frame_pj: Active controller's fixed per-frame
            cost at the reference 16-node mesh; scales linearly with
            ``K / 16``.
        idle_leak_per_frame_pj: Per-frame leakage of each *idle* spare
            controller at the reference mesh; scales with ``K / 16``.
        reference_mesh_size: Mesh size the per-frame quanta are quoted
            at.
    """

    rx_per_status_pj: float = 8.0
    route_compute_coeff_pj: float = 0.001
    housekeeping_per_frame_pj: float = 60.0
    idle_leak_per_frame_pj: float = 2.0
    reference_mesh_size: int = 16

    def __post_init__(self) -> None:
        require_non_negative("rx_per_status_pj", self.rx_per_status_pj)
        require_non_negative(
            "route_compute_coeff_pj", self.route_compute_coeff_pj
        )
        require_non_negative(
            "housekeeping_per_frame_pj", self.housekeeping_per_frame_pj
        )
        require_non_negative(
            "idle_leak_per_frame_pj", self.idle_leak_per_frame_pj
        )
        if self.reference_mesh_size < 1:
            raise ConfigurationError("reference mesh size must be >= 1")

    def _scale(self, num_nodes: int) -> float:
        return num_nodes / self.reference_mesh_size

    def rx_energy_pj(self, reports: int) -> float:
        """Energy to ingest ``reports`` status uploads."""
        if reports < 0:
            raise ConfigurationError(f"reports must be >= 0, got {reports}")
        return reports * self.rx_per_status_pj

    def route_compute_energy_pj(self, num_nodes: int) -> float:
        """Energy of one full routing recomputation on ``num_nodes``."""
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        return self.route_compute_coeff_pj * float(num_nodes) ** 3

    def housekeeping_energy_pj(self, num_nodes: int) -> float:
        """Active controller's fixed cost per frame."""
        return self.housekeeping_per_frame_pj * self._scale(num_nodes)

    def idle_energy_pj(self, num_nodes: int) -> float:
        """One idle spare controller's leakage per frame."""
        return self.idle_leak_per_frame_pj * self._scale(num_nodes)
