"""Unit tests for the transmission-line substrate."""

import pytest

from repro.control.tdma import TdmaSchedule
from repro.errors import ConfigurationError
from repro.link.energy import LinkEnergyModel
from repro.link.packet import PacketFormat
from repro.link.spice_data import MEASURED_LINE_ENERGIES_PJ_PER_BIT
from repro.link.transmission_line import TransmissionLineModel


class TestMeasuredPoints:
    def test_paper_values_reproduced_exactly(self):
        line = TransmissionLineModel()
        for length, energy in MEASURED_LINE_ENERGIES_PJ_PER_BIT.items():
            assert line.energy_per_bit_switch_pj(length) == pytest.approx(
                energy
            )

    def test_paper_constants(self):
        # Paper Sec 5.1.2 verbatim.
        assert MEASURED_LINE_ENERGIES_PJ_PER_BIT == {
            1.0: 0.4472,
            10.0: 4.4472,
            20.0: 11.867,
            100.0: 53.082,
        }


class TestInterpolation:
    def test_monotone_increasing(self):
        line = TransmissionLineModel()
        lengths = [0.5, 1, 2, 5, 10, 15, 20, 50, 100, 150]
        energies = [line.energy_per_bit_switch_pj(l) for l in lengths]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_below_first_point_interpolates_to_origin(self):
        line = TransmissionLineModel()
        assert line.energy_per_bit_switch_pj(0.5) == pytest.approx(
            0.4472 / 2
        )

    def test_beyond_last_point_extrapolates(self):
        line = TransmissionLineModel()
        slope = (53.082 - 11.867) / 80.0
        assert line.energy_per_bit_switch_pj(120.0) == pytest.approx(
            53.082 + 20 * slope
        )

    def test_inverse_lookup_round_trip(self):
        line = TransmissionLineModel()
        for length in (0.7, 2.045, 5.0, 15.0, 60.0):
            energy = line.energy_per_bit_switch_pj(length)
            assert line.length_for_energy(energy) == pytest.approx(length)

    def test_zero_length_rejected(self):
        line = TransmissionLineModel()
        with pytest.raises(ConfigurationError):
            line.energy_per_bit_switch_pj(0.0)

    def test_custom_points_validation(self):
        with pytest.raises(ConfigurationError):
            TransmissionLineModel(points=((1.0, 1.0),))
        with pytest.raises(ConfigurationError):
            TransmissionLineModel(points=((1.0, 2.0), (2.0, 1.0)))


class TestPacketFormat:
    def test_defaults_match_paper(self):
        packet = PacketFormat()
        assert packet.payload_bits == 128
        assert packet.total_bits == 128
        assert packet.switched_bits == 128.0

    def test_header_adds_bits(self):
        packet = PacketFormat(payload_bits=128, header_bits=16)
        assert packet.total_bits == 144

    def test_switching_activity_scales(self):
        packet = PacketFormat(switching_activity=0.5)
        assert packet.switched_bits == 64.0

    def test_serialization_cycles(self):
        packet = PacketFormat()
        assert packet.serialization_cycles(1) == 128
        assert packet.serialization_cycles(2) == 64
        assert packet.serialization_cycles(3) == 43  # ceil(128/3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PacketFormat(payload_bits=0)
        with pytest.raises(ConfigurationError):
            PacketFormat(switching_activity=0.0)
        with pytest.raises(ConfigurationError):
            PacketFormat(switching_activity=1.5)
        with pytest.raises(ConfigurationError):
            PacketFormat(header_bits=-1)


class TestLinkEnergyModel:
    def test_hop_energy_is_per_bit_times_packet(self):
        model = LinkEnergyModel()
        assert model.hop_energy_pj(10.0) == pytest.approx(4.4472 * 128)

    def test_calibrated_pitch_matches_paper_implied_energy(self):
        model = LinkEnergyModel()
        # DESIGN.md: Table 2 implies ~116.7 pJ per hop at the default
        # 2.045 cm pitch.
        assert model.hop_energy_pj(2.045) == pytest.approx(116.7, abs=0.5)

    def test_bits_energy_for_control_medium(self):
        # The shared control medium is priced per switched bit by the
        # same line model as a data hop: 4 bits over a 1 cm segment.
        model = LinkEnergyModel()
        per_bit = TdmaSchedule(num_nodes=16, medium_segment_cm=1.0).energy_per_bit_pj
        assert 4 * per_bit == pytest.approx(4 * 0.4472)
        assert model.hop_energy_pj(1.0) == pytest.approx(
            per_bit * model.packet.switched_bits
        )

    def test_hop_cycles_serial_line(self):
        assert LinkEnergyModel().hop_cycles() == 128
