"""Property-based invariants of the harvesting subsystem.

Recharge must never mint energy: a cell never holds more than its
nominal capacity, dead cells stay dead, and a run whose harvest
schedule delivers nothing is bit-identical to a harvest-free run.  The
whole-simulation energy-conservation identity gains the harvested term:

    nominal + harvested == delivered_to_loads + conversion_loss
                           + wasted + stranded
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_config
from repro.battery.ideal import IdealBattery
from repro.battery.thin_film import ThinFilmBattery, ThinFilmParameters
from repro.errors import ConfigurationError
from repro.harvest import HarvestConfig, HarvestHardware
from repro.sim.et_sim import EtSim


def batteries():
    return st.sampled_from(["ideal", "thin-film"])


def fresh_battery(kind: str, capacity: float = 10_000.0):
    if kind == "ideal":
        return IdealBattery(capacity_pj=capacity)
    return ThinFilmBattery(ThinFilmParameters(capacity_pj=capacity))


@settings(max_examples=60, deadline=None)
@given(
    kind=batteries(),
    draws=st.lists(
        st.floats(min_value=0.0, max_value=800.0), min_size=1, max_size=30
    ),
    recharges=st.lists(
        st.floats(min_value=0.0, max_value=800.0), min_size=1, max_size=30
    ),
)
def test_recharge_never_exceeds_nominal_capacity(kind, draws, recharges):
    battery = fresh_battery(kind)
    for draw, refill in zip(draws, recharges):
        if not battery.alive:
            break
        battery.draw(draw, 100.0)
        if not battery.alive:
            break
        accepted = battery.recharge(refill)
        assert 0.0 <= accepted <= refill + 1e-9
        # The store never holds more than nominal: remaining capacity
        # (wasted_pj of a living cell) stays within [0, nominal].
        assert battery.wasted_pj <= battery.nominal_capacity_pj + 1e-6
        assert battery.state_of_charge <= 1.0 + 1e-9
        assert battery.recharged_pj >= 0.0


@settings(max_examples=30, deadline=None)
@given(kind=batteries(), refill=st.floats(min_value=0.0, max_value=1e6))
def test_dead_batteries_stay_dead(kind, refill):
    battery = fresh_battery(kind, capacity=500.0)
    while battery.alive:
        battery.draw(120.0, 100.0)
    assert battery.recharge(refill) == 0.0
    assert not battery.alive
    assert battery.voltage == 0.0


@pytest.mark.parametrize("kind", ["ideal", "thin-film"])
def test_full_cell_accepts_nothing(kind):
    battery = fresh_battery(kind)
    assert battery.recharge(1_000.0) == 0.0
    assert battery.state_of_charge == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["ideal", "thin-film"])
def test_recharge_rejects_negative_energy(kind):
    with pytest.raises(ConfigurationError):
        fresh_battery(kind).recharge(-1.0)


def test_thin_film_recharge_rolls_depth_of_discharge_back():
    battery = fresh_battery("thin-film")
    battery.draw(2_000.0, 10_000.0)
    dod_before = battery.depth_of_discharge
    ocv_before = battery.open_circuit_voltage
    accepted = battery.recharge(500.0)
    assert accepted == pytest.approx(500.0)
    assert battery.depth_of_discharge < dod_before
    assert battery.open_circuit_voltage >= ocv_before
    # The rate-capacity loss is a gross quantity: rolling DoD back must
    # not erase recorded losses.
    assert battery.loss_pj >= 0.0


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(["sequential", "concurrent"]),
    battery=batteries(),
    profile=st.sampled_from(["motion", "solar", "bus"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_zero_amplitude_harvest_is_bit_identical_to_none(
    kind, battery, profile, seed
):
    base = make_config(
        kind=kind,
        battery=battery,
        concurrency=2 if kind == "concurrent" else 1,
        max_jobs=6,
        seed=seed,
    )
    plain = EtSim(base).run().summary()
    zero = EtSim(
        replace(
            base,
            harvest=HarvestConfig(
                profile=profile, seed=seed, amplitude_pj=0.0
            ),
        )
    ).run().summary()
    assert zero == plain


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["sequential", "concurrent"]),
    battery=batteries(),
    profile=st.sampled_from(["motion", "solar", "bus"]),
    seed=st.integers(min_value=0, max_value=10_000),
    amplitude=st.floats(min_value=5.0, max_value=120.0),
)
def test_energy_conservation_includes_the_harvested_term(
    kind, battery, profile, seed, amplitude
):
    config = make_config(
        kind=kind,
        battery=battery,
        concurrency=2 if kind == "concurrent" else 1,
        max_jobs=8,
        seed=seed,
        harvest=HarvestConfig(
            profile=profile, seed=seed, amplitude_pj=amplitude
        ),
    )
    engine = EtSim(config).build_engine()
    stats = engine.run()
    ledger = stats.energy
    nominal = (
        config.platform.battery_capacity_pj * config.platform.num_mesh_nodes
    )
    delivered = engine.bank.delivered.sum()
    recharged = engine.bank.recharged.sum()
    residual = stats.wasted_at_death_pj + stats.stranded_alive_pj
    # Per-battery draws all land in ledger buckets (incl. bus draws).
    assert delivered == pytest.approx(ledger.node_total_pj, rel=1e-9)
    # Everything accepted into cells is external income plus bus
    # arrivals.
    assert recharged == pytest.approx(
        ledger.harvested_pj + ledger.shared_pj, rel=1e-9
    )
    # The extended identity: what the cells started with plus what the
    # fabric scavenged equals loads + losses + residual charge.  Bus
    # draws cancel out (they are delivered by donors and re-enter as
    # shared_pj minus the conversion loss, which conversion_loss_pj
    # carries).
    loads = ledger.node_total_pj - ledger.share_tx_pj
    assert nominal + stats.harvested_pj == pytest.approx(
        loads + stats.conversion_loss_pj + residual, rel=1e-9
    )
    # And the summary mirrors the ledger.
    summary = stats.summary()
    assert summary["harvested_pj"] == round(ledger.harvested_pj, 1)
    assert summary["shared_pj"] == round(ledger.shared_pj, 1)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["sequential", "concurrent"]),
    battery=batteries(),
    seed=st.integers(min_value=0, max_value=10_000),
    max_hops=st.integers(min_value=1, max_value=4),
    efficiency=st.floats(min_value=0.4, max_value=0.95),
)
def test_multi_hop_bus_per_hop_losses_sum_exactly(
    kind, battery, seed, max_hops, efficiency
):
    """Conservation of the multi-hop bus: the per-hop conversion losses
    plus the receiver-side rejection account for every picojoule the
    donors drew but the receivers did not bank, and the whole-run
    identity still closes."""
    config = make_config(
        kind=kind,
        battery=battery,
        concurrency=2 if kind == "concurrent" else 1,
        max_jobs=8,
        seed=seed,
        harvest=HarvestConfig(
            profile="bus",
            seed=seed,
            amplitude_pj=80.0,
            share_threshold=0.05,
            share_rate_pj=40.0,
            share_efficiency=efficiency,
            share_max_hops=max_hops,
        ),
    )
    engine = EtSim(config).build_engine()
    stats = engine.run()
    ledger = stats.energy
    # Per-hop accounting: hop losses + rejected arrivals == total loss.
    assert ledger.share_loss_pj == pytest.approx(
        ledger.share_hop_loss_pj + ledger.share_rejected_pj, rel=1e-9
    )
    assert ledger.share_loss_pj == pytest.approx(
        ledger.share_tx_pj - ledger.shared_pj, rel=1e-9
    )
    if ledger.share_tx_pj > 0:
        assert ledger.share_hops > 0
        # Arrivals can never beat the single-hop conversion bound.
        assert ledger.shared_pj <= efficiency * ledger.share_tx_pj + 1e-6
    # Relayed energy only ever appears on intermediate nodes, which a
    # single-hop bus does not have.
    relayed = sum(node.share_relay_pj for node in ledger.nodes.values())
    if max_hops == 1:
        assert relayed == 0.0
    # The whole-run identity closes with any hop count.
    mesh = config.platform.num_mesh_nodes
    nominal = config.platform.battery_capacity_pj * mesh
    residual = stats.wasted_at_death_pj + stats.stranded_alive_pj
    loads = ledger.node_total_pj - ledger.share_tx_pj
    assert nominal + stats.harvested_pj == pytest.approx(
        loads + stats.conversion_loss_pj + residual, rel=1e-9
    )
    assert stats.summary()["share_hops"] == ledger.share_hops


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["sequential", "concurrent"]),
    profile=st.sampled_from(["motion", "solar", "bus"]),
    seed=st.integers(min_value=0, max_value=10_000),
    fraction=st.floats(min_value=0.1, max_value=0.8),
    placement=st.sampled_from(["flex", "random", "spread"]),
)
def test_non_equipped_nodes_never_harvest(
    kind, profile, seed, fraction, placement
):
    """Hardware heterogeneity's zero-income invariant: a node without a
    generator never accepts a pulse of external income, whatever the
    profile (bus arrivals are power *sharing*, booked separately)."""
    config = make_config(
        kind=kind,
        concurrency=2 if kind == "concurrent" else 1,
        max_jobs=8,
        seed=seed,
        harvest=HarvestConfig(
            profile=profile,
            seed=seed,
            amplitude_pj=80.0,
            hardware=HarvestHardware(
                equipped_fraction=fraction, placement=placement, seed=seed
            ),
        ),
    )
    engine = EtSim(config).build_engine()
    stats = engine.run()
    equipped = engine.harvest_schedule.hardware
    mesh = config.platform.num_mesh_nodes
    assert sum(1 for gain in equipped if gain > 0) == max(
        1, round(fraction * mesh)
    )
    for node in range(mesh):
        if equipped[node] == 0.0:
            assert stats.energy.nodes[node].harvested_pj == 0.0
    # When the schedule offered income past frame 0 and everyone lived
    # to accept it, some equipped node must have harvested (a short
    # run can land entirely in idle activity windows).
    offered = any(
        engine.harvest_schedule.income(frame) is not None
        for frame in range(1, stats.lifetime_frames)
    )
    if offered and set(range(mesh)) <= engine._alive_set:
        assert stats.harvested_pj > 0


@settings(max_examples=8, deadline=None)
@given(
    kind=st.sampled_from(["sequential", "concurrent"]),
    profile=st.sampled_from(["motion", "solar", "bus"]),
    seed=st.integers(min_value=0, max_value=10_000),
    placement=st.sampled_from(["flex", "random", "spread"]),
)
def test_all_equipped_hardware_is_bit_identical_to_default(
    kind, profile, seed, placement
):
    """An explicit all-nodes-equipped spec (whatever its placement or
    seed — both are inert at fraction 1 and zero spread) must reproduce
    the homogeneous default run bit for bit."""
    base = make_config(
        kind=kind,
        concurrency=2 if kind == "concurrent" else 1,
        max_jobs=6,
        seed=seed,
        harvest=HarvestConfig(profile=profile, seed=seed),
    )
    explicit = replace(
        base,
        harvest=replace(
            base.harvest,
            hardware=HarvestHardware(
                equipped_fraction=1.0, placement=placement, seed=seed
            ),
        ),
    )
    assert EtSim(base).run().summary() == EtSim(explicit).run().summary()
