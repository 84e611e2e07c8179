"""Configuration objects for the et_sim platform.

All experiment knobs live here as frozen dataclasses with validation and
dict round-tripping, so that every run is fully described by a plain
(JSON-serialisable) document.  The defaults reproduce the paper's
platform: 2-D mesh with ~2 cm textile links, 128-bit packets, 60 000 pJ
thin-film batteries, 8-level battery reporting, a 2-bit TDMA control
medium, one infinite-energy controller, checkerboard AES mapping and the
EAR routing algorithm.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field, replace

from .battery.thin_film import ThinFilmParameters
from .control.controller_power import ControllerEnergyModel
from .control.deadlock import DeadlockPolicy
from .control.tdma import (
    DEFAULT_FRAME_CYCLES,
    DEFAULT_MEDIUM_SEGMENT_CM,
    DEFAULT_MEDIUM_WIDTH_BITS,
    DEFAULT_STATUS_BITS,
    DEFAULT_TABLE_ENTRY_BITS,
    TdmaSchedule,
)
from .core.costs import (
    CONGESTION_CHANNEL,
    HARVEST_CHANNEL,
    WEAR_CHANNEL,
    LevelChannel,
)
from .core.weights import DEFAULT_Q, BatteryWeightFunction
from .errors import ConfigurationError
from .faults.config import FaultConfig
from .harvest.config import HarvestConfig, HarvestHardware
from .link.energy import LinkEnergyModel
from .link.packet import PacketFormat
from .mesh.mapping import (
    ModuleMapping,
    checkerboard_mapping,
    harvest_proportional_mapping,
    proportional_mapping,
    uniform_mapping,
)
from .mesh.topology import DEFAULT_LINK_PITCH_CM, Topology, mesh2d

#: Battery model identifiers.
BATTERY_MODELS = ("thin-film", "ideal")

#: Mapping strategy identifiers.
MAPPING_STRATEGIES = (
    "checkerboard",
    "proportional",
    "uniform",
    "harvest-proportional",
)

#: Routing algorithm identifiers.
ROUTING_ALGORITHMS = ("ear", "sdr")

#: Engine identifiers accepted by :attr:`SimulationConfig.engine`.
#: ``"auto"`` resolves from the workload kind (the pre-registry
#: behaviour); the concrete names index ``repro.sim.ENGINE_REGISTRY``.
ENGINE_NAMES = ("auto", "sequential", "concurrent", "vector")

#: Default per-operation computation latencies in cycles, per module.
#: Scaled against the measured module energies at a ~10 mW class power
#: envelope; absolute values only affect time interleaving, not energy.
DEFAULT_COMPUTE_CYCLES: dict[int, int] = {1: 12, 2: 8, 3: 18}

#: Default AES key (the FIPS-197 Appendix B key) used by workloads.
DEFAULT_AES_KEY_HEX = "2b7e151628aed2a6abf7158809cf4f3c"


@dataclass(frozen=True)
class PlatformConfig:
    """Physical platform: mesh, links, packets, batteries, application.

    Attributes:
        mesh_width / mesh_height: Mesh dimensions (height defaults to
            width).
        link_pitch_cm: Textile line length between adjacent nodes.
        packet_payload_bits / packet_header_bits / switching_activity:
            Packet format of the data network.
        link_width_bits: Serial width of a data line.
        battery_model: ``"thin-film"`` (Fig 7/8) or ``"ideal"``
            (Table 2).
        battery_capacity_pj: Per-node budget ``B``.
        thin_film: Electrical parameters of the thin-film model.
        battery_levels: Quantisation levels ``N_B`` for status reports.
        compute_cycles: Per-module computation latency.
        mapping_strategy: checkerboard / proportional / uniform.
        source_attach_xy: Mesh coordinates (1-based) the external
            source/sink block connects to.
        source_link_cm: Length of the source's textile line.
        return_to_sink: Whether the ciphertext must be delivered back to
            the source block after the final operation.
    """

    mesh_width: int = 4
    mesh_height: int | None = None
    link_pitch_cm: float = DEFAULT_LINK_PITCH_CM
    packet_payload_bits: int = 128
    packet_header_bits: int = 0
    switching_activity: float = 1.0
    link_width_bits: int = 1
    battery_model: str = "thin-film"
    battery_capacity_pj: float = 60_000.0
    thin_film: ThinFilmParameters = field(default_factory=ThinFilmParameters)
    battery_levels: int = 8
    compute_cycles: dict[int, int] = field(
        default_factory=lambda: dict(DEFAULT_COMPUTE_CYCLES)
    )
    mapping_strategy: str = "checkerboard"
    source_attach_xy: tuple[int, int] = (1, 1)
    source_link_cm: float = 10.0
    return_to_sink: bool = False
    #: Input-buffer depth (packets) per node, used by the concurrent
    #: engine; the sequential workload needs no buffering (Sec 7.1).
    node_buffer_packets: int = 2

    def __post_init__(self) -> None:
        if self.mesh_width < 2:
            raise ConfigurationError(
                f"mesh width must be >= 2, got {self.mesh_width}"
            )
        height = self.mesh_height if self.mesh_height else self.mesh_width
        if height < 2:
            raise ConfigurationError(f"mesh height must be >= 2, got {height}")
        if self.battery_model not in BATTERY_MODELS:
            raise ConfigurationError(
                f"unknown battery model {self.battery_model!r}; "
                f"expected one of {BATTERY_MODELS}"
            )
        if self.mapping_strategy not in MAPPING_STRATEGIES:
            raise ConfigurationError(
                f"unknown mapping strategy {self.mapping_strategy!r}; "
                f"expected one of {MAPPING_STRATEGIES}"
            )
        if self.battery_capacity_pj <= 0:
            raise ConfigurationError("battery capacity must be positive")
        if self.battery_levels < 2:
            raise ConfigurationError("need >= 2 battery levels")
        if self.source_link_cm <= 0:
            raise ConfigurationError("source link length must be positive")
        x, y = self.source_attach_xy
        if not (1 <= x <= self.mesh_width and 1 <= y <= height):
            raise ConfigurationError(
                f"source attach point {self.source_attach_xy} outside the "
                f"{self.mesh_width}x{height} mesh"
            )
        for module, cycles in self.compute_cycles.items():
            if cycles < 1:
                raise ConfigurationError(
                    f"compute cycles for module {module} must be >= 1"
                )
        if self.node_buffer_packets < 1:
            raise ConfigurationError(
                "node buffers must hold at least one packet, got "
                f"{self.node_buffer_packets}"
            )

    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self.mesh_height if self.mesh_height else self.mesh_width

    @property
    def num_mesh_nodes(self) -> int:
        """The node budget ``K`` (mesh nodes only; the external source
        and the controllers are outside the budget)."""
        return self.mesh_width * self.height

    def packet_format(self) -> PacketFormat:
        return PacketFormat(
            payload_bits=self.packet_payload_bits,
            header_bits=self.packet_header_bits,
            switching_activity=self.switching_activity,
        )

    def link_energy_model(self) -> LinkEnergyModel:
        return LinkEnergyModel(
            packet=self.packet_format(),
            link_width_bits=self.link_width_bits,
        )

    def hop_energy_pj(self) -> float:
        """Per-hop packet energy at the mesh link pitch."""
        return self.link_energy_model().hop_energy_pj(self.link_pitch_cm)

    def make_topology(self) -> Topology:
        return mesh2d(self.mesh_width, self.height, self.link_pitch_cm)

    def make_mapping(
        self,
        topology: Topology,
        normalized_energies: dict[int, float] | None = None,
        income_weights: Sequence[float] | Mapping[int, float] | None = None,
    ) -> ModuleMapping:
        mesh_nodes = range(self.num_mesh_nodes)
        if self.mapping_strategy == "checkerboard":
            return checkerboard_mapping(topology, mesh_nodes)
        if self.mapping_strategy in ("proportional", "harvest-proportional"):
            if normalized_energies is None:
                raise ConfigurationError(
                    f"{self.mapping_strategy} mapping needs the "
                    "normalised energies"
                )
            if self.mapping_strategy == "harvest-proportional":
                # No income picture (harvest-free run) degenerates to
                # the plain Theorem-1 rule inside the mapper.
                weights = (
                    income_weights
                    if income_weights is not None
                    else [0.0] * self.num_mesh_nodes
                )
                return harvest_proportional_mapping(
                    topology, normalized_energies, weights, mesh_nodes
                )
            return proportional_mapping(
                topology, normalized_energies, mesh_nodes
            )
        return uniform_mapping(topology, num_modules=3, nodes=mesh_nodes)


@dataclass(frozen=True)
class ControlConfig:
    """TDMA control mechanism and controller provisioning.

    Attributes:
        frame_cycles: TDMA frame length.
        medium_width_bits: Shared-medium width (paper: 2).
        status_bits / table_entry_bits: Control payload sizes.
        medium_segment_cm: Electrical length for medium transfers.
        num_controllers: Size of the fail-over chain.
        controller_battery: ``"infinite"`` (Sec 7.1-7.2) or
            ``"thin-film"`` / ``"ideal"`` (Sec 7.3, Fig 8).
        controller_capacity_pj: Battery budget per controller unit.
        energy: Per-action controller energy quanta.
        deadlock: Deadlock-recovery thresholds.
    """

    frame_cycles: int = DEFAULT_FRAME_CYCLES
    medium_width_bits: int = DEFAULT_MEDIUM_WIDTH_BITS
    status_bits: int = DEFAULT_STATUS_BITS
    table_entry_bits: int = DEFAULT_TABLE_ENTRY_BITS
    medium_segment_cm: float = DEFAULT_MEDIUM_SEGMENT_CM
    num_controllers: int = 1
    controller_battery: str = "infinite"
    controller_capacity_pj: float = 60_000.0
    #: Thin-film cell parameters used when ``controller_battery`` is
    #: "thin-film".  The controller is a physically larger block than a
    #: mesh node (Fig 3a), so its cell stack has a much lower effective
    #: internal resistance and tolerates sustained load.
    controller_thin_film: ThinFilmParameters = field(
        default_factory=lambda: ThinFilmParameters(
            internal_resistance_ohm=12_000.0,
            rate_penalty_coeff=0.5,
            reference_current_ma=0.04,
        )
    )
    energy: ControllerEnergyModel = field(
        default_factory=ControllerEnergyModel
    )
    deadlock: DeadlockPolicy = field(default_factory=DeadlockPolicy)

    def __post_init__(self) -> None:
        if self.num_controllers < 1:
            raise ConfigurationError("need at least one controller")
        if self.controller_battery not in ("infinite", "thin-film", "ideal"):
            raise ConfigurationError(
                f"unknown controller battery {self.controller_battery!r}"
            )
        if self.controller_capacity_pj <= 0:
            raise ConfigurationError("controller capacity must be positive")

    def make_schedule(self, num_nodes: int) -> TdmaSchedule:
        return TdmaSchedule(
            num_nodes=num_nodes,
            frame_cycles=self.frame_cycles,
            medium_width_bits=self.medium_width_bits,
            status_bits=self.status_bits,
            table_entry_bits=self.table_entry_bits,
            medium_segment_cm=self.medium_segment_cm,
        )


@dataclass(frozen=True)
class WorkloadConfig:
    """Job generation.

    Attributes:
        kind: ``"sequential"`` — one job at a time, a new job launched
            when the previous completes (paper Sec 7.1); or
            ``"concurrent"`` — ``concurrency`` jobs kept in flight
            through the buffered network (paper's deadlock experiments).
        concurrency: In-flight job target for the concurrent engine.
        aes_key_hex: Cipher key of the encryption jobs.
        seed: Seed of the plaintext generator.
        max_jobs: Stop after this many completed jobs (None = run to
            system death, the paper's setting).
        max_frames: Safety limit on simulated frames.
    """

    kind: str = "sequential"
    concurrency: int = 1
    aes_key_hex: str = DEFAULT_AES_KEY_HEX
    seed: int = 2005
    max_jobs: int | None = None
    max_frames: int = 200_000
    #: Enable the TDMA deadlock-recovery protocol (paper Sec 5.3); the
    #: deadlock bench disables it to demonstrate its effectiveness.
    deadlock_recovery: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("sequential", "concurrent"):
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}"
            )
        if self.concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        if self.max_jobs is not None and self.max_jobs < 1:
            raise ConfigurationError("max_jobs must be >= 1 or None")
        if self.max_frames < 1:
            raise ConfigurationError("max_frames must be >= 1")
        key = bytes.fromhex(self.aes_key_hex)
        if len(key) not in (16, 24, 32):
            raise ConfigurationError(
                "AES key must be 16/24/32 bytes, got "
                f"{len(key)} from {self.aes_key_hex!r}"
            )

    @property
    def aes_key(self) -> bytes:
        return bytes.fromhex(self.aes_key_hex)


@dataclass(frozen=True)
class RoutingOptions:
    """Congestion-aware spreading options of the routing stack.

    Groups the knobs added on top of the historical flat ``wear_*`` /
    ``harvest_*`` fields into one section (the shape future cost terms
    should follow).  The default instance is behaviour-identical to the
    pre-congestion simulator, and :meth:`SimulationConfig.to_dict`
    omits the section entirely when it is default so existing cached
    results and golden fixtures keep their hashes.

    Attributes:
        congestion_aware: Track per-link EMA utilisation and penalise
            hot links in the EAR weight.  Only meaningful with
            ``routing == "ear"``.
        congestion_q: Penalty base of the congestion weight (>= 1; 1 is
            measure-only — utilisation metrics are reported but the
            routing weights are untouched).
        congestion_quantum: Smoothed traversals per frame per quantised
            load level.
        ecmp: Round-robin over equal-cost next-hop groups instead of
            always forwarding on the canonical shortest-path hop.
        ecmp_seed: Seed of the deterministic rotation offsets.
    """

    congestion_aware: bool = False
    congestion_q: float = CONGESTION_CHANNEL.q
    congestion_quantum: float = CONGESTION_CHANNEL.quantum
    ecmp: bool = False
    ecmp_seed: int = 0

    def __post_init__(self) -> None:
        if self.congestion_q < 1.0:
            raise ConfigurationError("congestion Q must be >= 1")
        if self.congestion_quantum <= 0:
            raise ConfigurationError("congestion quantum must be positive")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one et_sim run needs.

    Attributes:
        platform: Physical platform description.
        control: Control mechanism description.
        workload: Job generation description.
        faults: Fault-injection schedule description (default: none).
        harvest: Energy-harvesting income description (default: none).
        routing: ``"ear"`` or ``"sdr"``.
        weight_q: EAR's strengthening constant ``Q``.
        wear_aware: Enable the wear-prediction weight: EAR additionally
            penalises links with high traversal counts or degradation
            history, routing around failing lines *before* they sever.
            Only meaningful with ``routing == "ear"``.
        wear_q: Penalty base of the wear weight (>= 1; 1 degenerates to
            reactive EAR).
        wear_quantum: Traversals per quantised wear level.
        harvest_aware: Enable the harvest-bonus weight: the controller
            learns per-node income rates from status uploads and EAR
            steers traffic toward energy-rich regions.  Only meaningful
            with ``routing == "ear"`` and an active harvest profile.
        harvest_q: Bonus base of the harvest weight (>= 1; 1
            degenerates to reactive EAR).
        harvest_quantum: Smoothed income (pJ/frame) per quantised
            income level.
        routing_opts: Congestion/ECMP options (see
            :class:`RoutingOptions`; default = both off).
        engine: Simulation engine to run this configuration on — one of
            :data:`ENGINE_NAMES`.  ``"auto"`` (the default) picks the
            engine matching the workload kind, which is exactly what
            every pre-registry configuration got; name an engine
            explicitly to override (e.g. ``"vector"`` for the
            engine that merges each frame's draws into one).
    """

    platform: PlatformConfig = field(default_factory=PlatformConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    harvest: HarvestConfig = field(default_factory=HarvestConfig)
    routing: str = "ear"
    weight_q: float = DEFAULT_Q
    wear_aware: bool = False
    wear_q: float = WEAR_CHANNEL.q
    wear_quantum: int = WEAR_CHANNEL.quantum
    harvest_aware: bool = False
    harvest_q: float = HARVEST_CHANNEL.q
    harvest_quantum: float = HARVEST_CHANNEL.quantum
    routing_opts: RoutingOptions = field(default_factory=RoutingOptions)
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.routing not in ROUTING_ALGORITHMS:
            raise ConfigurationError(
                f"unknown routing algorithm {self.routing!r}; expected "
                f"one of {ROUTING_ALGORITHMS}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{ENGINE_NAMES}"
            )
        if self.weight_q <= 0:
            raise ConfigurationError("weight Q must be positive")
        if self.wear_q < 1.0:
            raise ConfigurationError("wear Q must be >= 1")
        if self.wear_quantum < 1:
            raise ConfigurationError("wear quantum must be >= 1")
        if self.harvest_q < 1.0:
            raise ConfigurationError("harvest Q must be >= 1")
        if self.harvest_quantum <= 0:
            raise ConfigurationError("harvest quantum must be positive")

    def resolved_engine(self) -> str:
        """The concrete engine name this configuration runs on.

        ``"auto"`` resolves from the workload kind — sequential
        workloads ran on the sequential engine and concurrent workloads
        on the concurrent engine long before engines were selectable,
        and ``"auto"`` preserves exactly that behaviour.
        """
        if self.engine != "auto":
            return self.engine
        return (
            "concurrent"
            if self.workload.kind == "concurrent"
            else "sequential"
        )

    def weight_function(self) -> BatteryWeightFunction:
        return BatteryWeightFunction(
            q=self.weight_q, levels=self.platform.battery_levels
        )

    def level_channels(self) -> tuple[LevelChannel, ...]:
        """The enabled level channels, in cost-pipeline order."""
        channels = []
        if self.wear_aware:
            channels.append(
                replace(WEAR_CHANNEL, q=self.wear_q, quantum=self.wear_quantum)
            )
        if self.harvest_aware:
            channels.append(
                replace(
                    HARVEST_CHANNEL,
                    q=self.harvest_q,
                    quantum=self.harvest_quantum,
                )
            )
        opts = self.routing_opts
        if opts.congestion_aware:
            channels.append(
                replace(
                    CONGESTION_CHANNEL,
                    q=opts.congestion_q,
                    quantum=opts.congestion_quantum,
                )
            )
        return tuple(channels)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe) of the full configuration."""
        raw = asdict(self)
        # asdict turns the nested profile dataclasses into dicts already;
        # only tuples need normalising for strict JSON round-trips.
        raw["platform"]["source_attach_xy"] = list(
            raw["platform"]["source_attach_xy"]
        )
        for section, attr in (
            ("platform", "thin_film"),
            ("control", "controller_thin_film"),
        ):
            params = getattr(getattr(self, section), attr)
            raw[section][attr]["profile"] = {
                "name": params.profile.name,
                "points": [list(p) for p in params.profile.points],
            }
        # The routing_opts section postdates most cached results and
        # golden fixtures; the default instance is behaviour-identical
        # to the pre-congestion simulator, so it is normalised out of
        # the serialised form — default-pipeline configs keep their
        # config hashes and old cache entries keep hitting.
        if self.routing_opts == RoutingOptions():
            raw.pop("routing_opts", None)
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "SimulationConfig":
        """Inverse of :meth:`to_dict`."""
        from .battery.profile import DischargeProfile

        data = dict(raw)
        platform_raw = dict(data.get("platform", {}))
        control_raw = dict(data.get("control", {}))
        workload_raw = dict(data.get("workload", {}))
        faults_raw = data.get("faults", {})
        harvest_raw = data.get("harvest", {})

        def thin_film_params(tf_raw: dict) -> ThinFilmParameters:
            tf_raw = dict(tf_raw)
            if "profile" in tf_raw and isinstance(tf_raw["profile"], dict):
                tf_raw["profile"] = DischargeProfile(
                    points=tuple(
                        (float(d), float(v))
                        for d, v in tf_raw["profile"]["points"]
                    ),
                    name=tf_raw["profile"].get("name", "custom"),
                )
            return ThinFilmParameters(**tf_raw)

        if "thin_film" in platform_raw:
            platform_raw["thin_film"] = thin_film_params(
                platform_raw["thin_film"]
            )
        if "controller_thin_film" in control_raw and isinstance(
            control_raw["controller_thin_film"], dict
        ):
            control_raw["controller_thin_film"] = thin_film_params(
                control_raw["controller_thin_film"]
            )
        if "source_attach_xy" in platform_raw:
            platform_raw["source_attach_xy"] = tuple(
                platform_raw["source_attach_xy"]
            )
        if "compute_cycles" in platform_raw:
            platform_raw["compute_cycles"] = {
                int(k): int(v)
                for k, v in platform_raw["compute_cycles"].items()
            }
        if isinstance(harvest_raw, dict) and isinstance(
            harvest_raw.get("hardware"), dict
        ):
            harvest_raw = dict(harvest_raw)
            harvest_raw["hardware"] = HarvestHardware(
                **harvest_raw["hardware"]
            )
        if "energy" in control_raw and isinstance(control_raw["energy"], dict):
            control_raw["energy"] = ControllerEnergyModel(
                **control_raw["energy"]
            )
        if "deadlock" in control_raw and isinstance(
            control_raw["deadlock"], dict
        ):
            control_raw["deadlock"] = DeadlockPolicy(**control_raw["deadlock"])

        return cls(
            platform=PlatformConfig(**platform_raw),
            control=ControlConfig(**control_raw),
            workload=WorkloadConfig(**workload_raw),
            faults=FaultConfig(**faults_raw)
            if isinstance(faults_raw, dict)
            else FaultConfig(),
            harvest=HarvestConfig(**harvest_raw)
            if isinstance(harvest_raw, dict)
            else HarvestConfig(),
            routing=data.get("routing", "ear"),
            weight_q=data.get("weight_q", DEFAULT_Q),
            wear_aware=data.get("wear_aware", False),
            wear_q=data.get("wear_q", WEAR_CHANNEL.q),
            wear_quantum=data.get("wear_quantum", WEAR_CHANNEL.quantum),
            harvest_aware=data.get("harvest_aware", False),
            harvest_q=data.get("harvest_q", HARVEST_CHANNEL.q),
            harvest_quantum=data.get(
                "harvest_quantum", HARVEST_CHANNEL.quantum
            ),
            routing_opts=RoutingOptions(**data["routing_opts"])
            if isinstance(data.get("routing_opts"), dict)
            else RoutingOptions(),
            engine=data.get("engine", "auto"),
        )
