"""Module-to-node mapping strategies.

A mapping assigns every *computational* node of the fabric to exactly one
application module ("Each node is an instance of exactly one module",
paper Sec 3).  External nodes (sources/sinks, controllers) carry no
module.  Three strategies are provided:

* :func:`checkerboard_mapping` — the paper's parity rule (Sec 5.2).
* :func:`proportional_mapping` — Theorem 1's optimal replication
  ``n_i* = K * H_i / sum(H)``, rounded by largest remainder and spread
  spatially by error diffusion.
* :func:`uniform_mapping` — equal replication, the natural naive
  baseline used in the mapping ablation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

from ..errors import MappingError
from .geometry import parity
from .topology import Topology


class ModuleMapping:
    """Immutable assignment of nodes to module ids.

    Args:
        assignment: Mapping from node id to module id (1-based module
            ids, following the paper's Table 1).
        num_modules: Total number of distinct modules ``p``.  Every
            module in ``1..p`` must be instantiated at least once —
            otherwise no job could ever complete.
    """

    def __init__(self, assignment: Mapping[int, int], num_modules: int):
        if num_modules < 1:
            raise MappingError(f"need >= 1 module, got {num_modules}")
        self._num_modules = int(num_modules)
        self._assignment = dict(assignment)
        for node, module in self._assignment.items():
            if not 1 <= module <= num_modules:
                raise MappingError(
                    f"node {node} mapped to module {module}, outside "
                    f"1..{num_modules}"
                )
        counts = Counter(self._assignment.values())
        missing = [m for m in range(1, num_modules + 1) if counts[m] == 0]
        if missing:
            raise MappingError(
                f"modules {missing} are not instantiated on any node; "
                "every module needs at least one duplicate or no job "
                "can ever complete"
            )
        self._counts = {m: counts[m] for m in range(1, num_modules + 1)}
        self._duplicates = {
            m: tuple(sorted(n for n, mod in self._assignment.items() if mod == m))
            for m in range(1, num_modules + 1)
        }

    @property
    def num_modules(self) -> int:
        """Number of distinct modules ``p``."""
        return self._num_modules

    def module_of(self, node: int) -> int | None:
        """Module id of ``node`` (None for unmapped/external nodes)."""
        return self._assignment.get(node)

    def duplicates(self, module: int) -> tuple[int, ...]:
        """The paper's ``S_i``: sorted node ids instantiating ``module``."""
        try:
            return self._duplicates[module]
        except KeyError:
            raise MappingError(
                f"module {module} outside 1..{self._num_modules}"
            ) from None

    def duplicate_counts(self) -> dict[int, int]:
        """The paper's ``n_i``: number of duplicates per module."""
        return dict(self._counts)

    def validate_against(self, topology: Topology) -> None:
        """Check that every mapped node exists in ``topology``."""
        for node in self._assignment:
            if not 0 <= node < topology.num_nodes:
                raise MappingError(
                    f"mapped node {node} does not exist in {topology!r}"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleMapping):
            return NotImplemented
        return (
            self._assignment == other._assignment
            and self._num_modules == other._num_modules
        )

    def __repr__(self) -> str:
        counts = ", ".join(
            f"n{m}={c}" for m, c in sorted(self._counts.items())
        )
        return f"ModuleMapping(p={self._num_modules}, {counts})"


def checkerboard_mapping(
    topology: Topology, nodes: Iterable[int] | None = None
) -> ModuleMapping:
    """The paper's parity mapping for the 3-module AES application.

    "Assuming any node with coordinates (x, y), our mapping strategy is
    to map that node to module 1 if m(x)+m(y)=2, to module 2 if
    m(x)+m(y)=0, and to module 3 if m(x)+m(y)=1 where m(x) is defined as
    x modulo 2" (Sec 5.2).  With 1-based coordinates this places module 1
    on odd/odd nodes, module 2 on even/even nodes and module 3 — the most
    energy-hungry module — on the remaining (roughly half the) nodes,
    qualitatively matching Theorem 1's proportional rule.
    """
    if topology.mesh_width is None:
        raise MappingError("checkerboard mapping requires a mesh topology")
    selected = (
        range(topology.mesh_width * (topology.mesh_height or 0))
        if nodes is None
        else nodes
    )
    assignment: dict[int, int] = {}
    for node in selected:
        x, y = topology.coordinates(node)
        parity_sum = parity(x) + parity(y)
        if parity_sum == 2:
            assignment[node] = 1
        elif parity_sum == 0:
            assignment[node] = 2
        else:
            assignment[node] = 3
    mapping = ModuleMapping(assignment, num_modules=3)
    mapping.validate_against(topology)
    return mapping


def _largest_remainder_allocation(
    weights: dict[int, float], total: int
) -> dict[int, int]:
    """Integer allocation of ``total`` slots proportional to ``weights``.

    Guarantees at least one slot per key (a module with zero duplicates
    would make jobs impossible) and exact total.
    """
    if total < len(weights):
        raise MappingError(
            f"cannot allocate {total} nodes to {len(weights)} modules "
            "(each module needs at least one duplicate)"
        )
    weight_sum = sum(weights.values())
    if weight_sum <= 0:
        raise MappingError("allocation weights must sum to a positive value")
    raw = {m: total * w / weight_sum for m, w in weights.items()}
    counts = {m: max(1, int(raw[m])) for m in weights}
    # Fix the total by walking the largest fractional remainders.
    while sum(counts.values()) < total:
        candidates = sorted(
            weights,
            key=lambda m: (raw[m] - counts[m]),
            reverse=True,
        )
        counts[candidates[0]] += 1
        raw[candidates[0]] -= 1.0
    while sum(counts.values()) > total:
        candidates = sorted(
            (m for m in weights if counts[m] > 1),
            key=lambda m: (raw[m] - counts[m]),
        )
        if not candidates:
            raise MappingError("cannot shrink allocation below 1 per module")
        counts[candidates[0]] -= 1
        raw[candidates[0]] += 1.0
    return counts


#: Smallest supply mass a node may carry in the income-aware mapping:
#: even a node with no generator still brings its battery to the table.
_MASS_FLOOR = 0.05

#: Default income bias of :func:`harvest_proportional_mapping`.
#: Calibrated on the ``harvest-mapping`` scenario's quick grid — small
#: enough that the placement keeps the proportional rule's spatial
#: interleaving (which the transport energy depends on), large enough
#: that the energy-hungry duplicates actually migrate onto the
#: generator-equipped nodes.
DEFAULT_INCOME_BIAS = 0.3


def _mass_error_diffusion(
    selected: list[int],
    masses: list[float],
    counts: dict[int, int],
    modules: list[int],
) -> tuple[dict[int, int], dict[int, float]]:
    """Error-diffusion placement in supply-mass space.

    Nodes are visited in ``selected`` order — the spatial interleaving
    the classic diffusion relies on — but the deficits are tracked in
    supply mass: at each node the module whose captured mass lags most
    behind its target share (subject to its duplicate count) is
    assigned.  A high-mass node bumps the cumulative mass hardest, so
    the largest-share (energy-hungriest) module surges to the top of
    the deficit ranking exactly when an income-rich node comes up.
    With unit masses this is the classic count-space diffusion.
    Returns the assignment and the mass each module captured.
    """
    total = len(selected)
    target = {m: counts[m] / total for m in modules}
    assigned = {m: 0 for m in modules}
    captured = {m: 0.0 for m in modules}
    assignment: dict[int, int] = {}
    cum_mass = 0.0
    for position in range(total):
        cum_mass += masses[position]
        deficits = {
            m: target[m] * cum_mass - captured[m]
            for m in modules
            if assigned[m] < counts[m]
        }
        module = max(sorted(deficits), key=lambda m: deficits[m])
        assignment[selected[position]] = module
        assigned[module] += 1
        captured[module] += masses[position]
    return assignment, captured


def proportional_mapping(
    topology: Topology,
    normalized_energies: dict[int, float],
    nodes: Iterable[int] | None = None,
) -> ModuleMapping:
    """Theorem-1 proportional mapping.

    Allocates duplicates proportionally to the normalised energies
    ``H_i`` (paper Eq 3) and spreads each module across the fabric by
    error diffusion over the node order, so duplicates of the same
    module do not clump in one corner.
    """
    selected = list(range(topology.num_nodes) if nodes is None else nodes)
    counts = _largest_remainder_allocation(normalized_energies, len(selected))
    modules = sorted(normalized_energies)
    assignment, _ = _mass_error_diffusion(
        selected, [1.0] * len(selected), counts, modules
    )
    mapping = ModuleMapping(assignment, num_modules=max(modules))
    mapping.validate_against(topology)
    return mapping


def harvest_proportional_mapping(
    topology: Topology,
    normalized_energies: dict[int, float],
    income: Sequence[float] | Mapping[int, float],
    nodes: Iterable[int] | None = None,
    income_bias: float = DEFAULT_INCOME_BIAS,
) -> ModuleMapping:
    """Income-aware Theorem-1 mapping.

    Extends :func:`proportional_mapping` from node-count space to
    *supply-mass* space: each node's mass blends its (uniform) battery
    with its expected harvest income, so generator-equipped regions
    weigh more.  Two effects follow:

    * **Placement** — error diffusion runs over mass in the spatial
      node order, so a generator-equipped node bumps the cumulative
      mass hardest and the energy-hungriest module surges to the top
      of the deficit ranking exactly when such a node comes up.
    * **Duplicate counts** — after a first placement pass, each
      module's count is re-derived from ``H_i`` divided by the mean
      supply mass its duplicates captured: a module sitting on
      income-rich nodes needs fewer duplicates to sustain its share of
      the work, freeing fabric for the others.

    With uniform income (including the all-zero income of a
    harvest-free run) every mass is 1 and both passes reproduce
    :func:`proportional_mapping` exactly.

    Args:
        income: Expected per-node income, indexable by node id (e.g.
            ``HarvestSchedule.expected_income_weights()``).  Only the
            relative magnitudes matter.
        income_bias: Fraction of a node's supply mass carried by its
            income deviation (0 = ignore income entirely, 1 = income
            dominates).
    """
    selected = list(range(topology.num_nodes) if nodes is None else nodes)
    if not 0.0 <= income_bias <= 1.0:
        raise MappingError(
            f"income bias must lie in [0, 1], got {income_bias}"
        )
    raw = [max(0.0, float(income[node])) for node in selected]
    mean = sum(raw) / len(raw) if raw else 0.0
    if mean <= 0.0 or max(raw) == min(raw):
        masses = [1.0] * len(selected)
    else:
        masses = [
            max(_MASS_FLOOR, 1.0 + income_bias * (value / mean - 1.0))
            for value in raw
        ]
    modules = sorted(normalized_energies)
    counts = _largest_remainder_allocation(normalized_energies, len(selected))
    assignment, captured = _mass_error_diffusion(
        selected, masses, counts, modules
    )
    if any(mass != 1.0 for mass in masses):
        # Re-express Theorem 1 in supply-mass space: duplicates needed
        # scale with H_i over the mean mass one duplicate commands.
        # The correction is clamped to a 2x band — income supplements
        # batteries, it does not replace them, and an unbounded
        # correction would collapse a module onto a single very rich
        # node (transport and congestion, which the mapping cannot
        # see, punish that hard).
        mean_captured = {
            m: min(2.0, max(0.5, captured[m] / counts[m])) for m in modules
        }
        adjusted = {
            m: normalized_energies[m] / mean_captured[m] for m in modules
        }
        counts = _largest_remainder_allocation(adjusted, len(selected))
        assignment, _ = _mass_error_diffusion(
            selected, masses, counts, modules
        )
    mapping = ModuleMapping(assignment, num_modules=max(modules))
    mapping.validate_against(topology)
    return mapping


def uniform_mapping(
    topology: Topology,
    num_modules: int,
    nodes: Iterable[int] | None = None,
) -> ModuleMapping:
    """Equal-replication round-robin mapping (ablation baseline)."""
    selected = list(range(topology.num_nodes) if nodes is None else nodes)
    if len(selected) < num_modules:
        raise MappingError(
            f"{len(selected)} nodes cannot host {num_modules} modules"
        )
    assignment = {
        node: (index % num_modules) + 1
        for index, node in enumerate(selected)
    }
    mapping = ModuleMapping(assignment, num_modules=num_modules)
    mapping.validate_against(topology)
    return mapping
