"""Outside-in layer spans: timing the program's layers from the benchmark.

The program's own telemetry is not used here.  Instead the benchmark
wraps the entry point of each layer (a method on a class, or a function
looked up through a module global) with a span that records its wall
time.  Spans nest through one stack, so every span knows the time its
child spans covered; a layer's *self* time is its duration minus that.

Only totals are kept in memory — calls, inclusive and self seconds per
``(caller layer, layer)`` edge — and read out when the run ends.  A
target that a refactor renamed or removed is skipped and reported, and
its time then shows up as self time of the nearest wrapped caller, so
the outer layers stay comparable across program versions.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

#: Layer boundaries: (module, class or None for a module function,
#: attribute, layer).  A class attribute is wrapped only where the class
#: itself defines it, so an override and the base method it calls
#: through ``super()`` are each wrapped once; a span nested directly
#: inside a span of the same layer folds into it.
LAYER_TARGETS = (
    ("repro.orchestration.runner", "SweepRunner", "run", "sweep"),
    ("repro.orchestration.runner", None, "config_hash", "config-hash"),
    ("repro.orchestration.cache", "SweepCache", "lookup", "cache-lookup"),
    ("repro.orchestration.cache", "SweepCache", "store", "cache-store"),
    ("repro.orchestration.runner", None, "execute_point", "point"),
    ("repro.sim.registry", None, "build_engine", "engine-build"),
    ("repro.sim.sequential_engine", "SequentialEngine", "_run_job", "job-walk"),
    ("repro.sim.base_engine", "EngineBase", "_run_frame", "frame"),
    ("repro.sim.vector_engine", "VectorEngine", "_run_frame", "frame"),
    ("repro.sim.base_engine", "EngineBase", "_apply_faults", "faults"),
    ("repro.sim.base_engine", "EngineBase", "_apply_harvest", "harvest"),
    ("repro.sim.vector_engine", "VectorEngine", "_apply_harvest", "harvest"),
    ("repro.sim.base_engine", "EngineBase", "_apply_power_sharing", "power-bus"),
    ("repro.sim.base_engine", "EngineBase", "_heartbeat_phase", "heartbeat"),
    ("repro.sim.vector_engine", "VectorEngine", "_heartbeat_phase", "heartbeat"),
    ("repro.control.controller", "ControlPlane", "process_frame", "control-frame"),
    ("repro.core.engines", "RoutingEngine", "compute_plan", "plan"),
    ("repro.core.costs", "CostPipeline", "weight_matrix", "cost-pipeline"),
    ("repro.core.engines", None, "floyd_warshall_successors", "shortest-paths"),
    ("repro.core.engines", None, "select_destinations", "select-destinations"),
    ("repro.control.controller", "ControlPlane", "_tables_of", "table-diff"),
    ("repro.battery.thin_film", "ThinFilmBattery", "draw", "battery-draw"),
    ("repro.battery.ideal", "IdealBattery", "draw", "battery-draw"),
    ("repro.sim.vector_bank", "ThinFilmBatteryBank", "draw", "battery-draw"),
    ("repro.sim.vector_bank", "ThinFilmBatteryBank", "draw_one", "battery-draw"),
    ("repro.sim.vector_bank", "IdealBatteryBank", "draw", "battery-draw"),
    ("repro.sim.vector_bank", "IdealBatteryBank", "draw_one", "battery-draw"),
    ("repro.sim.base_engine", "EngineBase", "_finalize", "finalize"),
    ("repro.sim.vector_engine", "VectorEngine", "_finalize", "finalize"),
    ("repro.sim.stats", "SimulationStats", "summary", "summary"),
)


@dataclass
class LayerTotals:
    """Accumulated spans of one layer (or one caller -> layer edge)."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


@dataclass
class SpanTracer:
    """Span stack plus per-edge totals, and the patches that feed them."""

    #: Re-plans the control plane computed, and those that changed at
    #: least one downloaded routing-table entry.
    replans: int = 0
    replans_changing_tables: int = 0
    missing: list[str] = field(default_factory=list)
    #: ``(caller layer, layer) -> [calls, inclusive s, self s]``; the
    #: caller of an outermost span is "".
    _edges: dict[tuple[str, str], list] = field(default_factory=dict)
    _stack: list[list] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def traced(self, fn, name: str):
        """``fn`` wrapped in a span of layer ``name``.

        Runs on every call of hot layers (battery draws), so it keeps to
        local lookups and list arithmetic.
        """
        stack = self._stack
        edges = self._edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            entry = [name, 0.0]
            stack.append(entry)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    caller = stack[-1]
                    caller[1] += elapsed
                    key = (caller[0], name)
                else:
                    key = ("", name)
                totals = edges.get(key)
                if totals is None:
                    totals = edges[key] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - entry[1]

        return span

    def _traced_control_frame(self, fn):
        """The control-plane frame span, also counting re-plan outcomes."""
        inner = self.traced(fn, "control-frame")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outcome = inner(*args, **kwargs)
            if getattr(outcome, "recomputed", False):
                self.replans += 1
                if getattr(outcome, "table_entries_sent", 0) > 0:
                    self.replans_changing_tables += 1
            return outcome

        return span

    # ------------------------------------------------------------------
    def edges(self) -> dict[tuple[str, str], LayerTotals]:
        return {key: LayerTotals(*totals) for key, totals in self._edges.items()}

    def layers(self) -> dict[str, LayerTotals]:
        """Totals per layer, summed over its callers."""
        out: dict[str, LayerTotals] = {}
        for (_, layer), (calls, inclusive, own) in self._edges.items():
            totals = out.setdefault(layer, LayerTotals())
            totals.calls += calls
            totals.inclusive_s += inclusive
            totals.self_s += own
        return out

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer target that exists in the loaded program."""
        for module_name, owner_name, attr, layer in LAYER_TARGETS:
            target = ".".join(filter(None, (module_name, owner_name, attr)))
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target)
                continue
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(target)
                continue
            if layer == "control-frame":
                wrapped = self._traced_control_frame(original)
            else:
                wrapped = self.traced(original, layer)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped target."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
