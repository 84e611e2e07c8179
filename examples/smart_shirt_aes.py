#!/usr/bin/env python
"""The paper's motivating scenario: a smart shirt encrypting sensor data.

Fig 3(a) of the paper sketches a shirt with a sensor/actuator block wired
to a region of computational modules and batteries that performs
distributed AES encryption.  This example models that shirt end to end:

* a 6x6 encryption region woven from ~2 cm textile links,
* the sensor block attached by a 10 cm line to a corner of the region,
* ciphertexts delivered back to the sensor block (return_to_sink), as a
  WLAN radio in the block would transmit them (802.11i motivates AES in
  the paper's introduction),
* concurrent sensor readings (4 jobs in flight) through the buffered
  network with deadlock recovery enabled.

The run prints per-module load, where energy went, and the lifetime of
the shirt under EAR vs SDR.

Run:  python examples/smart_shirt_aes.py
"""

from repro import PlatformConfig, SimulationConfig, WorkloadConfig
from repro.aes.dataflow import MODULE_NAMES
from repro.sim.registry import build_engine


def shirt_config(routing: str) -> SimulationConfig:
    return SimulationConfig(
        platform=PlatformConfig(
            mesh_width=6,
            source_attach_xy=(1, 1),     # sensor wired to the corner
            source_link_cm=10.0,         # across the shoulder seam
            return_to_sink=True,         # ciphertext back to the radio
            node_buffer_packets=2,
        ),
        workload=WorkloadConfig(
            kind="concurrent",
            concurrency=4,               # sensor batches 4 readings
            seed=1,
        ),
        routing=routing,
    )


def main() -> None:
    print("=== Smart shirt: distributed AES over a 6x6 woven region ===\n")

    lifetimes = {}
    for routing in ("ear", "sdr"):
        engine = build_engine(shirt_config(routing))
        stats = engine.run()
        lifetimes[routing] = stats

        print(f"--- {routing.upper()} ---")
        print(
            f"encrypted readings delivered: {stats.jobs_completed} "
            f"(+{stats.partial_progress:.1f} in flight at death)"
        )
        print(
            f"system died of {stats.death_cause} after "
            f"{stats.lifetime_frames} TDMA frames"
        )
        print(
            f"deadlocks: {stats.deadlocks_reported} reported, "
            f"{stats.deadlocks_recovered} recovered"
        )

        # Per-module load distribution.
        by_module: dict[int, list[float]] = {1: [], 2: [], 3: []}
        for node in range(engine.num_mesh_nodes):
            module = engine.mapping.module_of(node)
            by_module[module].append(engine.ledger.nodes.operations[node])
        for module, ops in by_module.items():
            total = sum(ops)
            spread = max(ops) - min(ops)
            print(
                f"  {MODULE_NAMES[module]:28s}: {total:5.0f} ops over "
                f"{len(ops)} duplicates (max-min spread {spread:.0f})"
            )
        ledger = stats.energy
        print(
            f"  energy: compute {ledger.compute_pj / 1e3:.0f} nJ, "
            f"data {ledger.data_tx_pj / 1e3:.0f} nJ, "
            f"control medium {ledger.control_medium_pj / 1e3:.1f} nJ\n"
        )

    gain = (
        lifetimes["ear"].jobs_fractional
        / lifetimes["sdr"].jobs_fractional
    )
    print(
        f"EAR kept the shirt encrypting {gain:.1f}x longer than "
        "shortest-distance routing."
    )


if __name__ == "__main__":
    main()
