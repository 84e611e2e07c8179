"""Smoke tests: every shipped example must run end to end.

Each test runs one script under ``examples/`` and checks a line of its
output that does not depend on wall-clock timings.
"""

import runpy
import sys

EXAMPLES_DIR = "examples"


def run_example(name: str, capsys) -> str:
    sys.path.insert(0, EXAMPLES_DIR)
    try:
        runpy.run_path(f"{EXAMPLES_DIR}/{name}.py", run_name="__main__")
    finally:
        sys.path.remove(EXAMPLES_DIR)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "more encryption jobs" in out
        assert "Theorem 1 upper bound" in out
        assert "bit-exact" in out

    def test_custom_topology_app(self, capsys):
        out = run_example("custom_topology_app", capsys)
        assert "EAR shifted the load to the charged duplicate" in out
        assert "Theorem 1: J*" in out

    def test_battery_playground(self, capsys):
        out = run_example("battery_playground", capsys)
        assert "hammered" in out
        assert "delivered" in out

    def test_mapping_playground(self, capsys):
        out = run_example("mapping_playground", capsys)
        assert "uniform income degenerates exactly: True" in out
        assert "multi-hop power bus" in out

    def test_congestion_playground(self, capsys):
        out = run_example("congestion_playground", capsys)
        assert "hot-link spread without lifetime cost: True" in out
        assert "measure-only" in out

    def test_trace_playground(self, capsys):
        out = run_example("trace_playground", capsys)
        assert "bare == null-recorder == traced: True" in out
        assert "deterministic channel repeats exactly: True" in out
        assert "term attribution" in out
        assert "steered by the congestion term" in out

    def test_fleet_playground(self, capsys):
        out = run_example("fleet_playground", capsys)
        assert "shard-merge == single stream, bit for bit: True" in out
        assert "survivors by lifetime" in out
        assert "reproducible from (fleet_seed, index)" in out

    def test_smart_shirt_aes(self, capsys):
        out = run_example("smart_shirt_aes", capsys)
        assert "EAR kept the shirt encrypting" in out
        assert "ops over" in out

    def test_vector_playground(self, capsys):
        out = run_example("vector_playground", capsys)
        assert "vector engine speedup" in out
        assert "A 32x32 smart jacket (1024 cells)" in out
        assert "jobs before module-unreachable" in out

    def test_harvest_playground(self, capsys):
        out = run_example("harvest_playground", capsys)
        assert "post-death refill (accepted 0)" in out
        assert "jobs_harvest_aware" in out
        assert "harvest-aware run:" in out

    def test_controller_provisioning(self, capsys):
        out = run_example("controller_provisioning", capsys)
        assert "recommended" in out
        assert "node-limited plateau" in out
