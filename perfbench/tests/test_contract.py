"""BENCHMARK.json and the runner agree on every metric name and unit."""

import json

from perfbench import run
from perfbench.layers import LAYERS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match_the_runner():
    expected = {f"{layer}.self_pct": "%" for layer in LAYERS}
    expected["trace.overhead_pct"] = "%"
    expected.update({name: unit for name, (unit, _) in run.LAYER_COUNTERS.items()})
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == expected


def test_workloads_are_run_by_the_runner():
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(names) >= 2 and set(names) <= set(run.WORKLOADS)
