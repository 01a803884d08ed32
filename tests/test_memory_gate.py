"""The memory gate (``benchmarks/memory_gate.py``) below its 100k-gate scale.

The gate itself takes ~10 s and runs in CI's ``huge-smoke`` job.  These
tests pin down its rules against hand-made records and against the record
committed as ``benchmarks/memory_gate.json``, its child-process plumbing,
and its windowed run and full-path probe on a 3000-gate circuit.
"""

import json
import signal
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import memory_gate  # noqa: E402
from memory_gate import (  # noqa: E402
    BUDGETS,
    failed_gates,
    growth_ratio,
    in_child,
    probe_record,
    windowed_run,
)

SMALL, LARGE = (str(b) for b in BUDGETS)
TOY_GATES = 3000
PASSING_PROBE = {"status": "memory_error", "exit_code": 0}


def run_record(peak_kb=230_000, growth_kb=200_000, sha="0" * 64):
    return {
        "peak_rss_kb": peak_kb, "rss_growth_kb": growth_kb, "passes": 6,
        "windows": 40, "predictions_sha256": sha,
    }


def runs_with(**large):
    """Records of two windowed runs, the larger budget's fields overridden."""
    return {SMALL: run_record(), LARGE: run_record(**large)}


def _toy_probe():
    # runs in a spawned child, which imports this module afresh
    memory_gate.NUM_GATES = TOY_GATES
    memory_gate.PROBE_ALLOWANCE_MB = 2048
    return memory_gate.full_path_probe()


class TestFailedGates:
    def test_committed_record_passes(self):
        record = json.loads((BENCHMARKS / "memory_gate.json").read_text())
        assert record["limits"] == {
            "max_rss_kb": memory_gate.MAX_RSS_KB,
            "probe_allowance_mb": memory_gate.PROBE_ALLOWANCE_MB,
            "max_growth_ratio": memory_gate.MAX_GROWTH_RATIO,
            "growth_floor_kb": memory_gate.GROWTH_FLOOR_KB,
        }
        assert set(record["budgets"]) == {SMALL, LARGE}
        assert record["failed"] == []
        assert failed_gates(record["budgets"], record["probe"]) == []
        assert growth_ratio(record["budgets"]) == pytest.approx(
            record["growth_ratio"]
        )

    def test_runs_within_limits_pass(self):
        assert failed_gates(runs_with(), PASSING_PROBE) == []

    def test_peak_rss_at_ceiling_passes(self):
        runs = runs_with(peak_kb=memory_gate.MAX_RSS_KB)
        assert failed_gates(runs, PASSING_PROBE) == []

    def test_peak_rss_over_ceiling_fails(self):
        runs = runs_with(peak_kb=memory_gate.MAX_RSS_KB + 1)
        [line] = failed_gates(runs, PASSING_PROBE)
        assert line.startswith("peak_rss:")
        assert f"budget {LARGE}" in line

    def test_differing_predictions_fail(self):
        [line] = failed_gates(runs_with(sha="1" * 64), PASSING_PROBE)
        assert line.startswith("predictions:")

    def test_growth_over_ratio_fails(self):
        limit = memory_gate.MAX_GROWTH_RATIO * run_record()["rss_growth_kb"]
        assert failed_gates(runs_with(growth_kb=limit), PASSING_PROBE) == []
        runs = runs_with(growth_kb=limit + 1)
        [line] = failed_gates(runs, PASSING_PROBE)
        assert line.startswith("rss_growth:")

    def test_growth_base_is_floored(self):
        # a near-zero growth at the smaller budget cannot turn jitter at
        # the larger one into a huge ratio
        runs = {SMALL: run_record(growth_kb=1), LARGE: run_record(growth_kb=2000)}
        assert growth_ratio(runs) == pytest.approx(
            2000 / memory_gate.GROWTH_FLOOR_KB
        )
        assert failed_gates(runs, PASSING_PROBE) == []

    @pytest.mark.parametrize("status, passes", [
        ("memory_error", True),
        ("killed", True),
        ("completed", False),
        ("failed", False),
    ])
    def test_probe_passes_only_when_the_full_path_cannot_run(
        self, status, passes
    ):
        failed = failed_gates(runs_with(), {"status": status, "exit_code": 1})
        if passes:
            assert failed == []
        else:
            [line] = failed
            assert line.startswith(f"probe: the full path ended {status!r}")

    def test_dead_run_fails_and_skips_the_comparisons(self):
        runs = runs_with()
        runs[LARGE] = {"exit_code": -9}
        assert growth_ratio(runs) is None
        assert failed_gates(runs, PASSING_PROBE) == [
            f"run: budget {LARGE} died with exit code -9"
        ]


class TestInChild:
    def test_result_and_clean_exit(self):
        assert in_child(abs, -3) == (3, 0)

    def test_exception_is_a_failed_probe(self):
        result, code = in_child(int, "not a number")
        assert (result, code) == (None, 1)
        assert probe_record(result, code) == {"status": "failed", "exit_code": 1}

    def test_signal_is_a_killed_probe(self):
        result, code = in_child(signal.raise_signal, signal.SIGKILL)
        assert (result, code) == (None, -signal.SIGKILL)
        assert probe_record(result, code)["status"] == "killed"


class TestToyScale:
    @pytest.fixture(autouse=True)
    def toy_circuit(self, monkeypatch):
        monkeypatch.setattr(memory_gate, "NUM_GATES", TOY_GATES)

    def test_windowed_run_record(self):
        run = windowed_run(32)
        assert run["passes"] > 0
        # every pass over the toy circuit's levels is split into windows
        assert run["windows"] > run["passes"]
        assert run["peak_rss_kb"] >= run["rss_growth_kb"] >= 0

    def test_predictions_identical_across_budgets(self):
        small, large = windowed_run(32), windowed_run(1024)
        assert small["windows"] > large["windows"]
        assert small["predictions_sha256"] == large["predictions_sha256"]

    def test_full_path_probe_completes_with_room(self):
        # the memory_error outcome needs the 100k-gate circuit; this checks
        # the rlimit and the hand-off of the probe's record
        probe = probe_record(*in_child(_toy_probe))
        assert probe["status"] == "completed", probe
        assert probe["exit_code"] == 0
        assert probe["peak_rss_kb"] > 0
