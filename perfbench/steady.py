#!/usr/bin/env python3
"""Check the benchmark is steady: run a workload on several seeds.

    python3 perfbench/steady.py --workload train --seeds 1-10 --seconds 15

Runs ``perfbench/run.py`` once per seed, one after another, and prints
each end-to-end metric's median and interquartile spread as a share of
the median (``statistics.quantiles(values, n=4)``), next to the bound
``BENCHMARK.json`` gives it.  A metric is steady when its spread stays
below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in _seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        )
        wall = time.perf_counter() - start
        print(f"seed {seed}: correct={result['correct']} {line} wall={wall:.0f}s",
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        flag = "" if spread < bounds[name] / 3 else "  <- not steady"
        print(f"{name:14s} {statistics.median(vals):12.4f} {spread:8.3f} "
              f"{bounds[name]:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
