"""What every workload reports: one measured phase and its metrics."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from .stats import latency_summary

__all__ = ["ROOT", "SCRATCH", "Phase", "Metric", "peak_rss_mb", "process_hwm_mb"]

#: the checkout the benchmark runs in, and its scratch directory there
ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


@dataclass
class Phase:
    """One timed phase of a workload.

    ``latencies_ms`` holds one sample per successful operation (a circuit
    ingested, an optimizer step, a query); failed operations are counted
    in ``failed`` and enter percentiles as misses.  ``nodes`` is the
    gate-graph nodes the successful operations processed.
    """

    seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    nodes: int = 0
    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def nodes_per_s(self) -> float:
        return self.nodes / self.seconds if self.seconds > 0 else 0.0

    @property
    def ops_per_s(self) -> float:
        """Successful operations per second."""
        return len(self.latencies_ms) / self.seconds if self.seconds > 0 else 0.0

    def latency(self) -> Dict:
        return latency_summary(self.latencies_ms, self.failed)

    def absorb(self, other: "Phase") -> None:
        """Add a later phase of the same kind to this one.

        Layer counters add up, except high-water marks (``*_peak_bytes``),
        which take the maximum; other extras keep the later value.
        """
        self.seconds += other.seconds
        self.latencies_ms += other.latencies_ms
        self.nodes += other.nodes
        self.attempted += other.attempted
        self.failed += other.failed
        self.skipped += other.skipped
        counters = dict(self.extra.get("layer_counters", {}))
        for key, value in other.extra.get("layer_counters", {}).items():
            merge = max if key.endswith("_peak_bytes") else (lambda a, b: a + b)
            counters[key] = merge(counters[key], value) if key in counters else value
        self.extra.update(other.extra)
        if counters:
            self.extra["layer_counters"] = counters


@dataclass
class Metric:
    """A named value with its unit and the samples behind it."""

    value: float
    unit: str
    samples: int = 1

    def to_dict(self) -> Dict[str, object]:
        return {"value": self.value, "unit": self.unit, "samples": self.samples}


def peak_rss_mb() -> float:
    """This process's lifetime high-water RSS in MB (Linux: KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """High-water RSS of another live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
