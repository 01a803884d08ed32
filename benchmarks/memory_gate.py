"""Memory gate for windowed propagation on a 100k-gate circuit.

    python benchmarks/memory_gate.py > memory_gate.json

Run from anywhere; the package is imported from ``src/`` of this checkout.
Takes no arguments and needs Linux (``ru_maxrss`` in KB, ``/proc``).  Each
window budget, and the probe of the full (non-windowed) path, runs in a
fresh child process, so every peak RSS is that run's own.  Prints one JSON
record, committed as ``benchmarks/memory_gate.json``, and exits 1 naming
each failed gate on standard error:

``peak_rss``     each windowed run peaks at or below ``MAX_RSS_KB``
``probe``        the full path cannot run the same forward+backward within
                 ``PROBE_ALLOWANCE_MB`` of address space beyond what is
                 mapped after ``prepare``: it must end in a ``MemoryError``
                 or be killed by a signal
``predictions``  forward predictions are byte-identical across budgets
``rss_growth``   RSS growth at the larger budget is at most
                 ``MAX_GROWTH_RATIO`` times that at the smaller one

It records no timings: perfbench's ``stream`` workload times this path.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.datagen.generators import huge_circuit  # noqa: E402
from repro.graphdata import prepare  # noqa: E402
from repro.models import DeepGate  # noqa: E402
from repro.models.propagation import (  # noqa: E402
    get_window_stats,
    reset_window_stats,
    use_window_budget,
)
from repro.nn import no_grad  # noqa: E402
from repro.nn.functional import l1_loss  # noqa: E402
from repro.nn.optim import Adam, clip_grad_norm  # noqa: E402

NUM_GATES, CIRCUIT_SEED = 100_000, 0
DIM, ITERATIONS, RNG_SEED = 32, 1, 0
LR, GRAD_CLIP = 1e-4, 5.0
BUDGETS = (4096, 16384)

# Windowed runs peak at ~149,000-192,000 KB.  The ceiling leaves them margin
# but fails a run that keeps O(N) per-group state again (unwindowed, both
# runs peak at ~555,000 KB).  The full pass needs ~500 MB of address space
# beyond prepare, so the probe allowance must make it fail.
MAX_RSS_KB = 396_288
PROBE_ALLOWANCE_MB = 400
MAX_GROWTH_RATIO = 2.0
GROWTH_FLOOR_KB = 1024  # a near-zero smaller-budget growth is not a base


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _setup():
    batch = prepare([huge_circuit(NUM_GATES, seed=CIRCUIT_SEED)])
    model = DeepGate(
        dim=DIM, num_iterations=ITERATIONS, aggregator="attention",
        rng=np.random.default_rng(RNG_SEED),
    )
    return batch, model


def windowed_run(budget: int) -> dict:
    """A no-grad forward, a forward+backward and one Adam step at ``budget``."""
    start_kb = _peak_rss_kb()
    batch, model = _setup()
    reset_window_stats()
    with use_window_budget(budget):
        with no_grad():
            pred = model(batch).data
        l1_loss(model(batch), batch.labels).backward()
        optimizer = Adam(model.parameters(), lr=LR)
        optimizer.zero_grad()
        l1_loss(model(batch), batch.labels).backward()
        clip_grad_norm(model.parameters(), GRAD_CLIP)
        optimizer.step()
    peak_kb = _peak_rss_kb()
    stats = get_window_stats()
    return {
        "peak_rss_kb": peak_kb,
        "rss_growth_kb": peak_kb - start_kb,
        "passes": stats["passes"],
        "windows": stats["windows"],
        "predictions_sha256": hashlib.sha256(pred.tobytes()).hexdigest(),
    }


def full_path_probe() -> dict:
    """The forward+backward on the full path under an address-space cap."""
    batch, model = _setup()
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    # soft limit only, so it can be lifted again before reporting
    resource.setrlimit(
        resource.RLIMIT_AS, (mapped + PROBE_ALLOWANCE_MB * 2**20, hard)
    )
    try:
        with use_window_budget(None):
            l1_loss(model(batch), batch.labels).backward()
        status = "completed"
    except MemoryError:
        status = "memory_error"
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (hard, hard))
    return {"status": status, "peak_rss_kb": _peak_rss_kb()}


def _child(send, job, args) -> None:
    send.send(job(*args))


def in_child(job, *args):
    """``(job(*args), exit code)`` from a fresh interpreter; the result is
    ``None`` when the child died before sending it (its traceback, if any,
    is on standard error)."""
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(send, job, args))
    proc.start()
    send.close()
    try:
        result = recv.recv()
    except EOFError:
        result = None
    proc.join()
    return result, proc.exitcode


def probe_record(result: dict | None, code: int) -> dict:
    """The probe child's record, or its fate if it died before sending one:
    ``killed`` by a signal, else ``failed`` (a non-memory exception)."""
    if result is None:
        result = {"status": "killed" if code < 0 else "failed"}
    return dict(result, exit_code=code)


def growth_ratio(runs: dict) -> float | None:
    """RSS growth at the larger budget over that at the smaller one, the
    base floored at ``GROWTH_FLOOR_KB``; ``None`` if either run died."""
    small, large = (runs[str(b)] for b in BUDGETS)
    if "rss_growth_kb" not in small or "rss_growth_kb" not in large:
        return None
    return large["rss_growth_kb"] / max(small["rss_growth_kb"], GROWTH_FLOOR_KB)


def failed_gates(runs: dict, probe: dict) -> list[str]:
    """One line per failed gate, given each budget's run record (or
    ``{"exit_code": ...}`` if that child died) and the probe's record."""
    failed = []
    for budget in BUDGETS:
        run = runs[str(budget)]
        if "peak_rss_kb" not in run:
            failed.append(
                f"run: budget {budget} died with exit code {run['exit_code']}"
            )
        elif run["peak_rss_kb"] > MAX_RSS_KB:
            failed.append(
                f"peak_rss: {run['peak_rss_kb']} KB at budget {budget} "
                f"> {MAX_RSS_KB} KB"
            )

    if probe["status"] not in ("memory_error", "killed"):
        failed.append(
            f"probe: the full path ended {probe['status']!r} (exit code "
            f"{probe['exit_code']}) under {PROBE_ALLOWANCE_MB} MB; want a "
            f"MemoryError or a signal"
        )

    ratio = growth_ratio(runs)
    if ratio is not None:
        small, large = (runs[str(b)] for b in BUDGETS)
        if small["predictions_sha256"] != large["predictions_sha256"]:
            failed.append(f"predictions: differ between budgets {BUDGETS}")
        if ratio > MAX_GROWTH_RATIO:
            failed.append(f"rss_growth: ratio {ratio:.2f} > {MAX_GROWTH_RATIO}")
    return failed


def main() -> int:
    runs = {}
    for budget in BUDGETS:
        result, code = in_child(windowed_run, budget)
        runs[str(budget)] = result or {"exit_code": code}
    probe = probe_record(*in_child(full_path_probe))
    failed = failed_gates(runs, probe)

    record = {
        "circuit": {"gates": NUM_GATES, "seed": CIRCUIT_SEED},
        "model": {
            "aggregator": "attention", "dim": DIM, "iterations": ITERATIONS,
            "rng_seed": RNG_SEED, "lr": LR, "grad_clip": GRAD_CLIP,
        },
        "limits": {
            "max_rss_kb": MAX_RSS_KB,
            "probe_allowance_mb": PROBE_ALLOWANCE_MB,
            "max_growth_ratio": MAX_GROWTH_RATIO,
            "growth_floor_kb": GROWTH_FLOOR_KB,
        },
        "budgets": runs,
        "probe": probe,
        "growth_ratio": growth_ratio(runs),
        "failed": failed,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    for line in failed:
        print(f"memory gate failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
