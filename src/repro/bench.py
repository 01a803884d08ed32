"""Propagation micro-benchmarks: ``repro bench run`` / ``repro bench compare``.

Times the model stack over three circuit regimes — a *small* batch of mixed
circuits, a single *deep* carry-chain circuit (many levels, the worst case
for level-by-level propagation), and a *wide* shallow batch — plus four
``default_<aggregator>`` suites that train one DeepGate variant per
AGGREGATE design (Table II) over several default-scale mini-batches per
epoch, and writes a machine-comparable ``BENCH_<name>.json``.  Metrics per
suite:

``forward_s``      best-of-N wall-clock of an inference forward pass
``backward_s``     best-of-N wall-clock of forward + backward
``train_epoch_s``  best-of-N wall-clock of a full Adam training epoch
``nodes_per_s``    training throughput (batch nodes / train_epoch_s)

Time metrics report the *minimum* over the repeats (the ``timeit``
convention): on shared machines scheduler interference only ever adds
time, so the fastest sample is the closest to the code's true cost and
is far more stable run-to-run than a median of a handful of samples.
``tracemalloc_peak_mb``  peak traced python/numpy allocations in one
                   forward+backward (measured outside the timed repeats)
``peak_rss_kb``    process high-water RSS after the suite, in KB on every
                   platform (``ru_maxrss`` is bytes on macOS, KB on Linux —
                   normalised here).  It is a lifetime high-water mark, so
                   it is monotone across suites; ``peak_rss_delta_kb`` is
                   the growth attributable to this suite (high-water after
                   minus high-water before, floored at 0)

``repro bench compare old.json new.json`` prints per-metric speedups
(``old / new`` for time metrics) and a headline deep-circuit training
speedup, which is how CI tracks the trend against the committed reference
``benchmarks/BENCH_batched.json``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .datagen.generators import decoder, multiplier, parity, ripple_adder
from .graphdata import PreparedBatch, from_aig, prepare
from .models.aggregators import AGGREGATOR_NAMES
from .models.deepgate import DeepGate
from .nn.functional import l1_loss
from .nn.optim import Adam, clip_grad_norm
from .nn.tensor import no_grad
from .synth import synthesize

__all__ = [
    "BENCH_SUITES",
    "AGGREGATOR_SUITES",
    "HUGE_SUITE",
    "all_suite_names",
    "bench_huge_suite",
    "run_benchmarks",
    "write_bench_file",
    "compare_bench",
    "max_rss_regression",
    "render_compare",
]

#: time metrics where "old / new > 1" means the new run is faster
TIME_METRICS = ("forward_s", "backward_s", "train_epoch_s")

#: suite name -> list of (generator, kwargs) building its circuits
BENCH_SUITES: Dict[str, List[Tuple[Callable, Dict[str, int]]]] = {
    "small": [
        (ripple_adder, {"width": 4}),
        (parity, {"width": 8}),
        (ripple_adder, {"width": 6}),
        (parity, {"width": 12}),
        (decoder, {"select_bits": 4}),
        (multiplier, {"width": 3}),
    ],
    # one long carry chain: many levels with few nodes each, the regime
    # where per-level full-state copies dominate
    "deep": [(ripple_adder, {"width": 48})],
    # few levels with many nodes each: per-level overheads amortise, the
    # segment reductions themselves dominate
    "wide": [
        (decoder, {"select_bits": 7}),
        (multiplier, {"width": 6}),
    ],
}

#: the mini-batches of the ``default_<aggregator>`` suites: circuit sizes
#: sit inside the `default` experiment scale's node window, and a train
#: epoch steps once per batch (the multi-batch regime real training runs
#: in, where schedule-compilation caching pays off per batch, not once)
DEFAULT_SCALE_BATCHES: List[List[Tuple[Callable, Dict[str, int]]]] = [
    [(ripple_adder, {"width": 16}), (decoder, {"select_bits": 5})],
    [(multiplier, {"width": 4}), (parity, {"width": 16})],
    [(ripple_adder, {"width": 24}), (decoder, {"select_bits": 6})],
]

#: suite name -> aggregator: each trains a DeepGate variant with that
#: AGGREGATE design over :data:`DEFAULT_SCALE_BATCHES` (skip connections
#: only where the design supports them, i.e. attention)
AGGREGATOR_SUITES: Dict[str, str] = {
    f"default_{name}": name for name in AGGREGATOR_NAMES
}


#: the streaming-scale suite: a generated ~10^5-gate circuit run through
#: the windowed propagation path.  Opt-in only (never part of the default
#: "run everything" sweep — it is a memory-regime benchmark, not a speed
#: micro-benchmark, and takes minutes at full size).
HUGE_SUITE = "huge"


def all_suite_names() -> List[str]:
    """Every default-runnable suite, circuit regimes first.

    :data:`HUGE_SUITE` is deliberately excluded — it only runs when named
    explicitly (``repro bench run --suite huge``).
    """
    return sorted(BENCH_SUITES) + sorted(AGGREGATOR_SUITES)


def build_suite(name: str, num_patterns: int = 512) -> PreparedBatch:
    """Featurise and merge a circuit suite into one prepared batch."""
    if name not in BENCH_SUITES:
        raise ValueError(f"unknown bench suite {name!r}; choose from "
                         f"{sorted(BENCH_SUITES)}")
    graphs = [
        from_aig(synthesize(factory(**kwargs)), num_patterns=num_patterns,
                 seed=k)
        for k, (factory, kwargs) in enumerate(BENCH_SUITES[name])
    ]
    return prepare(graphs)


def build_suite_batches(
    name: str, num_patterns: int = 512
) -> List[PreparedBatch]:
    """The suite's prepared batches: one for the circuit regimes, one per
    mini-batch for the ``default_<aggregator>`` suites."""
    if name not in BENCH_SUITES and name not in AGGREGATOR_SUITES:
        raise ValueError(f"unknown bench suite {name!r}; choose from "
                         f"{all_suite_names()}")
    if name in AGGREGATOR_SUITES:
        return [
            prepare([
                from_aig(
                    synthesize(factory(**kwargs)),
                    num_patterns=num_patterns,
                    seed=bi * 10 + k,
                )
                for k, (factory, kwargs) in enumerate(circuits)
            ])
            for bi, circuits in enumerate(DEFAULT_SCALE_BATCHES)
        ]
    return [build_suite(name, num_patterns=num_patterns)]


def _make_model(
    dim: int, iterations: int, variant: str, aggregator: Optional[str] = None
) -> DeepGate:
    """Build the benchmark model; ``variant`` picks the propagation path."""
    kwargs = dict(dim=dim, num_iterations=iterations,
                  rng=np.random.default_rng(0))
    if aggregator is not None:
        kwargs.update(
            aggregator=aggregator, use_skip=(aggregator == "attention")
        )
    return DeepGate(compiled=(variant != "reference"), **kwargs)


def _normalise_rss_kb(
    ru_maxrss: int, platform_name: Optional[str] = None
) -> int:
    """``getrusage`` reports ``ru_maxrss`` in KB on Linux but in BYTES on
    macOS; normalise to KB so bench files compare across platforms."""
    if platform_name is None:
        platform_name = sys.platform
    value = int(ru_maxrss)
    return value // 1024 if platform_name == "darwin" else value


def _rss_kb() -> int:
    """Current process high-water RSS in KB (platform-normalised)."""
    return _normalise_rss_kb(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )


def _time(fn: Callable[[], None], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    # min, not median: interference is strictly additive, so the fastest
    # sample is the least-noisy estimate (same convention as timeit)
    return min(samples)


def bench_suite(
    name: str,
    dim: int = 64,
    iterations: int = 4,
    repeats: int = 3,
    epochs: int = 2,
    variant: str = "compiled",
    num_patterns: int = 512,
) -> Dict[str, object]:
    """Benchmark one suite; returns the metrics dict for the JSON file.

    For ``default_<aggregator>`` suites the model is the matching DeepGate
    variant, and every metric spans ALL of the suite's mini-batches (a
    train epoch steps the optimiser once per batch).
    """
    rss_before_kb = _rss_kb()
    batches = build_suite_batches(name, num_patterns=num_patterns)
    model = _make_model(
        dim, iterations, variant, aggregator=AGGREGATOR_SUITES.get(name)
    )

    def forward() -> None:
        with no_grad():
            for batch in batches:
                model(batch)

    def backward() -> None:
        model.zero_grad()
        for batch in batches:
            loss = l1_loss(model(batch), batch.labels)
            loss.backward()

    # warm up once so schedule compilation/caching is not inside the clock
    # of the first repeat (it is a one-off cost per batch, not per pass)
    forward()
    forward_s = _time(forward, repeats)
    backward()
    backward_s = _time(backward, repeats)

    optimizer = Adam(model.parameters(), lr=1e-4)

    def train_epoch() -> None:
        for batch in batches:
            optimizer.zero_grad()
            loss = l1_loss(model(batch), batch.labels)
            loss.backward()
            clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()

    epoch_samples = []
    for _ in range(max(1, epochs)):
        t0 = time.perf_counter()
        train_epoch()
        epoch_samples.append(time.perf_counter() - t0)
    train_epoch_s = min(epoch_samples)

    # allocation high-water mark of one forward+backward, measured outside
    # the timed repeats (tracemalloc slows numpy allocation down)
    tracemalloc.start()
    tracemalloc.reset_peak()
    backward()
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    num_nodes = sum(b.graph.num_nodes for b in batches)
    metrics = {
        "circuits": sum(
            len(c) for c in DEFAULT_SCALE_BATCHES
        ) if name in AGGREGATOR_SUITES else len(BENCH_SUITES[name]),
        "nodes": int(num_nodes),
        "edges": int(sum(b.graph.num_edges for b in batches)),
        "levels": int(
            max(b.graph.levels.max(initial=0) for b in batches)
        ),
        "forward_s": forward_s,
        "backward_s": backward_s,
        "train_epoch_s": train_epoch_s,
        "nodes_per_s": float(num_nodes / train_epoch_s),
        "tracemalloc_peak_mb": float(traced_peak / 1e6),
        "peak_rss_kb": _rss_kb(),
        "peak_rss_delta_kb": max(0, _rss_kb() - rss_before_kb),
    }
    if name in AGGREGATOR_SUITES:
        metrics["batches"] = len(batches)
        metrics["aggregator"] = AGGREGATOR_SUITES[name]
    return metrics


# ---------------------------------------------------------------------------
# huge suite (windowed streaming path)
# ---------------------------------------------------------------------------

_PROBE_CHILD = """\
import json, os, resource, sys
status, err = "completed", ""
try:
    os.environ.pop("REPRO_WINDOW_BUDGET", None)
    from repro.bench import _make_model, _rss_kb
    from repro.datagen.generators import huge_circuit
    from repro.graphdata import prepare
    from repro.nn.functional import l1_loss

    graph = huge_circuit({num_gates}, seed={seed})
    batch = prepare([graph])
    model = _make_model({dim}, {iterations}, "compiled",
                        aggregator="attention")
    # cap the address space at (what is mapped now) + the allowance the
    # windowed path is given; only the pass itself runs under the cap
    page = os.sysconf("SC_PAGE_SIZE")
    with open("/proc/self/statm") as fh:
        vm = int(fh.read().split()[0]) * page
    limit = vm + {budget_bytes}
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    # soft limit only: the hard limit cannot be raised back afterwards
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    model.zero_grad()
    loss = l1_loss(model(batch), batch.labels)
    loss.backward()
except MemoryError:
    status = "memory_error"
except Exception as exc:  # noqa: BLE001 - report, don't crash the parent
    status, err = "failed", f"{{type(exc).__name__}}: {{exc}}"
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (hard, hard))
print(json.dumps({{"status": status, "error": err,
                   "peak_rss_kb": _rss_kb()}}))
"""


def probe_full_path(
    num_gates: int,
    seed: int,
    dim: int,
    iterations: int,
    budget_mb: float,
    timeout_s: float = 1800.0,
) -> Dict[str, object]:
    """Run the FULL (non-windowed) pass in a subprocess under a memory cap.

    The child prepares the batch unrestricted, then clamps its address
    space to ``current + budget_mb`` before the forward+backward — the
    same allowance the windowed path works within.  Returns a status dict:
    ``completed`` means the full path fit (the bound is too generous to
    discriminate), ``memory_error``/``failed`` means it did not — which is
    the expected outcome that motivates streaming windows.
    """
    if not Path("/proc/self/statm").exists():
        return {"status": "skipped", "error": "no /proc; probe is Linux-only"}
    src_root = Path(__file__).resolve().parents[1]
    child = _PROBE_CHILD.format(
        num_gates=int(num_gates), seed=int(seed), dim=int(dim),
        iterations=int(iterations),
        budget_bytes=int(budget_mb * 1024 * 1024),
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True,
            env=env, timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "error": f"no result in {timeout_s}s"}
    for line in reversed(proc.stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                break
    # a hard crash (e.g. allocator abort inside BLAS under the rlimit)
    # never reaches the JSON print; that still answers the question
    return {
        "status": "failed",
        "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}",
    }


def bench_huge_suite(
    num_gates: int = 100_000,
    window_budget: int = 8192,
    dim: int = 32,
    iterations: int = 1,
    repeats: int = 1,
    seed: int = 0,
    full_check: bool = False,
    full_budget_mb: float = 512.0,
    dump_path: Optional[Path] = None,
) -> Dict[str, object]:
    """Benchmark the windowed streaming path on a generated huge circuit.

    Unlike the speed suites this is a *memory-regime* benchmark: the
    interesting outputs are ``peak_rss_kb`` (gated in CI via
    ``--max-rss-kb``), the window/frontier statistics, and — with
    ``full_check`` — a subprocess probe showing the non-windowed path
    cannot run the same pass inside the same allowance.

    ``dump_path``, when set, writes the model's (untrained, seed-pinned)
    forward predictions as a deterministic ``.npz``: two runs at
    different ``window_budget`` values must produce byte-identical files,
    which is how CI enforces the bitwise windowed==full criterion at
    scale.
    """
    from .datagen.generators import huge_circuit
    from .graphdata.shards import write_npz_deterministic
    from .models.propagation import (
        get_window_stats,
        reset_window_stats,
        use_window_budget,
    )

    rss_before_kb = _rss_kb()
    graph = huge_circuit(num_gates, seed=seed)
    batch = prepare([graph])
    model = _make_model(dim, iterations, "compiled", aggregator="attention")
    reset_window_stats()

    with use_window_budget(int(window_budget)):
        def forward() -> None:
            with no_grad():
                model(batch)

        if dump_path is not None:
            # dump BEFORE any gradient step: forward outputs are bitwise
            # identical across window budgets, trained weights are only
            # round-off equal
            with no_grad():
                pred = model(batch).data
            write_npz_deterministic(
                Path(dump_path), {"pred": np.ascontiguousarray(pred)}
            )
        else:
            forward()  # warm-up: schedule windowing happens off the clock
        forward_s = _time(forward, repeats)

        def backward() -> None:
            model.zero_grad()
            loss = l1_loss(model(batch), batch.labels)
            loss.backward()

        backward()
        backward_s = _time(backward, repeats)

        optimizer = Adam(model.parameters(), lr=1e-4)
        t0 = time.perf_counter()
        optimizer.zero_grad()
        loss = l1_loss(model(batch), batch.labels)
        loss.backward()
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
        train_epoch_s = time.perf_counter() - t0

    stats = get_window_stats()
    num_nodes = batch.graph.num_nodes
    metrics: Dict[str, object] = {
        "circuits": 1,
        "nodes": int(num_nodes),
        "edges": int(batch.graph.num_edges),
        "levels": int(batch.graph.levels.max(initial=0)),
        "forward_s": forward_s,
        "backward_s": backward_s,
        "train_epoch_s": train_epoch_s,
        "nodes_per_s": float(num_nodes / train_epoch_s),
        "peak_rss_kb": _rss_kb(),
        "peak_rss_delta_kb": max(0, _rss_kb() - rss_before_kb),
        "window_budget": int(window_budget),
        "window_stats": {k: int(v) for k, v in stats.items()},
    }
    if full_check:
        metrics["full_path_probe"] = dict(
            probe_full_path(
                num_gates, seed, dim, iterations, full_budget_mb
            ),
            budget_mb=float(full_budget_mb),
        )
    return metrics


def run_benchmarks(
    suites: Optional[Sequence[str]] = None,
    name: str = "bench",
    dim: int = 64,
    iterations: int = 4,
    repeats: int = 3,
    epochs: int = 2,
    variant: str = "compiled",
    huge: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Run the suites and assemble the ``BENCH_<name>.json`` payload.

    The :data:`HUGE_SUITE` runs only when explicitly named in ``suites``;
    ``huge`` carries its keyword arguments (see :func:`bench_huge_suite`).
    """
    chosen = list(suites) if suites else all_suite_names()
    results = {
        suite: bench_huge_suite(**(huge or {}))
        if suite == HUGE_SUITE
        else bench_suite(
            suite, dim=dim, iterations=iterations, repeats=repeats,
            epochs=epochs, variant=variant,
        )
        for suite in chosen
    }
    return {
        "schema": 1,
        "name": name,
        "variant": variant,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "config": {
            "dim": dim,
            "iterations": iterations,
            "repeats": repeats,
            "epochs": epochs,
        },
        "suites": results,
    }


#: per-suite metrics pooled by ``merge_bench`` — all "lower is better"
_MERGE_MIN_METRICS = TIME_METRICS + (
    "tracemalloc_peak_mb", "peak_rss_kb", "peak_rss_delta_kb"
)


def merge_bench(
    old: Dict[str, object], new: Dict[str, object]
) -> Dict[str, object]:
    """Pool two runs of the same benchmark: per-metric best of both.

    On machines with bursty background load a single invocation is a
    lottery — one suite can land in a slow patch while another lands in
    a fast one.  Repeated interleaved runs merged with this function
    converge every suite to its quiet-machine floor.  Time metrics (and
    the memory high-water marks) take the elementwise minimum;
    ``nodes_per_s`` is recomputed from the merged ``train_epoch_s`` so
    it stays consistent with it.  Suites present in only one payload
    are kept as-is.
    """
    merged = dict(new)
    suites = dict(new.get("suites", {}))
    for suite, old_metrics in dict(old.get("suites", {})).items():
        if suite not in suites:
            suites[suite] = dict(old_metrics)
            continue
        pooled = dict(suites[suite])
        for metric in _MERGE_MIN_METRICS:
            if metric in old_metrics and metric in pooled:
                pooled[metric] = min(
                    float(old_metrics[metric]), float(pooled[metric])
                )
        if "train_epoch_s" in pooled and pooled["train_epoch_s"]:
            pooled["nodes_per_s"] = float(
                pooled["nodes"] / pooled["train_epoch_s"]
            )
        suites[suite] = pooled
    merged["suites"] = suites
    merged["merged_runs"] = int(old.get("merged_runs", 1)) + 1
    return merged


def write_bench_file(payload: Dict[str, object], out: Path) -> Path:
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare_bench(
    old: Dict[str, object], new: Dict[str, object]
) -> Dict[str, object]:
    """Per-suite metric diff; speedup = old/new for time metrics.

    Suites present in only one file produce no speedup rows (there is
    nothing to compare against), but they are never silently dropped:
    ``missing_suites`` names them per side, so a renamed or removed suite
    cannot masquerade as a clean comparison.
    """
    rows = []
    old_suites = dict(old.get("suites", {}))
    new_suites = dict(new.get("suites", {}))
    for suite in sorted(set(old_suites) & set(new_suites)):
        a, b = old_suites[suite], new_suites[suite]
        for metric in TIME_METRICS + (
            "tracemalloc_peak_mb", "peak_rss_delta_kb"
        ):
            if metric not in a or metric not in b:
                continue
            before, after = float(a[metric]), float(b[metric])
            rows.append({
                "suite": suite,
                "metric": metric,
                "old": before,
                "new": after,
                "speedup": before / after if after else float("inf"),
            })
    headline = next(
        (
            r["speedup"]
            for r in rows
            if r["suite"] == "deep" and r["metric"] == "train_epoch_s"
        ),
        None,
    )
    return {
        "old": {"name": old.get("name"), "variant": old.get("variant")},
        "new": {"name": new.get("name"), "variant": new.get("variant")},
        "rows": rows,
        "deep_train_speedup": headline,
        "missing_suites": {
            "old_only": sorted(set(old_suites) - set(new_suites)),
            "new_only": sorted(set(new_suites) - set(old_suites)),
        },
    }


def max_rss_regression(diff: Dict[str, object]) -> Optional[Dict[str, object]]:
    """Worst peak-RSS growth ratio (new/old) across compared suites.

    Fuel for the ``--max-rss-regression`` CI gate: returns ``{"suite",
    "ratio", "old", "new"}`` for the suite whose ``peak_rss_delta_kb``
    grew the most, or ``None`` when no compared suite carries the metric.
    Old values are floored at 1024 KB so a near-zero baseline delta (a
    suite that fit in pre-warmed memory) cannot turn jitter into a
    thousand-fold "regression".
    """
    worst: Optional[Dict[str, object]] = None
    for r in diff["rows"]:
        if r["metric"] != "peak_rss_delta_kb":
            continue
        old = max(float(r["old"]), 1024.0)
        ratio = float(r["new"]) / old
        if worst is None or ratio > float(worst["ratio"]):
            worst = {
                "suite": r["suite"], "ratio": ratio,
                "old": r["old"], "new": r["new"],
            }
    return worst


def render_compare(diff: Dict[str, object]) -> str:
    lines = [
        f"bench compare: {diff['old']['name']} ({diff['old']['variant']}) "
        f"-> {diff['new']['name']} ({diff['new']['variant']})",
        f"{'suite':18s} {'metric':22s} {'old':>12s} {'new':>12s} {'speedup':>8s}",
    ]
    for r in diff["rows"]:
        lines.append(
            f"{r['suite']:18s} {r['metric']:22s} {r['old']:12.6f} "
            f"{r['new']:12.6f} {r['speedup']:7.2f}x"
        )
    missing = diff.get("missing_suites") or {}
    for key, label in (
        ("old_only", "only in old, not compared"),
        ("new_only", "only in new, not compared"),
    ):
        if missing.get(key):
            lines.append(
                f"missing suites ({label}): {', '.join(missing[key])}"
            )
    if diff.get("deep_train_speedup") is not None:
        lines.append(
            f"deep-circuit training speedup: {diff['deep_train_speedup']:.2f}x"
        )
    return "\n".join(lines)
