#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there, and nowhere else.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the workload untraced for half the time and traced for
the other half and reports the per-layer metrics and the tracing
overhead.  Standard output ends with one JSON line ``{"correct",
"attempted", "failed", "metrics"}``; the line before it is the full
report (every workload metric by name with unit and sample count, the
input hash, the checks and, when traced, the per-layer table).  A failed
output check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "train", "serve", "stream")

#: set-up repetitions per run; ``setup_s`` adds their median to the import
SETUP_REPS = 5

#: a run raises (and tears down) after this long
RUN_DEADLINE_S = 170

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: end-to-end metric -> unit, printed with ``--trace 0``
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
}

#: per-layer counters -> (unit, per traced operation?), printed with the
#: layer shares under --trace 1; per-operation counters are divided by the
#: operations (circuits, steps, requests) of the traced phase
LAYER_COUNTERS = {
    "graphdata.compile_calls": ("count/op", True),
    "graphdata.windows": ("count/op", True),
    "graphdata.frontier_rows": ("count/op", True),
    "models.store_peak_bytes": ("bytes", False),
    "serve.cache_hit_ratio": ("ratio", False),
    "serve.cache_evictions": ("count", False),
    "serve.mean_batch": ("jobs", False),
    "serve.coalesced_share": ("ratio", False),
    "serve.response_bytes": ("bytes", False),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup(workload, inputs, seed, trace):
    """Set up ``SETUP_REPS`` times; keep the last state.

    Under ``--trace 1`` the last repetition runs traced, so set-up work
    (labelling the train set, building windows) shows in its own table.
    """
    from perfbench import layers
    from perfbench.tracing import Tracer

    times, state, tracer = [], None, None
    for rep in range(SETUP_REPS):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        traced = trace and rep == SETUP_REPS - 1
        if traced:
            tracer = Tracer()
            layers.install(tracer)
        t0 = time.perf_counter()
        try:
            state = workload.setup(inputs, seed)
        finally:
            times.append(time.perf_counter() - t0)
            if traced:
                tracer.restore()
    return state, times, tracer


def _traced_phases(workload, state, seconds):
    """Half the time untraced, half traced, interleaved in quarters
    (untraced, traced, untraced, traced) so that drift in machine speed
    does not read as tracing overhead.  Returns both and the tracer."""
    from perfbench import layers
    from perfbench.harness import Phase
    from perfbench.tracing import Tracer

    custom = getattr(workload, "traced_phases", None)
    if custom is not None:
        return custom(state, seconds)
    tracer = Tracer()
    untraced, traced = Phase(), Phase()
    for _ in range(2):
        untraced.absorb(workload.drive(state, seconds / 4))
        layers.install(tracer)
        try:
            part = workload.drive(state, seconds / 4, tracer)
        finally:
            tracer.restore()
        traced.absorb(part)
    return untraced, traced, tracer


def _layer_table(tracer, seconds):
    """Rows sorted by self time, plus each layer's busy share of the wall
    time.  ``*_wait`` spans are time spent blocked on another thread,
    which does the work under its own spans, so they are not busy time.
    Threads overlap, so shares can sum past 100."""
    from perfbench.layers import LAYERS
    from perfbench.tracing import layer_of

    rows = tracer.table()
    share = {layer: 0.0 for layer in LAYERS}
    for name, row in rows.items():
        if layer_of(name) in share and not name.endswith("_wait"):
            share[layer_of(name)] += row["self_ms"]
    share = {k: 100.0 * v / (seconds * 1e3) for k, v in share.items()}
    ordered = dict(sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"]))
    return ordered, share


def _print_table(title, rows, out=sys.stderr):
    print(f"# {title}", file=out)
    print(f"#   {'span':28s} {'count':>8s} {'self_ms':>11s} {'total_ms':>11s}", file=out)
    for name, row in rows.items():
        print(
            f"#   {name:28s} {row['count']:8d} {row['self_ms']:11.2f} "
            f"{row['total_ms']:11.2f}",
            file=out,
        )


def _out_of_time(signum, frame):
    raise TimeoutError(f"run did not finish in {RUN_DEADLINE_S}s")


def _finite(value):
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package source under {ROOT / 'src'}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    scratch = ROOT / ".perfbench"
    # One BLAS thread, for this process and the serve subprocess: on a
    # small shared machine a multi-threaded OpenBLAS GEMM now and then
    # runs ten times slower while its threads wait for each other, which
    # would swamp what the program itself does.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    # a wedged run fails (tearing down what it started) well inside the
    # time a run is allowed
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_DEADLINE_S)

    t0 = time.perf_counter()
    workload = importlib.import_module(f"perfbench.{args.workload}")
    import_s = time.perf_counter() - t0

    import repro
    from perfbench.harness import Metric

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    inputs = workload.make_inputs(args.seed)
    state, setup_times, setup_tracer = _setup(
        workload, inputs, args.seed, bool(args.trace)
    )
    try:
        if args.trace:
            untraced, traced, tracer = _traced_phases(workload, state, args.seconds)
            phases = [untraced, traced]
        else:
            phases = [workload.drive(state, args.seconds)]
        rss_mb = workload.peak_rss(state)
        problems = workload.check(state, phases)
    finally:
        workload.teardown(state)
    signal.alarm(0)

    primary = phases[0]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    lat = primary.latency()
    setup_s = import_s + statistics.median(setup_times)
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ops_per_s": primary.ops_per_s,
        "op_ms_p50": _finite(lat["p50"]),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": inputs.sha256,
        "operations": {
            "attempted": attempted,
            "succeeded": sum(len(p.latencies_ms) for p in phases),
            "failed": failed,
            "skipped": sum(p.skipped for p in phases),
            "fail_frac": failed / attempted if attempted else 0.0,
        },
        "setup": {"import_s": import_s, "reps_s": setup_times},
        "end_to_end": {
            name: {"value": e2e[name], "unit": unit,
                   "samples": lat["samples"] if name == "op_ms_p50" else
                   (len(setup_times) if name == "setup_s" else 1)}
            for name, unit in END_TO_END.items()
        },
        "workload_metrics": {
            **{name: m.to_dict() for name, m in workload.report(primary).items()},
            "setup_s": Metric(setup_s, "s", len(setup_times)).to_dict(),
            "peak_rss_mb": Metric(rss_mb, "MB").to_dict(),
            "fail_frac": Metric(failed / attempted if attempted else 0.0, "ratio",
                                attempted).to_dict(),
        },
        "checks": {"passed": not problems, "problems": problems[:20]},
        "details": {k: v for k, v in primary.extra.items() if k != "errors"},
    }
    if primary.extra.get("errors"):
        report["errors"] = primary.extra["errors"][:5]

    if args.trace:
        rows, share = _layer_table(tracer, traced.seconds)
        counters = dict(tracer.counters)
        counters.update(traced.extra.get("layer_counters", {}))
        # serve's untraced twin of its in-process traced phase is not the
        # HTTP phase that leads the report
        base = traced.extra.get("untraced_nodes_per_s", untraced.nodes_per_s)
        overhead = 100.0 * (base - traced.nodes_per_s) / base if base else 0.0
        metrics = {f"{layer}.self_pct": {"value": v, "unit": "%"}
                   for layer, v in share.items()}
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        ops = max(1, traced.attempted)
        for name, (unit, per_op) in LAYER_COUNTERS.items():
            value = float(counters.get(name, 0.0))
            metrics[name] = {"value": value / ops if per_op else value, "unit": unit}
        setup_rows = setup_tracer.table() if setup_tracer else {}
        report["trace"] = {
            "overhead_pct": overhead,
            "untraced_nodes_per_s": base,
            "traced_nodes_per_s": traced.nodes_per_s,
            "traced_seconds": traced.seconds,
            "run_spans": rows,
            "setup_spans": setup_rows,
            "counters": counters,
            "derived_ms": traced.extra.get("layer_ms", {}),
        }
        tracer.write(scratch / f"trace-{args.workload}-s{args.seed}.jsonl")
        _print_table(
            f"{args.workload}: traced run, {traced.seconds:.1f}s, "
            f"tracing overhead {overhead:+.1f}% on nodes/s",
            rows,
        )
        if setup_rows:
            _print_table(f"{args.workload}: traced set-up repetition", setup_rows)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    for name, m in report["workload_metrics"].items():
        print(f"# {name:28s} {m['value']:14.4f} {m['unit']:8s} n={m['samples']}",
              file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
