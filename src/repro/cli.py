"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the library's workflow end to end::

    python -m repro generate ripple_adder --width 8 -o adder.bench
    python -m repro synth adder.bench -o adder.aag
    python -m repro stats adder.aag
    python -m repro sim adder.aag --patterns 100000
    python -m repro equiv adder.bench adder.aag
    python -m repro faults adder.aag --patterns 4096
    python -m repro dataset build --scale smoke --out data/smoke --workers 4
    python -m repro dataset info data/smoke
    python -m repro experiment list
    python -m repro experiment run table2 --scale smoke --workers 4
    python -m repro experiment report table2 --scale smoke --format markdown
    python -m repro experiment compare runs/table2/<hash-a> runs/table2/<hash-b>
    python -m repro experiment capture sat_oracle --scale smoke
    python -m repro experiment verify
    python -m repro worker experiment table2 --scale smoke

Circuit formats are chosen by suffix: ``.bench`` (ISCAS), ``.v``
(structural Verilog) and ``.aag`` (ASCII AIGER).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, Union

import numpy as np

from .aig import AIG, CircuitParseError, Netlist, aiger, bench, verilog
from .datagen.generators import GENERATOR_CATALOG
from .sat import check_equivalence
from .sim import find_reconvergences, monte_carlo_probabilities
from .synth import has_constant_outputs, strip_constant_outputs, synthesize
from .testability import run_fault_simulation
from .utils import default_workers

__all__ = ["main", "build_parser"]

#: default port of `repro serve` / `repro query` (kept out of the
#: ephemeral range so a long-lived server doesn't collide with clients)
DEFAULT_PORT = 8351

Circuit = Union[Netlist, AIG]


#: circuit file suffix -> (serve protocol format name, reader module)
_CIRCUIT_SUFFIXES = {
    ".bench": ("bench", bench),
    ".v": ("verilog", verilog),
    ".aag": ("aiger", aiger),
}


def _circuit_suffix(path: str) -> tuple:
    """The ``(format name, reader)`` entry for a circuit file's suffix."""
    for suffix, entry in _CIRCUIT_SUFFIXES.items():
        if path.endswith(suffix):
            return entry
    raise SystemExit(f"unsupported circuit format: {path} (.bench/.v/.aag)")


def _read_circuit(path: str) -> Circuit:
    _, reader = _circuit_suffix(path)
    try:
        return reader.load(path)
    except (OSError, CircuitParseError) as exc:
        raise SystemExit(f"{path}: {exc}") from exc


def _write_circuit(circuit: Circuit, path: str) -> None:
    if path.endswith(".aag"):
        aig = circuit if isinstance(circuit, AIG) else synthesize(circuit)
        aiger.dump(aig, path)
    elif path.endswith(".bench"):
        if isinstance(circuit, AIG):
            raise SystemExit("writing AIGs as .bench is not supported; use .aag")
        bench.dump(circuit, path)
    elif path.endswith(".v"):
        if isinstance(circuit, AIG):
            raise SystemExit("writing AIGs as .v is not supported; use .aag")
        verilog.dump(circuit, path)
    else:
        raise SystemExit(f"unsupported output format: {path}")


def _as_aig(circuit: Circuit) -> AIG:
    return circuit if isinstance(circuit, AIG) else synthesize(circuit)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family not in GENERATOR_CATALOG:
        raise SystemExit(
            f"unknown family {args.family!r}; choose from "
            f"{sorted(GENERATOR_CATALOG)}"
        )
    factory, defaults = GENERATOR_CATALOG[args.family]
    kwargs = dict(defaults)
    for override in args.param or []:
        key, _, value = override.partition("=")
        if not value:
            raise SystemExit(f"bad --param {override!r}; use key=value")
        try:
            kwargs[key] = int(value)
        except ValueError:
            raise SystemExit(f"bad --param {override!r}; value must be an integer")
        if kwargs[key] < 1:
            raise SystemExit(f"bad --param {override!r}; sizes must be >= 1")
    try:
        netlist = factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad --param for {args.family}: {exc}") from exc
    _write_circuit(netlist, args.output)
    print(f"wrote {netlist.num_gates()} gates to {args.output}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    circuit = _read_circuit(args.input)
    aig = synthesize(circuit, rounds=args.rounds)
    stats = aig.stats()
    print(
        f"synthesised: {stats['ands']} ANDs, depth {stats['depth']}, "
        f"{stats['pis']} PIs, {stats['outputs']} outputs"
    )
    if args.output:
        _write_circuit(aig, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    aig = _as_aig(_read_circuit(args.input))
    if has_constant_outputs(aig):
        aig = strip_constant_outputs(aig)
    graph = aig.to_gate_graph()
    counts = graph.type_counts()
    reconv = find_reconvergences(graph)
    print(f"name:        {aig.name}")
    print(f"PIs:         {aig.num_pis}")
    print(f"outputs:     {aig.num_outputs}")
    print(f"AND nodes:   {counts['AND']}")
    print(f"NOT nodes:   {counts['NOT']}")
    print(f"graph nodes: {graph.num_nodes}")
    print(f"levels:      {graph.depth()}")
    print(f"reconvergence nodes: {len(reconv)}")
    return 0


def cmd_sim(args: argparse.Namespace) -> int:
    aig = _as_aig(_read_circuit(args.input))
    probs = monte_carlo_probabilities(aig, args.patterns, seed=args.seed)
    order = np.argsort(np.minimum(probs, 1 - probs))
    print(f"signal probabilities over {args.patterns} random patterns")
    print("most skewed nodes (hardest to excite randomly):")
    shown = 0
    for var in order:
        if var == 0 or (1 <= var <= aig.num_pis):
            continue
        print(f"  var {int(var):6d}  p = {probs[var]:.5f}")
        shown += 1
        if shown >= args.top:
            break
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    left = _as_aig(_read_circuit(args.left))
    right = _as_aig(_read_circuit(args.right))
    result = check_equivalence(left, right)
    if result.equivalent:
        print("EQUIVALENT")
        return 0
    pattern = "".join("1" if b else "0" for b in result.counterexample)
    print(f"DIFFERENT (counterexample inputs, PI0 first: {pattern})")
    return 1


def cmd_faults(args: argparse.Namespace) -> int:
    aig = _as_aig(_read_circuit(args.input))
    if has_constant_outputs(aig):
        aig = strip_constant_outputs(aig)
    graph = aig.to_gate_graph()
    report = run_fault_simulation(graph, num_patterns=args.patterns, seed=args.seed)
    print(f"faults:    {len(report.faults)}")
    print(f"patterns:  {report.num_patterns}")
    print(f"coverage:  {100 * report.coverage:.2f}%")
    undetected = report.undetected()
    if undetected:
        print(f"undetected ({len(undetected)} shown up to 10):")
        for fault in undetected[:10]:
            print(f"  {fault}")
    return 0


def _pipeline_config_from_args(args: argparse.Namespace):
    """The dataset ``PipelineConfig`` for build/worker CLI arguments.

    One constructor for ``dataset build`` and ``worker dataset`` so a
    standalone worker computes the exact config (hence config hash,
    shard plan and lease namespace) of the build it is joining.
    """
    from .datagen.pipeline import PipelineConfig
    from .experiments.common import get_scale

    try:
        if args.suite:
            suites = []
            for item in args.suite:
                name, _, count = item.partition("=")
                if not count:
                    raise SystemExit(f"bad --suite {item!r}; use NAME=COUNT")
                suites.append((name, int(count)))
            scale = get_scale(args.scale)
            config = PipelineConfig(
                suites=tuple(suites),
                seed=args.seed if args.seed is not None else scale.seed,
                num_patterns=args.patterns or scale.num_patterns,
                min_nodes=scale.min_nodes,
                max_nodes=scale.max_nodes,
                max_levels=scale.max_levels,
                shard_size=args.shard_size,
            )
        else:
            scale = get_scale(args.scale)
            config = PipelineConfig.from_scale(scale)
            overrides = {"shard_size": args.shard_size}
            if args.seed is not None:
                overrides["seed"] = args.seed
            if args.patterns:
                overrides["num_patterns"] = args.patterns
            config = dataclasses.replace(config, **overrides)
    except ValueError as exc:
        raise SystemExit(str(exc))
    return config


def _dist_config(args: argparse.Namespace):
    """A ``DistConfig`` from env knobs plus any explicit CLI overrides."""
    from .dist import DistConfig

    try:
        return DistConfig.from_env(
            lease_ttl=args.lease_ttl,
            heartbeat_interval=args.heartbeat_interval,
            max_attempts=args.max_attempts,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _workers(args: argparse.Namespace) -> int:
    """``--workers``, or the ``REPRO_WORKERS``/CPU-count default for 0."""
    if args.workers < 0:
        raise SystemExit(f"--workers must be >= 0, got {args.workers}")
    return args.workers or default_workers()


def cmd_dataset_build(args: argparse.Namespace) -> int:
    from .datagen.pipeline import build_shards, plan_shards
    from .dist import PoisonedWorkError

    config = _pipeline_config_from_args(args)
    workers = _workers(args)
    cfg = _dist_config(args)
    print(
        f"building {sum(c for _, c in config.suites)} circuits "
        f"({len(plan_shards(config))} shards, {workers} workers) "
        f"-> {args.out}"
    )
    try:
        result = build_shards(
            config,
            args.out,
            workers=workers,
            force=args.force,
            cfg=cfg,
            progress=_unit_progress,
        )
    except PoisonedWorkError as exc:
        raise SystemExit(str(exc))
    status = "cache hit" if result.cache_hit else "built"
    print(
        f"{status}: {result.total_circuits} circuits in "
        f"{len(result.manifest['shards'])} shards "
        f"({result.elapsed:.2f}s, config {config.config_hash()[:12]})"
    )
    return 0


def cmd_dataset_info(args: argparse.Namespace) -> int:
    from .graphdata.dataset import ShardedCircuitDataset

    try:
        ds = ShardedCircuitDataset(args.dir)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    manifest = ds.manifest
    print(f"dataset:     {args.dir}")
    print(f"config hash: {manifest['config_hash']}")
    print(f"circuits:    {len(ds)}")
    print(f"shards:      {ds.num_shards}")
    for suite, stats in ds.suite_summaries().items():
        lo_n, hi_n = stats["nodes"]
        lo_l, hi_l = stats["levels"]
        print(
            f"  {suite:10s} {stats['circuits']:5d} circuits  "
            f"nodes [{lo_n}-{hi_n}]  levels [{lo_l}-{hi_l}]"
        )
    return 0


def _experiment_spec(args: argparse.Namespace):
    """Build the spec for ``experiment run/report`` from CLI arguments."""
    from .runtime import get_experiment, spec_from_overrides

    try:
        exp = get_experiment(args.name)
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    overrides = {"scale": args.scale}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.epochs is not None:
        overrides["epochs"] = str(args.epochs)
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"bad --set {item!r}; use key=value")
        overrides[key] = value
    try:
        spec = spec_from_overrides(exp.spec_type, overrides)
    except ValueError as exc:
        raise SystemExit(str(exc))
    return exp, spec


def _unit_progress(event) -> None:
    """One live line on stderr per unit (or shard) as work completes,
    and per fleet worker process that died."""
    where = "fleet"
    if "index" in event:
        where = f"unit {event['index'] + 1}/{event['total']}"
    timing = f"{event['elapsed']:.2f}s" if "elapsed" in event else ""
    detail = event.get("detail") or timing
    print(
        f"[{where}] {event['label']}: {event['status']}"
        + (f" ({detail})" if detail else ""),
        file=sys.stderr,
        flush=True,
    )


def cmd_experiment_run(args: argparse.Namespace) -> int:
    from .dist import PoisonedWorkError
    from .runtime import execute_parallel

    exp, spec = _experiment_spec(args)
    workers = _workers(args)
    cfg = _dist_config(args)
    try:
        record = execute_parallel(
            args.name,
            spec,
            runs_dir=args.runs_dir,
            workers=workers,
            force=args.force,
            progress=None if args.quiet else _unit_progress,
            cfg=cfg,
        )
    # bad spec values surface at run time; a unit that keeps failing
    # is quarantined and named
    except (ValueError, PoisonedWorkError) as exc:
        raise SystemExit(str(exc))
    status = "cache hit" if record.cache_hit else "ran"
    if args.format == "json":
        _print_json(record.result)
    elif args.format == "markdown":
        print(record.markdown)
    else:
        print(record.report, end="")
    print(
        f"[{status}: {record.out_dir} "
        f"({record.elapsed:.2f}s, spec {record.spec_hash[:12]})]",
        file=sys.stderr,
    )
    return 0


def cmd_experiment_list(args: argparse.Namespace) -> int:
    import dataclasses as _dc

    from .runtime import default_runs_dir, list_experiments, list_runs

    runs_dir = args.runs_dir or default_runs_dir()
    cached = {}
    for manifest in list_runs(runs_dir):
        name = str(manifest.get("experiment"))
        cached[name] = cached.get(name, 0) + 1
    for exp in list_experiments():
        fields = ", ".join(
            f"{f.name}={f.default!r}"
            if f.default is not _dc.MISSING
            else f.name
            for f in _dc.fields(exp.spec_type)
        )
        runs = cached.get(exp.name, 0)
        suffix = f"  [{runs} cached run{'s' if runs != 1 else ''}]" if runs else ""
        print(f"{exp.name:10s} {exp.title}{suffix}")
        print(f"{'':10s} spec: {fields}")
    return 0


def _print_diff(diff: Dict[str, object], fmt: str) -> int:
    """Print a ``compare`` diff; report and return its violation count."""
    from .runtime.compare import render_markdown, render_text

    if fmt == "json":
        _print_json(diff)
    elif fmt == "markdown":
        print(render_markdown(diff))
    else:
        print(render_text(diff))
    return _report_violations(diff)


def _print_json(value: object) -> None:
    print(json.dumps(value, indent=2, sort_keys=True))


def _report_violations(diff: Dict[str, object]) -> int:
    """Report a diff's violation count on stderr and return it."""
    violations = diff.get("violations", [])
    if violations:
        print(
            f"{len(violations)} tolerance violation"
            f"{'s' if len(violations) != 1 else ''}",
            file=sys.stderr,
        )
    return len(violations)


def cmd_experiment_compare(args: argparse.Namespace) -> int:
    from .runtime.compare import (
        apply_tolerances,
        compare_results,
        load_run_result,
        load_tolerances,
    )

    if args.fail_on_drift and not args.tolerances:
        raise SystemExit("--fail-on-drift requires --tolerances")
    try:
        run_a = load_run_result(args.run_a, runs_dir=args.runs_dir)
        run_b = load_run_result(args.run_b, runs_dir=args.runs_dir)
        tolerances = (
            load_tolerances(args.tolerances) if args.tolerances else None
        )
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    if run_a.experiment != run_b.experiment:
        print(
            f"note: comparing different experiments "
            f"({run_a.experiment} vs {run_b.experiment})",
            file=sys.stderr,
        )
    diff = compare_results(run_a, run_b)
    if tolerances is not None:
        diff = apply_tolerances(diff, tolerances)
    return 1 if _print_diff(diff, args.format) and args.fail_on_drift else 0


def cmd_experiment_capture(args: argparse.Namespace) -> int:
    from .dist import PoisonedWorkError
    from .runtime import execute_parallel
    from .runtime.compare import check_limit
    from .runtime.golden import capture_golden, write_golden

    exp, spec = _experiment_spec(args)
    overrides = {}
    for item in args.tolerance or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"bad --tolerance {item!r}; use metric=limit")
        try:
            overrides[key] = check_limit(key, float(value))
        except ValueError as exc:
            raise SystemExit(f"bad --tolerance {item!r}: {exc}")
    workers = _workers(args)
    try:
        record = execute_parallel(
            args.name,
            spec,
            runs_dir=args.runs_dir,
            workers=workers,
            force=args.force,
            progress=None if args.quiet else _unit_progress,
        )
    except (ValueError, PoisonedWorkError) as exc:
        raise SystemExit(str(exc))
    try:
        golden = capture_golden(record, overrides=overrides)
        path = write_golden(golden, goldens_dir=args.goldens_dir)
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(
        f"captured {len(golden.metrics)} metrics of {args.name} "
        f"(spec {golden.spec_hash[:12]}) into {path}"
    )
    return 0


def cmd_experiment_verify(args: argparse.Namespace) -> int:
    from .dist import PoisonedWorkError
    from .runtime.golden import (
        GoldenError,
        default_goldens_dir,
        list_golden_paths,
        load_golden,
        verify_golden,
    )

    workers = _workers(args)
    root = Path(args.goldens_dir) if args.goldens_dir else default_goldens_dir()
    if args.fixtures:
        paths = []
        for ref in args.fixtures:
            p = Path(ref)
            if p.is_file():
                paths.append(p)
            elif (root / ref).is_dir():  # an experiment name
                paths.extend(sorted((root / ref).glob("*.json")))
            else:
                raise SystemExit(
                    f"no golden fixture file or experiment directory for "
                    f"{ref!r} under {root}"
                )
    else:
        paths = list_golden_paths(root)
    if not paths:
        print(f"no golden fixtures under {root}", file=sys.stderr)
        return 1

    # JSON output is one array of the per-fixture diffs, printed at the end
    diffs = []
    failed = checks = 0
    for path in paths:
        try:
            golden = load_golden(path)
            diff = verify_golden(
                golden,
                runs_dir=args.runs_dir,
                workers=workers,
                force=args.force,
                progress=None if args.quiet else _unit_progress,
            )
        except (GoldenError, ValueError, PoisonedWorkError) as exc:
            print(f"ERROR: {exc}", file=sys.stderr)
            failed += 1
            continue
        checks += len(golden.metrics)
        if args.format == "json":
            diffs.append(diff)
            drifted = _report_violations(diff)
        else:
            drifted = _print_diff(diff, args.format)
        failed += bool(drifted)
        print(
            f"verify {golden.experiment} [{golden.spec_hash[:12]}]: "
            f"{'FAIL' if drifted else 'PASS'}, {len(golden.metrics)} checks "
            f"(a = fixture, b = fresh run)",
            file=sys.stderr,
        )
    if args.format == "json":
        _print_json(diffs)
    total = len(paths)
    print(
        f"verified {total} fixture{'s' if total != 1 else ''}: "
        f"{total - failed} passed, {failed} failed, {checks} checks",
        file=sys.stderr,
    )
    return 1 if failed else 0


def cmd_experiment_report(args: argparse.Namespace) -> int:
    from .runtime import load_record

    _, spec = _experiment_spec(args)
    record = load_record(args.name, spec, runs_dir=args.runs_dir)
    if record is None:
        print(
            f"no cached run for {args.name!r} with this spec; "
            f"run 'repro experiment run {args.name}' first",
            file=sys.stderr,
        )
        return 1
    if args.format == "json":
        _print_json(record.result)
    elif args.format == "markdown":
        print(record.markdown)
    else:
        print(record.report, end="")
    return 0


def _run_worker_until_signalled(source, args: argparse.Namespace) -> int:
    """Drive one standalone worker loop with a SIGTERM/SIGINT drain."""
    import signal

    from .dist import drain_on_signals, run_worker

    with drain_on_signals(signal.SIGINT, signal.SIGTERM) as stop:
        report = run_worker(
            source,
            _dist_config(args),
            stop_event=stop,
            progress=None if args.quiet else _unit_progress,
        )
    drained = " (drained on signal)" if report.drained else ""
    print(
        f"worker {report.owner}: {len(report.completed)} completed, "
        f"{report.skipped_done} already done, {report.failed} failed, "
        f"{report.abandoned} abandoned, {len(report.poisoned)} "
        f"poisoned{drained}"
    )
    return 0


def cmd_worker_experiment(args: argparse.Namespace) -> int:
    from .dist import ExperimentWorkSource
    from .runtime.runner import default_runs_dir

    _, spec = _experiment_spec(args)
    root = Path(args.runs_dir) if args.runs_dir else default_runs_dir()
    try:
        source = ExperimentWorkSource(args.name, spec, root)
    except ValueError as exc:
        raise SystemExit(str(exc))
    return _run_worker_until_signalled(source, args)


def cmd_worker_dataset(args: argparse.Namespace) -> int:
    from .dist import DatasetWorkSource

    source = DatasetWorkSource(_pipeline_config_from_args(args), args.out)
    return _run_worker_until_signalled(source, args)


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .serve import (
        CheckpointNotFound,
        ServeServer,
        describe,
        resolve_checkpoint,
        service_from_checkpoint,
    )

    ref = args.checkpoint or args.run
    try:
        path = resolve_checkpoint(ref, runs_dir=args.runs_dir)
    except CheckpointNotFound as exc:
        raise SystemExit(str(exc)) from exc
    try:
        service = service_from_checkpoint(
            path, cache_size=args.cache_size, max_queue=args.max_queue
        )
    except ValueError as exc:
        raise SystemExit(f"cannot serve {path}: {exc}") from exc
    try:
        server = ServeServer(
            service, host=args.host, port=args.port, verbose=args.verbose
        )
    except (OSError, OverflowError) as exc:
        service.close()
        raise SystemExit(
            f"cannot listen on {args.host}:{args.port}: {exc}"
        ) from exc
    print(f"loaded {path}")
    print(describe(server), flush=True)

    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    try:
        stop.wait()
    finally:
        print("shutting down", flush=True)
        server.shutdown()
        worker.join(timeout=10)
        server.close()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeClientError

    try:
        client = ServeClient(
            args.url, timeout=args.timeout, retries=args.retries
        )
    except ValueError as exc:  # not an http:// URL, or retries < 0
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.stats:
            reply = client.stats()
            if args.format == "json":
                _print_json(reply.to_payload())
            else:
                print(
                    f"{reply.model}: {reply.requests} requests "
                    f"({reply.errors} errors) over {reply.uptime_s:.1f}s\n"
                    f"cache: {reply.cache_hits} hits / {reply.cache_misses} "
                    f"misses, {reply.cache_entries}/{reply.cache_capacity} "
                    f"entries, {reply.cache_evictions} evictions, "
                    f"{reply.text_hits} text hits, {reply.memo_hits} memo hits\n"
                    f"batcher: {reply.batched_requests} passes, "
                    f"{reply.rejected} rejected (queue {reply.max_queue})"
                )
            return 0
        if not args.circuit:
            raise SystemExit("give a circuit file, or --stats")
        fmt = args.fmt or _circuit_suffix(args.circuit)[0]
        text = Path(args.circuit).read_text()
        reply = client.query(text, fmt=fmt, num_iterations=args.iterations)
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        _print_json(reply.to_payload())
        return 0
    print(
        f"{args.circuit}: {reply.num_nodes} nodes ({reply.num_pis} PIs, "
        f"{reply.num_ands} ANDs) hash {reply.structural_hash[:16]}"
    )
    print(
        f"model {reply.model}  cache_hit={reply.cache_hit}  "
        f"coalesced={reply.coalesced}  {reply.elapsed_ms:.1f}ms"
    )
    preds = reply.predictions
    shown = preds if args.top <= 0 else preds[: args.top]
    for i, p in enumerate(shown):
        print(f"  node {i:>5}  p={p:.6f}")
    if len(shown) < len(preds):
        print(f"  ... {len(preds) - len(shown)} more (use --top 0 for all)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DeepGate reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a benchmark-family circuit")
    p.add_argument("family", help=f"one of {sorted(GENERATOR_CATALOG)}")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--param", action="append", help="override, e.g. width=16")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("synth", help="synthesise a circuit into an AIG")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--rounds", type=int, default=2)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="structural statistics incl. reconvergence")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sim", help="Monte-Carlo signal probabilities")
    p.add_argument("input")
    p.add_argument("--patterns", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("equiv", help="SAT equivalence check of two circuits")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("faults", help="stuck-at fault simulation report")
    p.add_argument("input")
    p.add_argument("--patterns", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "dataset", help="build and inspect sharded on-disk datasets"
    )
    dataset_sub = p.add_subparsers(dest="dataset_command", required=True)

    def _add_dataset_config_args(q: argparse.ArgumentParser) -> None:
        q.add_argument("--out", required=True, help="dataset directory")
        q.add_argument(
            "--scale", default="smoke", choices=["smoke", "default", "paper"],
            help="base config (circuit counts, pattern budget, size window)",
        )
        q.add_argument(
            "--suite", action="append", metavar="NAME=COUNT",
            help="override suite counts, e.g. --suite EPFL=100 --suite ITC99=50",
        )
        q.add_argument("--seed", type=int, default=None)
        q.add_argument("--patterns", type=int, default=0,
                       help="simulation patterns per circuit")
        q.add_argument("--shard-size", type=int, default=8,
                       help="circuits per shard file")

    def _add_dist_args(q: argparse.ArgumentParser) -> None:
        q.add_argument(
            "--lease-ttl", type=float, default=None,
            help="seconds without a heartbeat before a lease is "
                 "reclaimable (default: REPRO_LEASE_TTL or 15)",
        )
        q.add_argument(
            "--heartbeat-interval", type=float, default=None,
            help="seconds between lease renewals "
                 "(default: REPRO_HEARTBEAT_INTERVAL or 2)",
        )
        q.add_argument(
            "--max-attempts", type=int, default=None,
            help="claims before a failing item is quarantined "
                 "(default: REPRO_MAX_ATTEMPTS or 3)",
        )

    p = dataset_sub.add_parser(
        "build", help="build (or reuse) a sharded labelled dataset"
    )
    _add_dataset_config_args(p)
    p.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = REPRO_WORKERS env var or CPU count)",
    )
    p.add_argument("--force", action="store_true",
                   help="rebuild even on a cache hit")
    _add_dist_args(p)
    p.set_defaults(func=cmd_dataset_build)

    p = dataset_sub.add_parser("info", help="summarise a dataset directory")
    p.add_argument("dir")
    p.set_defaults(func=cmd_dataset_info)

    p = sub.add_parser(
        "experiment",
        help="run, list and report registered paper experiments",
    )
    exp_sub = p.add_subparsers(dest="experiment_command", required=True)

    def _add_spec_args(q: argparse.ArgumentParser) -> None:
        q.add_argument("name", help="registered experiment name")
        q.add_argument(
            "--scale", default="smoke", choices=["smoke", "default", "paper"]
        )
        q.add_argument("--seed", type=int, default=None,
                       help="override the scale's dataset/training seed")
        q.add_argument("--epochs", type=int, default=None,
                       help="override the scale's epoch count")
        q.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="override any spec field, e.g. --set models=deepgate/attention/sc",
        )
        q.add_argument(
            "--runs-dir", default=None,
            help="runs root (default: REPRO_RUNS_DIR or ./runs)",
        )
        q.add_argument(
            "--format", default="text", choices=["text", "markdown", "json"],
            help="how to print the result",
        )

    q = exp_sub.add_parser(
        "run", help="run an experiment (cache hit if already run)"
    )
    _add_spec_args(q)
    q.add_argument("--force", action="store_true",
                   help="re-run even on a cache hit (drops unit caches too)")
    q.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for unit-decomposed experiments "
             "(0 = REPRO_WORKERS env var or CPU count; default 1)",
    )
    q.add_argument("--quiet", action="store_true",
                   help="suppress per-unit progress lines")
    _add_dist_args(q)
    q.set_defaults(func=cmd_experiment_run)

    q = exp_sub.add_parser("list", help="list registered experiments")
    q.add_argument("--runs-dir", default=None)
    q.set_defaults(func=cmd_experiment_list)

    q = exp_sub.add_parser(
        "compare",
        help="diff the result metrics of two cached runs",
    )
    q.add_argument("run_a", help="run directory (or <experiment>/<hash> "
                                 "under --runs-dir)")
    q.add_argument("run_b", help="run directory to compare against run_a")
    q.add_argument(
        "--runs-dir", default=None,
        help="runs root for <experiment>/<hash> references "
             "(default: REPRO_RUNS_DIR or ./runs)",
    )
    q.add_argument(
        "--format", default="text", choices=["text", "markdown", "json"],
        help="how to print the diff",
    )
    q.add_argument(
        "--tolerances", default=None, metavar="FILE",
        help="JSON tolerance table (metric or 'row:metric' -> absolute "
             "drift limit); annotates every matched metric with a status",
    )
    q.add_argument(
        "--fail-on-drift", action="store_true",
        help="exit non-zero when any toleranced metric drifts beyond its "
             "limit (requires --tolerances)",
    )
    q.set_defaults(func=cmd_experiment_compare)

    q = exp_sub.add_parser(
        "report", help="print a cached run's report without re-running"
    )
    _add_spec_args(q)
    q.set_defaults(func=cmd_experiment_report)

    q = exp_sub.add_parser(
        "capture",
        help="run an experiment and freeze its metrics into a golden fixture",
    )
    _add_spec_args(q)
    q.add_argument("--force", action="store_true",
                   help="re-run even on a cache hit before capturing")
    q.add_argument("--workers", type=int, default=1,
                   help="worker processes (0 = REPRO_WORKERS or CPU count)")
    q.add_argument("--quiet", action="store_true",
                   help="suppress per-unit progress lines")
    q.add_argument(
        "--goldens-dir", default=None,
        help="goldens root (default: REPRO_GOLDENS_DIR or ./goldens)",
    )
    q.add_argument(
        "--tolerance", action="append", metavar="METRIC=LIMIT",
        help="explicit absolute limit for one metric "
             "(or 'row:metric'); overrides the derived default",
    )
    q.set_defaults(func=cmd_experiment_capture)

    q = exp_sub.add_parser(
        "verify",
        help="re-run golden fixtures at fixture scale and compare each "
             "(run a) with its fresh run (run b); fail on drift",
    )
    q.add_argument(
        "fixtures", nargs="*",
        help="fixture files or experiment names (default: every fixture "
             "under the goldens root)",
    )
    q.add_argument(
        "--goldens-dir", default=None,
        help="goldens root (default: REPRO_GOLDENS_DIR or ./goldens)",
    )
    q.add_argument(
        "--runs-dir", default=None,
        help="runs root (default: REPRO_RUNS_DIR or ./runs)",
    )
    q.add_argument("--workers", type=int, default=1,
                   help="worker processes (0 = REPRO_WORKERS or CPU count)")
    q.add_argument("--force", action="store_true",
                   help="ignore the run cache and re-execute")
    q.add_argument("--quiet", action="store_true",
                   help="suppress per-unit progress lines")
    q.add_argument(
        "--format", default="text", choices=["text", "markdown", "json"],
        help="how to print each fixture's diff against its fresh run "
             "(json: one array of the diffs)",
    )
    q.set_defaults(func=cmd_experiment_verify)

    p = sub.add_parser(
        "serve",
        help="persistent inference server over a trained checkpoint",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--checkpoint", default=None,
        help="checkpoint file (save_model_checkpoint .npz) or run directory",
    )
    group.add_argument(
        "--run", default=None,
        help="experiment name; serves its newest run's checkpoint artifact",
    )
    p.add_argument(
        "--runs-dir", default=None,
        help="runs root for --run (default: REPRO_RUNS_DIR or ./runs)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--cache-size", type=int, default=128,
                   help="compiled circuits (with their stored predictions) "
                        "held in the strash-keyed LRU")
    p.add_argument(
        "--max-queue", type=int, default=128,
        help="passes in flight before requests are shed with 503 + "
             "Retry-After",
    )
    p.add_argument("--verbose", action="store_true",
                   help="log one access line per request to stderr")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "query", help="query a running `repro serve` instance"
    )
    p.add_argument("circuit", nargs="?", default=None,
                   help="circuit file (.bench/.v/.aag)")
    p.add_argument(
        "--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help="server base URL",
    )
    p.add_argument(
        "--fmt", default=None, choices=["aiger", "bench", "verilog"],
        help="circuit format (default: from the file suffix)",
    )
    p.add_argument("--iterations", type=int, default=None,
                   help="override the recurrent model's iteration count")
    p.add_argument("--stats", action="store_true",
                   help="print server statistics instead of querying")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--top", type=int, default=10,
                   help="predictions shown in text mode (0 = all)")
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument(
        "--retries", type=int, default=0,
        help="retry 503/transport failures this many times with "
             "exponential backoff (honours Retry-After)",
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "worker",
        help="join any in-flight `experiment run` or `dataset build` "
             "as an extra lease-based worker",
    )
    worker_sub = p.add_subparsers(dest="worker_command", required=True)

    q = worker_sub.add_parser(
        "experiment",
        help="work experiment units (same spec args as `experiment run`)",
    )
    _add_spec_args(q)
    q.add_argument("--quiet", action="store_true",
                   help="suppress per-item progress lines")
    _add_dist_args(q)
    q.set_defaults(func=cmd_worker_experiment)

    q = worker_sub.add_parser(
        "dataset",
        help="work dataset shards (same config args as `dataset build`)",
    )
    _add_dataset_config_args(q)
    q.add_argument("--quiet", action="store_true",
                   help="suppress per-item progress lines")
    _add_dist_args(q)
    q.set_defaults(func=cmd_worker_dataset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # reports piped into `head` etc.; suppress the traceback and let
        # the pipe close quietly
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            os.close(1)
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
