"""serve: ``repro serve`` under a closed loop of 2 client threads.

Inference only.  The server runs as a subprocess on a seeded, untrained
paper-scale checkpoint (dim 64, T=10) written during set-up.  One client
process runs 2 closed-loop threads (one per core), each sending its next
query when the previous one returns.  Queries are AIGER and BENCH texts
drawn from a seeded catalog of pool circuits with Zipf popularity; a share
are renamed copies (different text, same structure) that hit the
strash-keyed cache.  ``--cache-size`` holds half the catalog, so misses
(featurise, compile, insert, evict) continue after warm-up.

Spans cannot see into the server process, so ``--trace 1`` runs three
phases of a third each: the HTTP loop untraced (for the HTTP overhead and
``/stats``), then an in-process ``InferenceService`` untraced and traced,
its model wrapped in a timing proxy; the two in-process phases give the
tracing overhead.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.graphdata.dataset import PreparedBatch
from repro.graphdata.features import inference_graph
from repro.models.deepgate import DeepGate
from repro.nn.serialization import load_model_checkpoint, save_model_checkpoint
from repro.nn.tensor import no_grad
from repro.serve import InferenceService, ServeClient, ServeClientError
from repro.serve.protocol import QueryRequest, QueryResponse
from repro.serve.service import canonicalize, parse_circuit

from .harness import ROOT, SCRATCH, Metric, Phase, process_hwm_mb
from .inputs import CATALOG_SIZE, Query, ServeMix, serve_mix, sha256_texts

CACHE_SIZE = CATALOG_SIZE // 2
CLIENT_THREADS = 2
DIM, ITERATIONS = 64, 10  # paper scale
START_TIMEOUT_S = 90.0
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Inputs:
    mix: ServeMix

    @property
    def sha256(self) -> str:
        return sha256_texts(self.mix.texts)


@dataclass
class State:
    inputs: Inputs
    checkpoint: Path
    proc: subprocess.Popen
    reader: threading.Thread
    url: str
    #: (query index, response) of every successful query, all phases
    answered: List[Tuple[int, QueryResponse]] = field(default_factory=list)


def make_inputs(seed: int) -> Inputs:
    return Inputs(serve_mix(seed))


# -- server lifecycle --------------------------------------------------------

def _start_server(checkpoint) -> Tuple[subprocess.Popen, threading.Thread, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--checkpoint", str(checkpoint),
         "--port", "0", "--cache-size", str(CACHE_SIZE)],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, name="serve-stdout", daemon=True)
    reader.start()
    deadline = time.monotonic() + START_TIMEOUT_S
    seen: List[str] = []
    url = None
    try:
        while url is None:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not start in time") from None
            if line is None:
                raise RuntimeError("server exited: " + "".join(seen[-5:]))
            seen.append(line)
            match = re.search(r" on (http://\S+)", line)
            if match:
                url = match.group(1)
        client = ServeClient(url, timeout=5.0)
        while True:
            try:
                if client.health():
                    break
            except ServeClientError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.02)
    except BaseException:
        _stop_server(proc, reader)
        raise
    return proc, reader, url


def _stop_server(proc: subprocess.Popen, reader: threading.Thread) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    reader.join(timeout=10)
    proc.stdout.close()


def _warm(send: Callable[[Query], QueryResponse], mix: ServeMix) -> None:
    """One query for each of the ``CACHE_SIZE`` most popular structures,
    so the timed loop starts with the cache full of them."""
    first: Dict[int, Query] = {}
    for q in mix.queries:
        if not q.renamed and q.structure < CACHE_SIZE:
            first.setdefault(q.structure, q)
    for k in sorted(first, reverse=True):
        send(first[k])


def setup(inputs: Inputs, seed: int) -> State:
    """Write the checkpoint, start the server, wait for /healthz, warm up."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    checkpoint = SCRATCH / f"serve-{os.getpid()}-s{seed}.npz"
    model = DeepGate(dim=DIM, num_iterations=ITERATIONS,
                     rng=np.random.default_rng(seed))
    save_model_checkpoint(model, checkpoint)
    proc, reader, url = _start_server(checkpoint)
    state = State(inputs, checkpoint, proc, reader, url)
    client = ServeClient(url, timeout=REQUEST_TIMEOUT_S)
    try:
        _warm(lambda q: client.query(q.text, fmt=q.fmt), inputs.mix)
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state: State) -> None:
    _stop_server(state.proc, state.reader)
    state.checkpoint.unlink(missing_ok=True)


# -- the closed loop ---------------------------------------------------------

def _closed_loop(
    state: State, send: Callable[[Query], QueryResponse], seconds: float,
    tracer=None,
) -> Phase:
    queries = state.inputs.mix.queries
    lock = threading.Lock()
    cursor = [0]
    records: List[tuple] = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                j = cursor[0]
                cursor[0] += 1
            if tracer is not None:
                tracer.set_op(j)
            t0 = time.perf_counter()
            try:
                resp = send(queries[j % len(queries)])
                err = None
            except Exception as exc:  # noqa: BLE001 - counted as failed
                resp, err = None, f"{type(exc).__name__}: {exc}"
            records.append((j, (time.perf_counter() - t0) * 1e3, resp, err))

    start = time.perf_counter()
    threads = [threading.Thread(target=client, name=f"client-{i}")
               for i in range(CLIENT_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    phase = Phase(seconds=time.perf_counter() - start)
    http_ms, coalesced = [], 0
    for j, ms, resp, err in records:
        phase.attempted += 1
        if resp is None:
            phase.failed += 1
            phase.extra.setdefault("errors", []).append(err)
            continue
        phase.latencies_ms.append(ms)
        phase.nodes += resp.num_nodes
        http_ms.append(ms - resp.elapsed_ms)
        coalesced += resp.coalesced > 1
        state.answered.append((j, resp))
    done = len(phase.latencies_ms)
    phase.extra["qps"] = done / phase.seconds
    phase.extra["http_ms_mean"] = float(np.mean(http_ms)) if http_ms else 0.0
    phase.extra["coalesced_share"] = coalesced / done if done else 0.0
    return phase


def drive(state: State, seconds: float, tracer=None) -> Phase:
    client = ServeClient(state.url, timeout=REQUEST_TIMEOUT_S)
    before = client.stats()
    phase = _closed_loop(
        state, lambda q: client.query(q.text, fmt=q.fmt), seconds
    )
    after = client.stats()
    hits = after.cache_hits - before.cache_hits
    misses = after.cache_misses - before.cache_misses
    batches = after.batches - before.batches
    phase.extra.update(
        cache_hits=hits,
        cache_misses=misses,
        cache_evictions=after.cache_evictions - before.cache_evictions,
        mean_batch=(after.batched_requests - before.batched_requests) / batches
        if batches else 0.0,
        rejected=after.rejected - before.rejected,
    )
    return phase


# -- traced run ---------------------------------------------------------------

class _TimedModel:
    """The served model behind a span: what the batcher thread runs."""

    def __init__(self, model, tracer):
        self._model = model
        self._tracer = tracer
        self.num_iterations = model.num_iterations
        self.infer_ms: Dict[int, float] = {}

    def forward(self, prepared, num_iterations=None):
        with self._tracer.span("models.infer") as span:
            out = self._model.forward(prepared, num_iterations=num_iterations)
        self.infer_ms[id(prepared)] = (span.end - span.start) / 1e6
        return out


def _in_process(state: State, seconds: float, tracer=None) -> Phase:
    from . import layers

    model, _ = load_model_checkpoint(state.checkpoint)
    service = InferenceService(model, cache_size=CACHE_SIZE)

    def send(q: Query) -> QueryResponse:
        return service.query(QueryRequest(circuit=q.text, fmt=q.fmt))

    try:
        _warm(send, state.inputs.mix)
        if tracer is not None:
            _instrument(service, tracer)
            layers.install(tracer)
        try:
            phase = _closed_loop(state, send, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        service.close()
    return phase


def _instrument(service: InferenceService, tracer) -> None:
    """Spans on the service instance: request, compile and batch wait."""
    proxy = _TimedModel(service.model, tracer)
    tracer.patch(service, "model", proxy)

    def compiled(tracer, span, args, kwargs, result):
        span.name = "serve.compile_hit" if result[1] else "serve.compile_miss"

    def answered(tracer, span, args, kwargs, result):
        tracer.count("serve.response_bytes", len(result.to_json()))
        tracer.count("serve.responses")

    tracer.wrap(service, "query", "serve.query", answered)
    tracer.wrap(service, "compile_circuit", "serve.compile", compiled)
    submit = service.batcher.submit

    def timed_submit(job):
        # the handler thread blocks here while the batcher thread queues
        # and then runs the pass; the pass is the models.infer span
        with tracer.span("serve.submit_wait") as span:
            result = submit(job)
        waited = (time.perf_counter_ns() - span.start) / 1e6
        infer = proxy.infer_ms.get(id(job.entry.prepared), 0.0)
        tracer.count("serve.queue_wait_ms", max(0.0, waited - infer))
        tracer.count("serve.submits")
        return result

    tracer.patch(service.batcher, "submit", timed_submit)


def traced_phases(state: State, seconds: float):
    from .tracing import Tracer

    http = drive(state, seconds / 3)
    untraced = _in_process(state, seconds / 3)
    tracer = Tracer()
    traced = _in_process(state, seconds / 3, tracer)
    counters = tracer.counters
    responses = max(1.0, counters.get("serve.responses", 0.0))
    hits, misses = http.extra["cache_hits"], http.extra["cache_misses"]
    traced.extra["untraced_nodes_per_s"] = untraced.nodes_per_s
    traced.extra["layer_counters"] = {
        "serve.cache_hit_ratio": hits / max(1, hits + misses),
        "serve.cache_evictions": http.extra["cache_evictions"],
        "serve.mean_batch": http.extra["mean_batch"],
        "serve.coalesced_share": http.extra["coalesced_share"],
        "serve.response_bytes": counters.get("serve.response_bytes", 0.0) / responses,
    }
    traced.extra["layer_ms"] = {
        "serve.http_ms": http.extra["http_ms_mean"],
        "serve.queue_wait_ms": counters.get("serve.queue_wait_ms", 0.0)
        / max(1.0, counters.get("serve.submits", 0.0)),
        "serve.cache_base": {"hits": hits, "misses": misses},
    }
    return http, traced, tracer


# -- checks and report ---------------------------------------------------------

def check(state: State, phases: List[Phase]) -> List[str]:
    """Renamed copies share the hash; predictions match in-process bits."""
    problems = []
    mix = state.inputs.mix
    model, _ = load_model_checkpoint(state.checkpoint)
    expected: Dict[int, str] = {}
    reference: Dict[int, np.ndarray] = {}
    checked = set()
    for j, resp in state.answered:
        query = mix.queries[j % len(mix.queries)]
        k = query.structure
        if k not in expected:
            key, canonical = canonicalize(parse_circuit(query.text, query.fmt))
            expected[k] = key
            with no_grad():
                reference[k] = np.asarray(
                    model.forward(PreparedBatch(inference_graph(canonical))).data,
                    dtype=np.float32,
                )
        if resp.structural_hash != expected[k]:
            problems.append(
                f"query {j} (structure {k}, renamed={query.renamed}) got hash "
                f"{resp.structural_hash[:12]}, expected {expected[k][:12]}"
            )
        if (k, query.fmt, query.renamed) not in checked:
            checked.add((k, query.fmt, query.renamed))
            got = np.asarray(resp.predictions, dtype=np.float32)
            if not np.array_equal(got, reference[k]):
                problems.append(
                    f"query {j} (structure {k}): predictions differ from an "
                    "in-process DeepGate.forward of the same checkpoint"
                )
    if not state.answered:
        problems.append("no query was answered")
    for phase in phases:
        phase.extra["structures_checked"] = len(expected)
    return problems


def report(phase: Phase) -> Dict[str, Metric]:
    lat = phase.latency()
    out = {
        "serve_qps": Metric(phase.extra["qps"], "1/s", lat["samples"]),
        "serve_nodes_per_s": Metric(phase.nodes_per_s, "nodes/s", lat["samples"]),
        "serve_ms_p50": Metric(lat["p50"], "ms", lat["samples"]),
    }
    if lat["tail"]:
        out[f"serve_ms_{lat['tail']}"] = Metric(lat["tail_value"], "ms", lat["samples"])
    return out


def peak_rss(state: State) -> float:
    """The server process's high-water RSS (it is the program here)."""
    return process_hwm_mb(state.proc.pid)
