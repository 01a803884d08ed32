"""The inference service: parse → canonicalise → cache → batch → predict.

Request flow (handler thread):

1. parse the circuit text (:mod:`repro.aig`; malformed input raises a
   :class:`~repro.aig.errors.CircuitParseError` with a line number),
2. lower to an AIG and canonicalise with strash
   (:func:`repro.synth.structural_hash` is the cache key, so node names
   don't matter — predictions are per canonical node, so the key keeps
   the canonical node ordering),
3. fetch-or-build the compiled circuit from the strash-keyed LRU
   (:class:`~repro.serve.cache.CompilationCache`),
4. if the entry already holds predictions for the request's iteration
   count, return those stored predictions on this thread — no batcher,
   no coalescing window, no propagation pass;
5. otherwise, if a pass for the structure and iteration count is already
   queued or running, wait for that pass and return its predictions;
   else submit one pass to the micro-batcher and block for it.  Either
   way one pass per in-flight (structure, iteration count) answers every
   request that arrives before it finishes.  A failed pass fails the
   requests waiting on it, and the next request submits a new one.

Batch cycle (worker thread): every job is a distinct (structural hash,
iteration override) — step 5 makes it so — and runs one propagation
pass, which keeps every response bitwise identical to the serial
single-request path.  Each pass's predictions are stored on its cache
entry, so later queries for that structure and iteration count get the
same array back (step 4); the stored predictions live and die with the
LRU entry.  ``batch_mode="merged"`` additionally fuses *distinct*
circuits of a cycle into one disjoint-union pass via the singles' cached
schedules (:func:`repro.graphdata.merge_prepared`); that mode trades
strict bitwise reproducibility (BLAS kernels may round differently on
different row counts — differences are ~1 ulp) for fewer passes under
heterogeneous load, so it is opt-in, and the parts it stores keep that
~1-ulp contract.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..aig import aiger, bench, verilog
from ..aig.graph import AIG
from ..graphdata.dataset import PreparedBatch, merge_prepared
from ..graphdata.features import inference_graph
from ..nn.tensor import no_grad
from ..synth import (
    has_constant_outputs,
    netlist_to_aig,
    strash,
    strip_constant_outputs,
    structural_hash,
)
from .batcher import BatcherClosed, MicroBatcher
from .cache import CompilationCache
from .protocol import QueryRequest, QueryResponse, StatsReply

__all__ = [
    "CircuitRejected",
    "CompiledCircuit",
    "InferenceService",
    "BATCH_MODES",
    "service_from_checkpoint",
]

BATCH_MODES = ("exact", "merged")


class CircuitRejected(ValueError):
    """A well-formed request the service cannot serve (semantic 400)."""


@dataclass
class CompiledCircuit:
    """One cache entry: the canonical AIG, its prepared batch and the
    predictions its passes produced.

    ``prepared`` memoises level schedules and compiled fast-path plans
    internally, so repeat queries skip all compilation.  ``predictions``
    maps the iteration override a pass ran with (``None``: the model's
    own count) to that pass's read-only output, so repeat queries skip
    the model too.  The batcher thread writes it and handler threads
    read it, both under the service's pass lock.
    """

    key: str
    aig: AIG
    prepared: PreparedBatch
    predictions: Dict[Optional[int], np.ndarray] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.prepared.num_nodes


def parse_circuit(text: str, fmt: str) -> AIG:
    """Parse ``text`` in ``fmt`` and lower it to a raw AIG."""
    if fmt == "aiger":
        return aiger.loads(text, name="query")
    if fmt == "bench":
        return netlist_to_aig(bench.loads(text, name="query"))
    if fmt == "verilog":
        return netlist_to_aig(verilog.loads(text))
    raise CircuitRejected(f"unknown circuit format {fmt!r}")


def canonicalize(aig: AIG) -> Tuple[str, AIG]:
    """Strash ``aig`` into its canonical form; return (cache key, AIG)."""
    canonical = strash(aig)
    if has_constant_outputs(canonical):
        try:
            canonical = strip_constant_outputs(canonical)
        except ValueError as exc:
            raise CircuitRejected(str(exc)) from exc
    key = structural_hash(canonical, canonicalize=False)
    return key, canonical


class _Job:
    """One pass queued or running for a (structure, iteration override).

    The request that found no pass submits this object to the batcher as
    its job and blocks there; every later request for the same pair
    waits on ``done`` instead.  ``requests`` counts the owner and its
    waiters; the service's pass lock guards it and the settling.
    """

    __slots__ = ("entry", "iters", "requests", "done", "result", "error")

    def __init__(self, entry: CompiledCircuit, iters: Optional[int]):
        self.entry = entry
        self.iters = iters
        self.requests = 1
        self.done = threading.Event()
        self.result: Optional[Tuple[np.ndarray, int]] = None
        self.error: Optional[BaseException] = None

    def settle(self, result=None, error=None) -> None:
        """Answer the waiters, once (call under the pass lock)."""
        if not self.done.is_set():
            self.result, self.error = result, error
            self.done.set()

    def wait(self) -> Tuple[np.ndarray, int]:
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.result  # type: ignore[return-value]


class InferenceService:
    """A loaded model behind the compilation cache and micro-batcher."""

    def __init__(
        self,
        model,
        model_label: str = "model",
        cache_size: int = 128,
        max_batch_size: int = 16,
        max_wait_ms: float = 2.0,
        max_queue: int = 128,
        batch_mode: str = "exact",
    ):
        if batch_mode not in BATCH_MODES:
            raise ValueError(
                f"unknown batch_mode {batch_mode!r}; expected one of {BATCH_MODES}"
            )
        self.model = model
        self.model_label = model_label
        self.batch_mode = batch_mode
        self._supports_iterations = hasattr(model, "num_iterations")
        self.cache: CompilationCache = CompilationCache(cache_size)
        self.batcher = MicroBatcher(
            self._run_cycle,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            max_queue=max_queue,
        )
        self._started = time.monotonic()
        self._counter_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._memo_hits = 0
        # the pass queued or running per (structure, override); the lock
        # also covers storing predictions, so a request either sees them
        # or finds the pass that will store them
        self._pass_lock = threading.Lock()
        self._passes: Dict[Tuple[str, Optional[int]], _Job] = {}
        self._closed = False

    # -- request path (handler threads) ---------------------------------
    def compile_circuit(self, text: str, fmt: str) -> Tuple[CompiledCircuit, bool]:
        """Parse + canonicalise ``text`` and fetch/build its cache entry."""
        aig = parse_circuit(text, fmt)
        key, canonical = canonicalize(aig)

        def build() -> CompiledCircuit:
            graph = inference_graph(canonical)
            return CompiledCircuit(
                key=key, aig=canonical, prepared=PreparedBatch(graph)
            )

        return self.cache.get_or_build(key, build)

    def query(self, request: QueryRequest) -> QueryResponse:
        """Serve one request; raises the error the server maps to 4xx/5xx."""
        start = time.perf_counter()
        with self._counter_lock:
            self._requests += 1
        try:
            iters = request.num_iterations
            if iters is not None:
                if not self._supports_iterations:
                    raise CircuitRejected(
                        f"model {self.model_label!r} is not recurrent; "
                        "num_iterations cannot be overridden"
                    )
                if iters == self.model.num_iterations:
                    # the model's own count: same pass, same memo slot
                    iters = None
            entry, cache_hit = self.compile_circuit(request.circuit, request.fmt)
            predictions, coalesced = self._predictions(entry, iters)
        except Exception:
            with self._counter_lock:
                self._errors += 1
            raise
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return QueryResponse(
            structural_hash=entry.key,
            num_nodes=entry.num_nodes,
            num_pis=entry.aig.num_pis,
            num_ands=entry.aig.num_ands,
            predictions=tuple(float(p) for p in predictions),
            cache_hit=cache_hit,
            coalesced=coalesced,
            model=self.model_label,
            elapsed_ms=elapsed_ms,
        )

    def _predictions(
        self, entry: CompiledCircuit, iters: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        """``entry``'s predictions for ``iters`` and the number of requests
        the pass that computed them answered (1 for stored predictions).

        Stored predictions answer on this thread.  Otherwise the request
        waits on the pass already queued or running for the pair, or
        submits one.  Every request answered without submitting a pass
        of its own counts as a memo hit.
        """
        key = (entry.key, iters)
        with self._pass_lock:
            if self._closed:
                raise BatcherClosed("micro-batcher is closed")
            predictions = entry.predictions.get(iters)
            job = None if predictions is not None else self._passes.get(key)
            owner = predictions is None and job is None
            if owner:
                job = self._passes[key] = _Job(entry, iters)
            elif job is not None:
                job.requests += 1
        if owner:
            try:
                return self.batcher.submit(job)
            except BaseException as exc:
                with self._pass_lock:
                    self._retire(job, error=exc)
                raise
        predictions, coalesced = (predictions, 1) if job is None else job.wait()
        if self._closed:
            raise BatcherClosed("micro-batcher is closed")
        with self._counter_lock:
            self._memo_hits += 1
        return predictions, coalesced

    def _retire(self, job: _Job, result=None, error=None) -> None:
        """Unregister ``job``, so the next request for its pair finds the
        stored predictions or submits a new pass, and answer its waiters
        (call under the pass lock)."""
        key = (job.entry.key, job.iters)
        if self._passes.get(key) is job:
            del self._passes[key]
        job.settle(result, error)

    # -- batch cycle (worker thread) -------------------------------------
    def _predict(self, prepared: PreparedBatch, num_iterations: Optional[int]):
        if num_iterations is not None:
            out = self.model.forward(prepared, num_iterations=num_iterations)
        else:
            out = self.model.forward(prepared)
        return np.asarray(out.data, dtype=np.float32)

    def _run_cycle(self, jobs: List[_Job]) -> List[object]:
        # each job is a distinct (structure, override): one pass apiece
        with no_grad():
            if self.batch_mode == "merged" and len(jobs) > 1:
                return self._run_merged(jobs)
            results: List[object] = []
            for job in jobs:
                try:
                    preds = self._predict(job.entry.prepared, job.iters)
                except Exception as exc:  # noqa: BLE001 - fail this pass only
                    results.append(exc)
                    continue
                results.extend(self._store([job], [preds]))
        return results

    def _run_merged(self, jobs: List[_Job]) -> List[object]:
        """Fuse a cycle's distinct circuits into one pass per iteration
        override (predictions match the per-circuit path to ~1 ulp, not
        bitwise — that is why this mode is opt-in)."""
        by_iters: Dict[Optional[int], List[int]] = {}
        for idx, job in enumerate(jobs):
            by_iters.setdefault(job.iters, []).append(idx)
        results: List[object] = [None] * len(jobs)
        for iters, indices in by_iters.items():
            members = [jobs[idx] for idx in indices]
            try:
                merged = merge_prepared([job.entry.prepared for job in members])
                preds = self._predict(merged, iters)
            except Exception as exc:  # noqa: BLE001 - fail this pass's jobs
                for idx in indices:
                    results[idx] = exc
                continue
            offsets = np.cumsum([0] + [job.entry.num_nodes for job in members])
            # copies: a stored view would keep the merged array alive
            parts = [preds[lo:hi].copy() for lo, hi in zip(offsets[:-1], offsets[1:])]
            for idx, result in zip(indices, self._store(members, parts)):
                results[idx] = result
        return results

    def _store(
        self, jobs: List[_Job], parts: List[np.ndarray]
    ) -> List[Tuple[np.ndarray, int]]:
        """Store each job's predictions on its entry, retire the jobs and
        answer their waiters; returns the submitters' answers.  One model
        pass computed all of ``parts``, so ``coalesced`` counts every
        request they answered.  Every answer for a slot is the read-only
        array memo hits return later."""
        answers = []
        with self._pass_lock:
            coalesced = sum(job.requests for job in jobs)
            for job, part in zip(jobs, parts):
                part.flags.writeable = False
                job.entry.predictions[job.iters] = part
                answers.append((part, coalesced))
                self._retire(job, answers[-1])
        return answers

    # -- observability / lifecycle ---------------------------------------
    def stats(self) -> StatsReply:
        cache = self.cache.counters()
        with self._counter_lock:
            requests, errors = self._requests, self._errors
            memo_hits = self._memo_hits
        return StatsReply(
            model=self.model_label,
            uptime_s=time.monotonic() - self._started,
            requests=requests,
            errors=errors,
            memo_hits=memo_hits,
            batches=self.batcher.batches,
            batched_requests=self.batcher.jobs,
            max_batch_observed=self.batcher.max_batch_observed,
            max_batch_size=self.batcher.max_batch_size,
            max_wait_ms=self.batcher.max_wait_ms,
            max_queue=self.batcher.max_queue,
            rejected=self.batcher.rejected,
            batch_mode=self.batch_mode,
            **cache,
        )

    def close(self) -> None:
        """Stop answering: requests waiting on a pass fail at once with
        :class:`BatcherClosed`, as memo hits do from now on; the batcher
        then finishes the passes it holds for their submitters."""
        with self._pass_lock:
            self._closed = True
            for job in self._passes.values():
                job.settle(error=BatcherClosed("micro-batcher is closed"))
        self.batcher.close()


def service_from_checkpoint(path, **kwargs) -> InferenceService:
    """Load a model checkpoint (``save_model_checkpoint`` format) and wrap
    it in an :class:`InferenceService`; extra kwargs configure the service."""
    from ..nn.serialization import load_model_checkpoint

    model, meta = load_model_checkpoint(path)
    config = meta.get("model_config", {})
    label = config.get("class", type(model).__name__)
    detail = ",".join(
        f"{k}={config[k]}" for k in ("dim", "num_iterations", "num_layers")
        if k in config
    )
    if detail:
        label = f"{label}({detail})"
    kwargs.setdefault("model_label", label)
    return InferenceService(model, **kwargs)
