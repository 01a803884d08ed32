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
5. otherwise submit to the micro-batcher and block for predictions.

Batch cycle (worker thread): jobs are grouped by (structural hash,
iteration override) and each **unique** circuit runs one fused
propagation pass — K concurrent submissions of the same structure are
answered by a single pass, which keeps every response bitwise identical
to the serial single-request path.  Each computed group's predictions
are stored on its cache entry, so later queries for that structure and
iteration count get the same array back (step 4); the stored
predictions live and die with the LRU entry.  ``batch_mode="merged"``
additionally fuses *distinct* circuits of a cycle into one
disjoint-union pass via the singles' cached schedules
(:func:`repro.graphdata.merge_prepared`); that mode trades strict
bitwise reproducibility (BLAS kernels may round differently on
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
    the model too.  Only the batcher thread writes it and handler threads
    only read it, each through one dict operation, which the interpreter
    lock makes atomic.
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


@dataclass
class _Job:
    entry: CompiledCircuit
    num_iterations: Optional[int]


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
                    # the model's own count: same batch group, same memo slot
                    iters = None
            entry, cache_hit = self.compile_circuit(request.circuit, request.fmt)
            predictions = entry.predictions.get(iters)
            if predictions is None:
                predictions, coalesced = self.batcher.submit(_Job(entry, iters))
            else:
                if self.batcher.closed:
                    raise BatcherClosed("micro-batcher is closed")
                coalesced = 1
                with self._counter_lock:
                    self._memo_hits += 1
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

    # -- batch cycle (worker thread) -------------------------------------
    def _predict(self, prepared: PreparedBatch, num_iterations: Optional[int]):
        if num_iterations is not None:
            out = self.model.forward(prepared, num_iterations=num_iterations)
        else:
            out = self.model.forward(prepared)
        return np.asarray(out.data, dtype=np.float32)

    def _run_cycle(self, jobs: List[_Job]) -> List[object]:
        # group by (structure, iteration override): each unique group runs
        # ONE pass and every job in it shares the result bitwise
        groups: Dict[Tuple[str, Optional[int]], List[int]] = {}
        for idx, job in enumerate(jobs):
            groups.setdefault((job.entry.key, job.num_iterations), []).append(idx)
        results: List[object] = [None] * len(jobs)
        with no_grad():
            if self.batch_mode == "merged" and len(groups) > 1:
                self._run_merged(jobs, groups, results)
            else:
                for (key, iters), indices in groups.items():
                    entry = jobs[indices[0]].entry
                    try:
                        preds = self._predict(entry.prepared, iters)
                    except Exception as exc:  # noqa: BLE001 - fail this group only
                        for idx in indices:
                            results[idx] = exc
                        continue
                    _remember(jobs, indices, iters, preds, len(indices), results)
        return results

    def _run_merged(
        self,
        jobs: List[_Job],
        groups: Dict[Tuple[str, Optional[int]], List[int]],
        results: List[object],
    ) -> None:
        """Fuse a cycle's distinct circuits into one pass per iteration
        override (predictions match the per-circuit path to ~1 ulp, not
        bitwise — that is why this mode is opt-in)."""
        by_iters: Dict[Optional[int], List[Tuple[str, List[int]]]] = {}
        for (key, iters), indices in groups.items():
            by_iters.setdefault(iters, []).append((key, indices))
        for iters, members in by_iters.items():
            entries = [jobs[indices[0]].entry for _, indices in members]
            coalesced = sum(len(indices) for _, indices in members)
            try:
                merged = merge_prepared([e.prepared for e in entries])
                preds = self._predict(merged, iters)
            except Exception as exc:  # noqa: BLE001 - fail this pass's jobs
                for _, indices in members:
                    for idx in indices:
                        results[idx] = exc
                continue
            offsets = np.cumsum([0] + [e.num_nodes for e in entries])
            for (_, indices), lo, hi in zip(members, offsets[:-1], offsets[1:]):
                # a copy: a stored view would keep the merged array alive
                part = preds[lo:hi].copy()
                _remember(jobs, indices, iters, part, coalesced, results)

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
        self.batcher.close()


def _remember(
    jobs: List[_Job],
    indices: List[int],
    iters: Optional[int],
    preds: np.ndarray,
    coalesced: int,
    results: List[object],
) -> None:
    """Store one computed group's predictions on its entry and answer its
    jobs.  A slot an earlier cycle filled keeps its array, and the jobs
    get that array, so every answer for a slot is the one hits return."""
    preds.flags.writeable = False
    for idx in indices:
        stored = jobs[idx].entry.predictions.setdefault(iters, preds)
        results[idx] = (stored, coalesced)


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
