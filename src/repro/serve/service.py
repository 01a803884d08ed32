"""The inference service: parse → canonicalise → cache → predict.

Request flow (handler thread):

1. look the request's format and exact text up in the text memo
   (:class:`~repro.serve.cache.TextMemo`); if an earlier request with
   the same bytes canonicalised to a structure the cache still holds,
   take that entry (a cache hit and a text hit) and go to step 5
   without parsing,
2. otherwise parse the circuit text (:mod:`repro.aig`; malformed input
   raises a :class:`~repro.aig.errors.CircuitParseError` with a line
   number),
3. lower to an AIG and canonicalise with strash
   (:func:`repro.synth.structural_hash` is the cache key, so node names
   don't matter — predictions are per canonical node, so the key keeps
   the canonical node ordering); remember the key for the text,
4. fetch-or-build the compiled circuit from the strash-keyed LRU
   (:class:`~repro.serve.cache.CompilationCache`),
5. if the entry already holds predictions for the request's iteration
   count, return those stored predictions on this thread — no batcher,
   no propagation pass — with the JSON text the pass encoded from them,
   which the reply splices in without formatting a float;
6. otherwise, if a pass for the structure and iteration count is already
   queued or running, wait for that pass and return its predictions;
   else submit one pass to the micro-batcher and block for it.  Either
   way one pass per in-flight (structure, iteration count) answers every
   request that arrives before it finishes.  A failed pass fails the
   requests waiting on it, and the next request submits a new one.

Pass (worker thread): every job is a distinct (structural hash,
iteration override) — step 6 makes it so — and the batcher's one model
thread runs it as one propagation pass over the entry's own prepared
batch, which keeps every response bitwise identical to the serial
single-request path.  Each pass's predictions are stored on its cache
entry with their JSON text, encoded once on the worker thread, so the
submitter, every waiter and every later query for that structure and
iteration count get the same array and text back (step 5); both live
and die with the LRU entry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..aig import aiger, bench, verilog
from ..aig.graph import AIG
from ..graphdata.dataset import PreparedBatch
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
from .cache import CompilationCache, TextMemo
from .protocol import QueryRequest, QueryResponse, StatsReply

__all__ = [
    "CircuitRejected",
    "CompiledCircuit",
    "InferenceService",
    "service_from_checkpoint",
]


#: text-memo slots per compiled entry the cache may hold: renamed
#: copies share an entry, and a digest whose entry was evicted keeps its
#: slot until it ages out.  Slots pay off only on traffic that resends
#: a text byte for byte, and how often clients do is not measured; on
#: traffic that never does, a slot costs ~250 bytes and no hit
TEXT_MEMO_PER_ENTRY = 4


class CircuitRejected(ValueError):
    """A well-formed request the service cannot serve (semantic 400)."""


@dataclass
class CompiledCircuit:
    """One cache entry: the canonical AIG's PI and AND counts, its
    prepared batch, and the predictions its passes produced with their
    JSON text.

    ``prepared`` memoises level schedules and compiled fast-path plans
    internally, so repeat queries skip all compilation.  ``predictions``
    maps the iteration override a pass ran with (``None``: the model's
    own count) to that pass's read-only output, so repeat queries skip
    the model too; ``predictions_json`` maps the same override to
    :meth:`QueryResponse.encode_predictions` of that output (~20 bytes
    a node), so they skip formatting it as well.  The batcher thread
    writes both in one critical section and handler threads read both
    in another, under the service's pass lock.
    """

    key: str
    num_pis: int
    num_ands: int
    prepared: PreparedBatch
    predictions: Dict[Optional[int], np.ndarray] = field(default_factory=dict)
    predictions_json: Dict[Optional[int], str] = field(default_factory=dict)

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


#: what a pass answers: its stored predictions, their JSON text and
#: the number of requests it answered
_Answer = Tuple[np.ndarray, str, int]


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
        self.result: Optional[_Answer] = None
        self.error: Optional[BaseException] = None

    def settle(self, result=None, error=None) -> None:
        """Answer the waiters, once (call under the pass lock)."""
        if not self.done.is_set():
            self.result, self.error = result, error
            self.done.set()

    def wait(self) -> _Answer:
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
        max_queue: int = 128,
    ):
        self.model = model
        self.model_label = model_label
        self._supports_iterations = hasattr(model, "num_iterations")
        self.cache: CompilationCache = CompilationCache(cache_size)
        self.text_memo = TextMemo(TEXT_MEMO_PER_ENTRY * cache_size)
        self.batcher = MicroBatcher(self._run_pass, max_queue=max_queue)
        self._started = time.monotonic()
        self._counter_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._memo_hits = 0
        self._text_hits = 0
        # the pass queued or running per (structure, override); the lock
        # also covers storing predictions, so a request either sees them
        # or finds the pass that will store them
        self._pass_lock = threading.Lock()
        self._passes: Dict[Tuple[str, Optional[int]], _Job] = {}
        self._closed = False

    # -- request path (handler threads) ---------------------------------
    def compile_circuit(self, text: str, fmt: str) -> Tuple[CompiledCircuit, bool]:
        """Fetch/build ``text``'s cache entry; parse + canonicalise it
        unless the text memo knows its key and the entry is cached."""
        digest = TextMemo.digest(text, fmt)
        key = self.text_memo.get(digest)
        if key is not None:
            entry = self.cache.get(key)
            if entry is not None:
                with self._counter_lock:
                    self._text_hits += 1
                return entry, True
        aig = parse_circuit(text, fmt)
        key, canonical = canonicalize(aig)
        self.text_memo.put(digest, key)

        def build() -> CompiledCircuit:
            graph = inference_graph(canonical)
            return CompiledCircuit(
                key=key,
                num_pis=canonical.num_pis,
                num_ands=canonical.num_ands,
                prepared=PreparedBatch(graph),
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
            predictions, text, coalesced = self._predictions(entry, iters)
        except Exception:
            with self._counter_lock:
                self._errors += 1
            raise
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return QueryResponse(
            structural_hash=entry.key,
            num_nodes=entry.num_nodes,
            num_pis=entry.num_pis,
            num_ands=entry.num_ands,
            predictions=tuple(predictions.tolist()),
            cache_hit=cache_hit,
            coalesced=coalesced,
            model=self.model_label,
            elapsed_ms=elapsed_ms,
        )._with_predictions_json(text)

    def _predictions(
        self, entry: CompiledCircuit, iters: Optional[int]
    ) -> _Answer:
        """``entry``'s predictions for ``iters``, their JSON text, and the
        number of requests the pass that computed them answered (1 for
        stored predictions).

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
            text = entry.predictions_json.get(iters)
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
        answer = (predictions, text, 1) if job is None else job.wait()
        if self._closed:
            raise BatcherClosed("micro-batcher is closed")
        with self._counter_lock:
            self._memo_hits += 1
        return answer

    def _retire(self, job: _Job, result=None, error=None) -> None:
        """Unregister ``job``, so the next request for its pair finds the
        stored predictions or submits a new pass, and answer its waiters
        (call under the pass lock)."""
        key = (job.entry.key, job.iters)
        if self._passes.get(key) is job:
            del self._passes[key]
        job.settle(result, error)

    # -- pass (worker thread) --------------------------------------------
    def _run_pass(self, job: _Job) -> _Answer:
        """Run ``job``'s pass, encode its predictions' JSON, store both on
        the entry, retire the job and answer its waiters; returns the
        submitter's answer.  ``coalesced`` counts every request the pass
        answered, and every answer is the read-only array and the text
        memo hits return later.  A raising pass fails its submitter, who
        retires the job."""
        prepared = job.entry.prepared
        with no_grad():
            if job.iters is None:
                out = self.model.forward(prepared)
            else:
                out = self.model.forward(prepared, num_iterations=job.iters)
        preds = np.asarray(out.data, dtype=np.float32)
        preds.flags.writeable = False
        text = QueryResponse.encode_predictions(preds.tolist())
        with self._pass_lock:
            job.entry.predictions[job.iters] = preds
            job.entry.predictions_json[job.iters] = text
            answer = (preds, text, job.requests)
            self._retire(job, answer)
        return answer

    # -- observability / lifecycle ---------------------------------------
    def stats(self) -> StatsReply:
        cache = self.cache.counters()
        with self._counter_lock:
            requests, errors = self._requests, self._errors
            memo_hits, text_hits = self._memo_hits, self._text_hits
        return StatsReply(
            model=self.model_label,
            uptime_s=time.monotonic() - self._started,
            requests=requests,
            errors=errors,
            memo_hits=memo_hits,
            text_hits=text_hits,
            batches=self.batcher.jobs,
            batched_requests=self.batcher.jobs,
            max_queue=self.batcher.max_queue,
            rejected=self.batcher.rejected,
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
