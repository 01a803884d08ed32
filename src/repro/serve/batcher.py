"""Bounded micro-batching queue: coalesce concurrent requests.

HTTP handler threads submit jobs and block on a future; one worker
thread drains the queue and hands each batch to a ``run_batch``
callable.  Two knobs bound the coalescing window: ``max_batch_size``
(drain at most this many jobs per cycle) and ``max_wait_ms`` (after the
first job arrives, wait at most this long for companions).  A lone
request therefore pays at most ``max_wait_ms`` extra latency, and a
burst of concurrent requests is fused into one cycle.  A third knob,
``max_queue``, bounds the backlog: once that many jobs are in flight,
``submit`` raises :class:`BatcherSaturated` immediately instead of
queueing, so overload turns into fast 503s rather than an unbounded
pile of blocked handler threads.

The single worker thread is also the concurrency-correctness boundary:
the autograd engine's ``no_grad`` flag is process-global, so *all* model
execution happens on this thread and handler threads never touch the
model.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Sequence, TypeVar

__all__ = ["MicroBatcher", "BatcherClosed", "BatcherSaturated"]

J = TypeVar("J")


class BatcherClosed(RuntimeError):
    """Submit after (or during) shutdown."""


class BatcherSaturated(RuntimeError):
    """Submit while the queue is at ``max_queue`` — shed load, retry later."""


class MicroBatcher:
    """Single-worker batching executor with a bounded coalescing window.

    ``run_batch(jobs)`` must return one result per job, in order; an
    element that is an ``Exception`` instance fails that job alone,
    while ``run_batch`` raising fails the whole cycle.
    """

    def __init__(
        self,
        run_batch: Callable[[List[object]], Sequence[object]],
        max_batch_size: int = 16,
        max_wait_ms: float = 2.0,
        max_queue: int = 128,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.max_queue = max_queue
        self._run_batch = run_batch
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        self._lock = threading.Lock()
        # jobs submitted but not yet resolved; guarded by _lock
        self._pending = 0
        # cycle counters (written only by the worker thread, except
        # rejected, which submitters bump under _lock)
        self.batches = 0
        self.jobs = 0
        self.max_batch_observed = 0
        self.rejected = 0
        self._worker = threading.Thread(
            target=self._loop, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    # -- producer side -------------------------------------------------
    def submit(self, job: object):
        """Run ``job`` in some upcoming batch; block for its result.

        Raises :class:`BatcherSaturated` (without queueing) when
        ``max_queue`` jobs are already in flight — the HTTP layer maps
        this to 503 + ``Retry-After`` so overload sheds quickly instead
        of stacking blocked handler threads without bound.
        """
        with self._lock:
            if self._closed:
                raise BatcherClosed("micro-batcher is closed")
            if self._pending >= self.max_queue:
                self.rejected += 1
                raise BatcherSaturated(
                    f"micro-batcher queue is full "
                    f"({self._pending}/{self.max_queue} jobs in flight)"
                )
            self._pending += 1
            future: "Future" = Future()
            self._queue.put((job, future))
        try:
            return future.result()
        finally:
            with self._lock:
                self._pending -= 1

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, finish queued jobs, join the worker.

        If the worker does not exit within ``timeout`` (``run_batch``
        wedged mid-cycle), every job still sitting in the queue has its
        future failed with :class:`BatcherClosed` so no submitter blocks
        forever on a result that will never come.  Jobs already handed to
        the wedged ``run_batch`` cannot be recovered here — their futures
        stay with the cycle that owns them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)
        self._worker.join(timeout=timeout)
        if not self._worker.is_alive():
            return
        # drain whatever the wedged worker will never reach
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                continue
            _, future = item
            future.set_exception(
                BatcherClosed("micro-batcher closed before the job ran")
            )
        # leave a sentinel so a worker that eventually un-wedges exits
        # instead of blocking forever on an empty queue
        self._queue.put(None)

    # -- worker side ----------------------------------------------------
    def _drain(self) -> List[tuple]:
        """Block for the first job, then coalesce within the window."""
        first = self._queue.get()
        if first is None:
            return []
        batch = [first]
        deadline = time.monotonic() + self.max_wait_ms / 1000.0
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.monotonic()
            try:
                item = (
                    self._queue.get_nowait()
                    if remaining <= 0
                    else self._queue.get(timeout=remaining)
                )
            except queue.Empty:
                break
            if item is None:
                # re-post the sentinel so the loop exits after this batch
                self._queue.put(None)
                break
            batch.append(item)
        return batch

    def _loop(self) -> None:
        while True:
            batch = self._drain()
            if not batch:
                return
            jobs = [job for job, _ in batch]
            self.batches += 1
            self.jobs += len(jobs)
            self.max_batch_observed = max(self.max_batch_observed, len(jobs))
            try:
                results = list(self._run_batch(jobs))
                if len(results) != len(jobs):
                    raise RuntimeError(
                        f"run_batch returned {len(results)} results for "
                        f"{len(jobs)} jobs"
                    )
            except BaseException as exc:  # noqa: BLE001 - fail the cycle's jobs
                for _, future in batch:
                    future.set_exception(exc)
                continue
            for (_, future), result in zip(batch, results):
                if isinstance(result, Exception):
                    future.set_exception(result)
                else:
                    future.set_result(result)
