"""The model thread: one bounded queue, one job per turn.

HTTP handler threads submit jobs and block on a future; one worker
thread takes the jobs in arrival order and runs each through a ``run``
callable, so every job is one model pass and its submitter gets that
pass's result or exception.  ``max_queue`` bounds the backlog: once
that many jobs are in flight, ``submit`` raises
:class:`BatcherSaturated` immediately instead of queueing, so overload
turns into fast 503s rather than an unbounded pile of blocked handler
threads.

The single worker thread is also the concurrency-correctness boundary:
the autograd engine's ``no_grad`` flag is process-global, so *all* model
execution happens on this thread and handler threads never touch the
model.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Callable

__all__ = ["MicroBatcher", "BatcherClosed", "BatcherSaturated"]


class BatcherClosed(RuntimeError):
    """Submit after (or during) shutdown."""


class BatcherSaturated(RuntimeError):
    """Submit while the queue is at ``max_queue`` — shed load, retry later."""


class MicroBatcher:
    """Single-worker executor with a bounded queue.

    ``run(job)`` returns the job's result; raising fails that job alone,
    and the worker goes on to the next one.
    """

    def __init__(self, run: Callable[[object], object], max_queue: int = 128):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = max_queue
        self._run = run
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        self._lock = threading.Lock()
        # jobs submitted but not yet resolved; guarded by _lock
        self._pending = 0
        # jobs taken by the worker (written only by it) and submits
        # refused as saturated (bumped by submitters under _lock)
        self.jobs = 0
        self.rejected = 0
        self._worker = threading.Thread(
            target=self._loop, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    # -- producer side -------------------------------------------------
    def submit(self, job: object):
        """Run ``job`` on the worker thread; block for its result.

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

        If the worker does not exit within ``timeout`` (``run`` wedged
        mid-job), every job still sitting in the queue has its future
        failed with :class:`BatcherClosed` so no submitter blocks forever
        on a result that will never come.  The job already handed to the
        wedged ``run`` cannot be recovered here — its future stays with
        the worker.
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
    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            job, future = item
            self.jobs += 1
            try:
                result = self._run(job)
            except BaseException as exc:  # noqa: BLE001 - fail this job only
                future.set_exception(exc)
            else:
                future.set_result(result)
