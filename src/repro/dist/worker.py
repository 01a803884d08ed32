"""The lease-based worker loop.

A worker repeatedly scans its :class:`~repro.dist.work.WorkSource` for
unresolved items and, for each one it can claim, runs the full
claim → execute → commit → release protocol:

1. skip items that are committed, quarantined, or inside their
   retry-backoff window; an item that burned through ``max_attempts``
   is quarantined — but only under the item's lease (attempts are
   recorded *before* execution, so an exhausted-looking count may
   describe a final attempt still running on a peer: a fresh foreign
   lease always blocks poisoning);
2. :meth:`~repro.dist.leases.LeaseStore.try_acquire` a lease (losing a
   race is normal — move on);
3. re-check ``is_done()`` *after* acquiring: a predecessor that crashed
   between its atomic commit and its lease release left a committed item
   under a stale lease, which must not be re-executed;
4. record the attempt (count + backoff clock) so a crash mid-execution
   is already accounted for;
5. execute with a background heartbeat renewing the lease, re-verify
   ownership, commit atomically, release.

Workers are interchangeable and stateless between items: any number may
run the same loop on the same shared directory, including processes that
join mid-run (``repro worker``).  A worker that finds nothing claimable
waits up to ``poll_interval`` on its stop event and rescans; the loop
returns once every item is committed or quarantined, or as soon as
``stop_event`` is set (SIGTERM drain: the in-flight item is finished and
released, nothing new is claimed).

Fault-injection hooks (:mod:`repro.dist.faults`) sit at the exact
protocol points the chaos suite cares about; with no plan in the
environment they are inert.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from .config import DistConfig
from .faults import FaultInjector
from .leases import LeaseStore, new_owner_id
from .work import WorkItem, WorkSource

__all__ = [
    "HeartbeatThread",
    "WorkerReport",
    "drain_on_signals",
    "run_worker",
]

#: progress callback: ``fn(event)`` with ``status`` ("done" | "failed" |
#: "poisoned" | "abandoned"), ``key``, ``label``, ``index`` (position in
#: the source's item order), ``total``, ``elapsed`` (seconds the item ran,
#: 0 unless done) and ``detail``.
WorkerProgress = Callable[[Dict[str, object]], None]


class HeartbeatThread(threading.Thread):
    """Renews one lease in the background while its item executes.

    ``lost`` flips to True (and renewal stops) the moment a renewal
    fails, i.e. the lease was reclaimed out from under us — the worker
    checks it before committing.  ``pause``/``resume`` exist for the
    ``stall_past_lease`` fault, which needs heartbeats suspended long
    enough for the lease to go stale.
    """

    def __init__(
        self, store: LeaseStore, key: str, owner: str, interval: float
    ):
        super().__init__(name=f"heartbeat-{key}", daemon=True)
        self.store = store
        self.key = key
        self.owner = owner
        self.interval = interval
        self.lost = False
        # note: not named _stop — Thread.join() calls an internal _stop()
        self._halt = threading.Event()
        self._paused = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            if self._paused.is_set():
                continue
            if not self.store.heartbeat(self.key, self.owner):
                self.lost = True
                return

    def pause(self) -> None:
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self.interval * 4 + 1.0)


@dataclass
class WorkerReport:
    """What one worker loop did before returning."""

    owner: str
    completed: List[str] = field(default_factory=list)
    skipped_done: int = 0
    failed: int = 0
    abandoned: int = 0
    poisoned: List[str] = field(default_factory=list)
    drained: bool = False


@contextmanager
def drain_on_signals(*signums: int) -> Iterator[threading.Event]:
    """A stop event for :func:`run_worker` that any of ``signums`` sets.

    The handler sets it from a new thread: the main thread may hold the
    event's lock inside ``wait`` when the signal lands, so setting it
    from the handler itself could deadlock.  The previous handlers come
    back on exit.  Main thread only (signal handlers are installed there).
    """
    stop = threading.Event()

    def handler(*_) -> None:
        threading.Thread(target=stop.set, daemon=True).start()

    previous = [(signum, signal.signal(signum, handler)) for signum in signums]
    try:
        yield stop
    finally:
        for signum, old in previous:
            signal.signal(signum, old)


def run_worker(
    source: WorkSource,
    cfg: Optional[DistConfig] = None,
    owner: Optional[str] = None,
    stop_event: Optional[threading.Event] = None,
    progress: Optional[WorkerProgress] = None,
) -> WorkerReport:
    """Run the claim/execute/commit loop until the source is resolved.

    Returns a :class:`WorkerReport`; raises nothing for per-item
    failures (they go through retry/backoff/quarantine).  ``stop_event``
    triggers a drain: finish and release the in-flight item, then
    return with ``drained=True``.
    """
    cfg = DistConfig() if cfg is None else cfg
    owner = new_owner_id() if owner is None else owner
    stop_event = threading.Event() if stop_event is None else stop_event

    coord = source.coordination_dir()
    store = LeaseStore(coord, ttl=cfg.lease_ttl)
    injector = FaultInjector.from_env(coord)
    items = source.items()
    position = {item.key: index for index, item in enumerate(items)}
    report = WorkerReport(owner=owner)

    def emit(
        status: str, item: WorkItem, detail: str = "", elapsed: float = 0.0
    ) -> None:
        if progress is not None:
            progress(
                {
                    "status": status,
                    "key": item.key,
                    "label": item.label,
                    "index": position[item.key],
                    "total": len(items),
                    "elapsed": elapsed,
                    "detail": detail,
                }
            )

    while True:
        if stop_event.is_set():
            report.drained = True
            return report
        unresolved = 0
        progressed = False
        for item in items:
            if stop_event.is_set():
                break
            if item.is_done() or store.is_poisoned(item.key):
                continue
            unresolved += 1
            now = time.time()
            rec = store.attempts(item.key)
            if rec.count >= cfg.max_attempts:
                progressed = (
                    _quarantine(item, store, cfg, report, emit, owner)
                    or progressed
                )
                continue
            if now < rec.next_eligible_at:
                continue
            lease = store.try_acquire(item.key, owner, now)
            if lease is None:
                continue
            if item.is_done():
                # predecessor crashed after its commit, before its
                # release: the work is in the cache, just drop the lease
                report.skipped_done += 1
                store.release(item.key, owner)
                progressed = True
                continue
            count = rec.count + 1
            store.record_attempt(
                item.key,
                count,
                next_eligible_at=now + cfg.backoff_delay(count),
                last_error=rec.last_error,
            )
            progressed = (
                _run_item(item, store, injector, cfg, owner, count, report,
                          emit)
                or progressed
            )
        if unresolved == 0:
            return report
        if not progressed:
            # idle: a peer holds what is left, or it is backing off.  A
            # drain request ends the wait at once
            stop_event.wait(cfg.poll_interval)


def _quarantine(
    item: WorkItem,
    store: LeaseStore,
    cfg: DistConfig,
    report: WorkerReport,
    emit: Callable[..., None],
    owner: str,
) -> bool:
    """Poison an item whose retry budget is spent — lease in hand.

    ``count == max_attempts`` in the attempt record also describes an
    item whose *final* attempt is executing right now on another worker
    (attempts are recorded before execution), so quarantining is gated
    on acquiring the item's lease: a fresh foreign lease means a live
    holder whose attempt may yet commit, and the scan moves on.
    Acquiring proves nothing is in flight — the holder either poisoned
    the item itself (see :func:`_run_item`) or died before it could —
    and keeps the invariant that poison records are written only by the
    current lease holder.  Returns True when the scan made progress.
    """
    lease = store.try_acquire(item.key, owner)
    if lease is None:
        return False  # live holder on its final attempt — not ours to judge
    try:
        if item.is_done():
            # the final attempt committed, then its worker died before
            # releasing: the item is resolved, nothing to poison
            report.skipped_done += 1
            return True
        rec = store.attempts(item.key)
        if rec.count < cfg.max_attempts:
            return False  # record changed underfoot; let the rescan decide
        store.poison(item.key, rec.count, rec.last_error)
        report.poisoned.append(item.key)
        emit("poisoned", item, rec.last_error)
        return True
    finally:
        store.release(item.key, owner)


def _run_item(
    item: WorkItem,
    store: LeaseStore,
    injector: FaultInjector,
    cfg: DistConfig,
    owner: str,
    count: int,
    report: WorkerReport,
    emit: Callable[..., None],
) -> bool:
    """Execute one claimed item end to end.  Returns True on commit."""
    hb = HeartbeatThread(store, item.key, owner, cfg.heartbeat_interval)
    hb.start()
    started = time.perf_counter()
    try:
        try:
            payload = item.run()
        except Exception as exc:  # noqa: BLE001 - quarantine, don't die
            error = f"{type(exc).__name__}: {exc}"
            store.record_attempt(
                item.key,
                count,
                next_eligible_at=time.time() + cfg.backoff_delay(count),
                last_error=error,
            )
            report.failed += 1
            emit("failed", item, error)
            if count >= cfg.max_attempts and store.owns(item.key, owner):
                # that was the final permitted attempt and the lease is
                # still ours: quarantine here, under the lease, instead
                # of leaving it to a scan (which would have to reclaim)
                store.poison(item.key, count, error)
                report.poisoned.append(item.key)
                emit("poisoned", item, error)
            return False

        if injector.take("stall_past_lease", item.label):
            # wedge with heartbeats suspended until the lease is stale;
            # a rival may reclaim meanwhile — the ownership check below
            # decides whether this result is still ours to publish
            hb.pause()
            time.sleep(cfg.lease_ttl + cfg.heartbeat_interval)
            hb.resume()
        if injector.take("torn_write", item.label):
            # the failure mode atomic commits exist to prevent, forced:
            # a truncated artifact in place, then sudden death
            item.simulate_torn_write()
            injector.crash()
        if injector.take("crash_before_commit", item.label):
            injector.crash()

        if hb.lost or not store.owns(item.key, owner):
            # lease reclaimed mid-flight: someone else owns the item
            # now; abandon the result (commits are idempotent, but
            # double-publishing is still pointless churn)
            report.abandoned += 1
            emit("abandoned", item)
            return False

        item.commit(payload)
        if injector.take("crash_after_commit", item.label):
            injector.crash()
        report.completed.append(item.key)
        emit("done", item, elapsed=time.perf_counter() - started)
        return True
    finally:
        hb.stop()
        store.release(item.key, owner)
