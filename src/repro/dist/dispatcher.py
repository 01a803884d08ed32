"""Fleet supervision: the one engine behind every parallel run.

:func:`run_distributed` drives one :class:`~repro.dist.work.WorkSource`
to resolution.  :func:`repro.runtime.parallel.execute_parallel` (units
of a grid experiment) and :func:`repro.datagen.pipeline.build_shards`
(shards of a dataset) are thin wrappers around it that own their cache
rules.

With ``workers >= 2`` the dispatcher spawns that many worker processes
and babysits them:

* a worker that exits cleanly has nothing left to claim — the fleet is
  simply done, or draining;
* a worker that *dies* (crash, ``kill -9``, injected fault) is reaped,
  counted, and respawned while the respawn budget lasts; past the
  budget the fleet degrades gracefully to fewer workers;
* if every subprocess is gone and work remains, the dispatcher runs the
  worker loop **inline** as a floor — a run never stalls just because
  its fleet died, it just gets slower;
* items that burned through their retry budget come back in
  ``summary.poisoned``, which the wrappers raise as
  :class:`PoisonedWorkError` naming every quarantined item and its last
  error, instead of hanging the run forever.  The budget is per run.

With ``workers <= 1`` no process is spawned: the same worker loop runs
inline from the start.

The dispatcher sleeps on its workers' process sentinels, so an exit
wakes it at once; otherwise it wakes every ``poll_interval`` to report
the items it sees committed.  Because workers coordinate purely through
lease files in the shared layout, supervision is optional: standalone
``repro worker`` processes (possibly on other hosts sharing the
filesystem) join and leave the same run freely, and the dispatcher
reports their commits exactly like its own fleet's.
"""

from __future__ import annotations

import multiprocessing
import signal
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional

from .config import DistConfig
from .leases import LeaseStore, new_owner_id
from .work import WorkSource, rebuild_source
from .worker import drain_on_signals, run_worker

__all__ = [
    "PoisonedWorkError",
    "DistSummary",
    "run_distributed",
]


class PoisonedWorkError(RuntimeError):
    """Work items exhausted their retry budget and were quarantined."""

    def __init__(self, source_name: str, poisoned: Dict[str, Dict[str, object]]):
        self.poisoned = poisoned
        lines = [
            f"{len(poisoned)} work item(s) of {source_name} poisoned after "
            "repeated failures:"
        ]
        for key, record in sorted(poisoned.items()):
            lines.append(
                f"  - {record.get('label', key)} [{key}] "
                f"(attempts={record.get('attempts', '?')}): "
                f"{record.get('last_error', '') or 'no recorded error'}"
            )
        super().__init__("\n".join(lines))


@dataclass
class DistSummary:
    """What the supervision loop observed for one run."""

    workers: int
    worker_deaths: int = 0
    respawns: int = 0
    ran_inline: bool = False
    poisoned: Dict[str, Dict[str, object]] = field(default_factory=dict)


def _fork_context():
    """Fork when the platform offers it (workers inherit the parent's
    registry, so dynamically registered experiments resolve); the
    platform default otherwise — there, only experiments importable via
    ``repro.experiments`` are reachable from workers."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - no fork on this platform
        return multiprocessing.get_context()


def _worker_proc_main(
    source_kind: str, source_args: tuple, cfg: DistConfig, index: int
) -> None:
    """Subprocess entry: one worker loop that SIGTERM drains.

    Receives the source as ``(kind, primitives)`` from
    :meth:`~repro.dist.work.WorkSource.subprocess_payload` and rebuilds
    it here, so a spawn start method (platforms without fork) never has
    to pickle an Experiment object holding user callables.
    """
    source = rebuild_source(source_kind, source_args)
    with drain_on_signals(signal.SIGTERM) as stop:
        run_worker(
            source, cfg, owner=new_owner_id(f"worker{index}"), stop_event=stop
        )


def run_distributed(
    source: WorkSource,
    workers: int = 2,
    cfg: Optional[DistConfig] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> DistSummary:
    """Drive ``source`` to resolution: every item committed or quarantined.

    ``workers >= 2`` runs a supervised fleet of that many processes;
    dead workers are respawned up to ``workers`` times in all (one
    refill per slot), beyond that the fleet degrades, down to the inline
    fallback.  ``workers <= 1`` runs the worker loop inline.

    Attempt and quarantine records of earlier runs are dropped first
    (live leases stay), so every item starts with a fresh retry budget.

    ``progress`` gets one event per item, whoever committed it:
    ``status`` ("cached" when committed before the run started, "done"
    when seen committed during it), ``key``, ``label``, ``index`` (the
    item's position in the source) and ``total``; and a "worker-died"
    event with ``label`` and ``detail`` but no ``index`` per fleet
    process that dies.  Does **not** raise for poisoned items — callers
    inspect ``summary.poisoned`` (each record carries the item's
    ``label``) and decide.

    ``cfg`` defaults to :meth:`DistConfig.from_env`, the settings a
    standalone ``repro worker`` joining the run reads too.
    """
    cfg = DistConfig.from_env() if cfg is None else cfg
    workers = max(1, int(workers))

    store = LeaseStore(source.coordination_dir(), ttl=cfg.lease_ttl)
    store.reset_retries()
    items = source.items()
    reported = set()

    def report(status: str) -> bool:
        """Report items newly seen committed; True once all resolve."""
        poisoned = store.poisoned()
        resolved = True
        for index, item in enumerate(items):
            if item.key in reported:
                continue
            if item.is_done():
                reported.add(item.key)
                if progress is not None:
                    progress(
                        {
                            "status": status,
                            "key": item.key,
                            "label": item.label,
                            "index": index,
                            "total": len(items),
                        }
                    )
            elif item.key not in poisoned:
                resolved = False
        return resolved

    summary = DistSummary(workers=workers)
    if not report("cached"):
        if workers > 1:
            _supervise(source, workers, cfg, summary, report, progress)
        if not report("done"):
            # no fleet (workers <= 1), or every subprocess is gone — dead
            # past the respawn budget — with work left: finish inline
            summary.ran_inline = True
            run_worker(
                source,
                cfg,
                owner=new_owner_id("dispatcher"),
                progress=lambda event: report("done"),
            )
            report("done")

    # only this source's quarantine records: the coordination directory
    # may hold ones keyed for other work (a concurrent build of a
    # different config, whose keys embed a different config hash)
    poisoned = store.poisoned()
    summary.poisoned = {
        item.key: {**poisoned[item.key], "label": item.label}
        for item in items
        if item.key in poisoned
    }
    return summary


def _supervise(
    source: WorkSource,
    workers: int,
    cfg: DistConfig,
    summary: DistSummary,
    report: Callable[[str], bool],
    progress: Optional[Callable[[Dict[str, object]], None]],
) -> None:
    """Run the subprocess fleet until the source resolves or it is gone."""
    ctx = _fork_context()
    source_kind, source_args = source.subprocess_payload()

    def spawn(index: int):
        proc = ctx.Process(
            target=_worker_proc_main,
            args=(source_kind, source_args, cfg, index),
            name=f"repro-dist-worker-{index}",
            daemon=False,
        )
        proc.start()
        return proc

    procs: List[Optional[object]] = [spawn(i) for i in range(workers)]
    try:
        while any(p is not None for p in procs):
            # an exit (clean or not) wakes us at once; otherwise wake
            # each poll interval to report what the fleet committed
            wait(
                [p.sentinel for p in procs if p is not None],
                timeout=cfg.poll_interval,
            )
            for i, proc in enumerate(procs):
                if proc is None or proc.is_alive():
                    continue
                proc.join()
                if proc.exitcode == 0:
                    # clean exit: that worker saw nothing left to claim
                    procs[i] = None
                    continue
                summary.worker_deaths += 1
                if progress is not None:
                    progress(
                        {
                            "status": "worker-died",
                            "label": proc.name,
                            "detail": f"exit code {proc.exitcode}",
                        }
                    )
                if summary.respawns < workers:
                    summary.respawns += 1
                    procs[i] = spawn(i)
                else:
                    procs[i] = None  # degraded: run on with fewer workers
            if report("done"):
                return
    finally:
        for proc in procs:
            if proc is not None and proc.is_alive():
                proc.terminate()  # SIGTERM: workers drain and release
        for proc in procs:
            if proc is not None:
                proc.join()
