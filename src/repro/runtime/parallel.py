"""Process-pool execution of unit-decomposed experiments.

The paper's headline tables are grids of *independent* trainings —
Table II alone is 13 model configurations — so an experiment that
exposes the unit API (:class:`~repro.runtime.registry.UnitSpec` rows via
``units``/``run_unit``/``merge``) can fan those rows out over worker
processes and cache each one separately::

    runs/<experiment>/<spec_hash[:16]>/
        manifest.json  result.json  report.txt  report.md   (whole run)
        units/<unit_hash[:16]>/
            result.json    the unit's JSON payload
            unit.json      unit manifest — certifies the directory

Unit directories are published atomically: :func:`commit_unit` stages
the whole directory under a temp name and renames it into place, so a
worker killed at any instant leaves either no unit directory or a
complete one.  Semantics mirror the run-level cache one level down:

* a unit directory is a **hit** when ``unit.json`` exists, matches the
  unit hash and format version, and ``result.json`` parses; anything
  else (kill mid-unit, truncation, a stale directory from an older
  layout) is a miss for that unit alone;
* workers write their own unit directory *before* reporting back, so a
  grid killed mid-flight resumes from every completed unit;
* every unit result is JSON-roundtripped before merging, so merging
  fresh results and merging reloaded cache files are byte-identical —
  which is what makes ``--workers 1``, ``--workers N`` and
  resumed-after-kill runs produce the same ``result.json`` bytes.

Experiments without unit support fall back to the serial runner
(:func:`repro.runtime.runner.execute`) regardless of ``workers``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..utils import atomic_replace_dir
from .registry import (
    Experiment,
    ExperimentSpec,
    UnitSpec,
    canonical_unit_result,
    get_experiment,
)
from .runner import (
    RunRecord,
    default_runs_dir,
    execute as execute_serial,
    load_cached_record,
    run_dir_for,
    spec_hash,
    write_run_artifacts,
)

__all__ = [
    "UNIT_FORMAT_VERSION",
    "UNITS_DIR_NAME",
    "UNIT_MANIFEST_NAME",
    "UnitProgress",
    "unit_hash",
    "unit_dir_for",
    "load_unit_result",
    "commit_unit",
    "execute_parallel",
]

UNIT_FORMAT_VERSION = 1
UNITS_DIR_NAME = "units"
UNIT_MANIFEST_NAME = "unit.json"
UNIT_RESULT_NAME = "result.json"

#: progress callback: ``fn(event)`` with an event dict holding
#: ``status`` ("cached" | "done"), ``key``, ``label``, ``index`` (0-based
#: position in unit order), ``total`` and ``elapsed`` seconds.
UnitProgress = Callable[[Dict[str, object]], None]


def unit_hash(spec_digest: str, unit: UnitSpec) -> str:
    """Sha256 keying one unit's cache dir inside one run directory."""
    payload = {
        "spec_hash": spec_digest,
        "unit_key": unit.key,
        "unit_format_version": UNIT_FORMAT_VERSION,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def unit_dir_for(out_dir: Union[str, Path], digest: str) -> Path:
    return Path(out_dir) / UNITS_DIR_NAME / digest[:16]


def load_unit_result(
    unit_dir: Path, digest: str
) -> Optional[Dict[str, object]]:
    """The cached result of one unit, or ``None`` (miss).

    Tolerates every partial-state the layout can reach: missing
    directory, missing or truncated ``unit.json``/``result.json``, a
    manifest for a different unit hash or format version.
    """
    try:
        manifest = json.loads((unit_dir / UNIT_MANIFEST_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(manifest, dict):
        return None
    if (
        manifest.get("unit_hash") != digest
        or manifest.get("unit_format_version") != UNIT_FORMAT_VERSION
        or manifest.get("status") != "complete"
    ):
        return None
    try:
        result = json.loads((unit_dir / UNIT_RESULT_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return result if isinstance(result, dict) else None


def commit_unit(
    unit_dir: Path,
    unit: UnitSpec,
    digest: str,
    result: Dict[str, object],
    elapsed: float,
) -> None:
    """Atomically publish one completed unit directory.

    The whole directory (result + certifying manifest) is staged under a
    writer-unique temp name and renamed into place in one step, so a
    ``kill -9`` at any instant leaves either no unit directory or a
    complete one — never the truncated ``result.json`` states the cache
    reader has to defend against.  A stale target (e.g. a torn partial
    from a legacy in-place writer) is cleared by the rename helper.
    This is the one commit seam shared by the in-process pool executor
    and the distributed lease-based workers.
    """
    unit_dir = Path(unit_dir)
    unit_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = unit_dir.parent / f".{unit_dir.name}.{os.getpid()}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.mkdir()
        (tmp / UNIT_RESULT_NAME).write_text(
            json.dumps(result, sort_keys=True, indent=2) + "\n"
        )
        (tmp / UNIT_MANIFEST_NAME).write_text(
            json.dumps(
                {
                    "unit_format_version": UNIT_FORMAT_VERSION,
                    "unit_hash": digest,
                    "key": unit.key,
                    "title": unit.title,
                    "params": unit.params_dict(),
                    "status": "complete",
                    "elapsed": elapsed,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
        atomic_replace_dir(tmp, unit_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _pool_context():
    """Fork when the platform offers it (workers inherit the parent's
    registry, so dynamically registered experiments resolve); the
    platform default otherwise — there, only experiments importable via
    ``repro.experiments`` are reachable from workers."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - no fork on this platform
        return multiprocessing.get_context()


def _run_one_unit(
    name: str,
    spec: ExperimentSpec,
    unit: UnitSpec,
    digest: str,
    unit_dir_str: str,
) -> "tuple[Dict[str, object], float]":
    """Worker entry point: execute one unit and persist its cache dir.

    Module-level (not a closure) so a process pool can pickle it; the
    experiment is re-looked-up by name inside the worker.  Returns the
    canonical result plus the worker-measured elapsed seconds (queue
    wait excluded).
    """
    exp = get_experiment(name)
    start = time.perf_counter()
    result = canonical_unit_result(exp.run_unit(spec, unit))
    elapsed = time.perf_counter() - start
    commit_unit(Path(unit_dir_str), unit, digest, result, elapsed)
    return result, elapsed


def execute_parallel(
    name: str,
    spec: Optional[ExperimentSpec] = None,
    runs_dir: Optional[Union[str, Path]] = None,
    workers: int = 1,
    force: bool = False,
    progress: Optional[UnitProgress] = None,
) -> RunRecord:
    """Run experiment ``name``, fanning its units over ``workers``.

    The run-level cache is honoured exactly like the serial path; on a
    miss, cached units are reloaded and only pending units execute —
    in-process when ``workers <= 1``, on a process pool otherwise.
    ``force=True`` discards both cache levels.  Experiments without unit
    support run serially whatever ``workers`` says.
    """
    exp: Experiment = get_experiment(name)
    spec = exp.validate_spec(spec)
    if not exp.supports_units:
        return execute_serial(name, spec, runs_dir=runs_dir, force=force)

    digest = spec_hash(name, spec)
    root = Path(runs_dir) if runs_dir is not None else default_runs_dir()
    out_dir = run_dir_for(root, name, digest)

    start = time.perf_counter()
    if not force:
        cached = load_cached_record(
            name, spec, out_dir, digest, elapsed=time.perf_counter() - start
        )
        if cached is not None:
            return cached
    elif (out_dir / UNITS_DIR_NAME).is_dir():
        # --force means recompute everything: drop the unit caches too
        shutil.rmtree(out_dir / UNITS_DIR_NAME, ignore_errors=True)

    units = exp.units(spec)
    total = len(units)
    digests = [unit_hash(digest, u) for u in units]
    dirs = [unit_dir_for(out_dir, d) for d in digests]

    results: List[Optional[Dict[str, object]]] = [None] * total
    pending: List[int] = []
    for i, (unit, u_digest, u_dir) in enumerate(zip(units, digests, dirs)):
        cached_unit = load_unit_result(u_dir, u_digest)
        if cached_unit is not None:
            results[i] = cached_unit
            if progress is not None:
                progress(
                    {
                        "status": "cached",
                        "key": unit.key,
                        "label": unit.label,
                        "index": i,
                        "total": total,
                        "elapsed": 0.0,
                    }
                )
        else:
            pending.append(i)

    def report(i: int, elapsed: float) -> None:
        if progress is not None:
            progress(
                {
                    "status": "done",
                    "key": units[i].key,
                    "label": units[i].label,
                    "index": i,
                    "total": total,
                    "elapsed": elapsed,
                }
            )

    if pending and workers <= 1:
        for i in pending:
            results[i], unit_elapsed = _run_one_unit(
                name, spec, units[i], digests[i], str(dirs[i])
            )
            report(i, unit_elapsed)
    elif pending:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=_pool_context(),
        ) as pool:
            submitted = {
                pool.submit(
                    _run_one_unit,
                    name,
                    spec,
                    units[i],
                    digests[i],
                    str(dirs[i]),
                ): i
                for i in pending
            }
            outstanding = set(submitted)
            while outstanding:
                finished, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    i = submitted[future]
                    # a failed unit raises here; completed siblings keep
                    # their cache dirs, so the re-run resumes from them
                    results[i], unit_elapsed = future.result()
                    report(i, unit_elapsed)

    result_obj = exp.merge(spec, results)
    elapsed = time.perf_counter() - start
    return write_run_artifacts(
        exp,
        spec,
        digest,
        out_dir,
        result_obj,
        elapsed,
        manifest_extra={
            "units": {u.key: d[:16] for u, d in zip(units, digests)},
            "workers": workers,
        },
    )
