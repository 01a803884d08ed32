"""Parallel execution of unit-decomposed experiments.

The paper's headline tables are grids of *independent* trainings —
Table II alone is 13 model configurations — so an experiment that
exposes the unit API (:class:`~repro.runtime.registry.UnitSpec` rows via
``units``/``run_unit``/``merge``) runs each row as one work item of the
lease-based fleet (:mod:`repro.dist`) and caches each one separately::

    runs/<experiment>/<spec_hash[:16]>/
        manifest.json  result.json  report.txt  report.md   (whole run)
        units/<unit_hash[:16]>/
            result.json    the unit's JSON payload
            unit.json      unit manifest — certifies the directory
        .dist/             lease/attempt/quarantine records, while running

``workers >= 2`` spawns that many fleet worker processes; ``workers <=
1`` runs the same worker loop in this process.  Either way, standalone
``repro worker experiment`` processes may join the run mid-flight.

Unit directories are published atomically: :func:`commit_unit` stages
the whole directory under a temp name and renames it into place, so a
worker killed at any instant leaves either no unit directory or a
complete one.  Semantics mirror the run-level cache one level down:

* a unit directory is a **hit** when ``unit.json`` exists, matches the
  unit hash and format version, and ``result.json`` parses; anything
  else (kill mid-unit, truncation, a stale directory from an older
  layout) is a miss for that unit alone;
* each unit's directory is committed as soon as the unit finishes, so a
  grid killed mid-flight resumes from every completed unit;
* a unit that raises retries with backoff; once its retries run out the
  run fails with :class:`~repro.dist.PoisonedWorkError`, and its
  completed siblings keep their unit directories.  The retry budget is
  per run: a rerun after a fix (or a kill) retries that unit;
* every unit result is JSON-roundtripped before it is committed, and the
  merge always reads the committed files, which is what makes
  ``--workers 1``, ``--workers N`` and resumed-after-kill runs produce
  the same ``result.json`` bytes.

The coordination directory ``.dist/`` is removed once every unit is
committed, so a finished run directory holds no trace of how it ran.
Experiments without unit support fall back to the serial runner
(:func:`repro.runtime.runner.execute`) regardless of ``workers``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

from ..utils import atomic_replace_dir
from .registry import ExperimentSpec, UnitSpec, get_experiment
from .runner import (
    RunRecord,
    default_runs_dir,
    execute as execute_serial,
    load_cached_record,
    write_run_artifacts,
)

if TYPE_CHECKING:  # the fleet imports this module's unit-cache seam
    from ..dist import DistConfig

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
#: position in unit order), ``total`` and ``elapsed`` seconds; or a
#: "worker-died" event with no ``index`` (see :func:`repro.dist.run_distributed`).
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
    This is the one commit seam of every fleet worker.
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


def _unit_elapsed(unit_dir: Path) -> float:
    """Worker-measured seconds recorded in a committed unit's manifest."""
    try:
        manifest = json.loads((unit_dir / UNIT_MANIFEST_NAME).read_text())
        return float(manifest["elapsed"])
    except (OSError, ValueError, KeyError, TypeError):
        return 0.0


def execute_parallel(
    name: str,
    spec: Optional[ExperimentSpec] = None,
    runs_dir: Optional[Union[str, Path]] = None,
    workers: int = 1,
    force: bool = False,
    progress: Optional[UnitProgress] = None,
    cfg: Optional[DistConfig] = None,
) -> RunRecord:
    """Run experiment ``name``, its units spread over ``workers``.

    The run-level cache is honoured exactly like the serial path; on a
    miss, committed units are reloaded and only pending units execute,
    on the lease fleet tuned by ``cfg`` (the environment's
    :class:`~repro.dist.DistConfig` when ``None``).  ``force=True``
    discards both cache levels.  Raises
    :class:`~repro.dist.PoisonedWorkError` when a unit exhausts its
    retries.  Experiments without unit support run serially whatever
    ``workers`` says.
    """
    # imported here: repro.dist builds on this module's unit-cache seam
    from ..dist import ExperimentWorkSource, PoisonedWorkError, run_distributed

    if not get_experiment(name).supports_units:
        return execute_serial(name, spec, runs_dir=runs_dir, force=force)
    root = Path(runs_dir) if runs_dir is not None else default_runs_dir()
    source = ExperimentWorkSource(name, spec, root)
    exp, spec, out_dir = source.exp, source.spec, source.out_dir

    start = time.perf_counter()
    if not force:
        cached = load_cached_record(
            name, spec, out_dir, source.digest,
            elapsed=time.perf_counter() - start,
        )
        if cached is not None:
            return cached
    else:
        # --force means recompute everything: drop the unit caches and
        # any coordination state with them
        shutil.rmtree(out_dir / UNITS_DIR_NAME, ignore_errors=True)
        shutil.rmtree(source.coordination_dir(), ignore_errors=True)

    def report(event: Dict[str, object]) -> None:
        if "index" in event:  # a unit, not a fleet process that died
            unit = source.units[event["index"]]
            unit_dir = unit_dir_for(out_dir, source.digests[event["index"]])
            done = event["status"] == "done"
            elapsed = _unit_elapsed(unit_dir) if done else 0.0
            event = {**event, "key": unit.key, "label": unit.label,
                     "elapsed": elapsed}
        progress(event)

    summary = run_distributed(
        source,
        workers=workers,
        cfg=cfg,
        progress=None if progress is None else report,
    )
    if summary.poisoned:
        raise PoisonedWorkError(name, summary.poisoned)
    # every unit is committed: the coordination state is spent.  Drop it
    # so the finished run dir is the same tree whatever ran it
    shutil.rmtree(source.coordination_dir(), ignore_errors=True)

    result_obj = exp.merge(spec, source.unit_results())
    elapsed = time.perf_counter() - start
    return write_run_artifacts(
        exp,
        spec,
        source.digest,
        out_dir,
        result_obj,
        elapsed,
        manifest_extra={
            "units": {
                u.key: d[:16] for u, d in zip(source.units, source.digests)
            },
            "workers": summary.workers,
            "fleet": {
                "worker_deaths": summary.worker_deaths,
                "respawns": summary.respawns,
                "ran_inline": summary.ran_inline,
            },
        },
    )
