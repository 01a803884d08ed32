"""Golden-result fixtures: committed metrics with a drift gate.

The repository benchmark (``perfbench/``) gates *speed* against the
bounds in ``BENCHMARK.json``; this module gates *accuracy*.  A **golden
fixture** freezes the canonical metrics of one registered experiment at
one exact spec::

    goldens/<experiment>/<spec_hash[:16]>.json
        golden_format_version   schema version (validated on load)
        experiment, spec        what to re-run
        spec_hash               full hash the spec must still produce
        tolerance_policy        how default tolerances were derived
        metrics                 [{row, metric, value, tolerance}, ...]

``repro experiment capture`` runs the experiment and writes one entry
per cell of its cell map (:func:`repro.runtime.compare.result_metrics`:
every finite numeric cell; NaN and ±inf cells are not metrics).
Integers get limit 0; floats ``max(0.05, 0.25 * |value|)``
(:func:`default_tolerance`), unless a ``--tolerance`` override names
the metric or ``row:metric``; an override that names no captured
metric is an error.

``repro experiment verify`` re-runs the experiment at fixture scale and
*is* ``repro experiment compare``
(:func:`~repro.runtime.compare.compare_results`): run a is the fixture
(the committed values), run b the fresh run, gated by
:func:`~repro.runtime.compare.apply_tolerances` with each committed
limit under its ``row:metric`` key.  A metric fails as ``drift`` when
``|b - a|`` exceeds its limit and as ``missing`` when the fresh run has
no finite value for it, which cannot be certified.  Fixtures are plain
JSON and meant to be committed, so CI gates accuracy trajectories on
every change.

Schema validation is strict and total: a corrupted, truncated,
wrong-version or hand-edited fixture (whose spec no longer reproduces
its recorded hash — *stale*) raises :class:`GoldenError` with a message
naming the file and the defect, never a bare ``KeyError`` mid-verify.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..utils import atomic_write_text as _write_text
from .compare import (
    RunResult,
    apply_tolerances,
    check_limit,
    compare_results,
    is_finite_number,
    result_metrics,
    tolerance_for,
    unmatched_tolerances,
)
from .parallel import UnitProgress, execute_parallel
from .registry import ExperimentSpec, get_experiment, spec_from_json
from .runner import RunRecord, spec_hash_from_dict

__all__ = [
    "GOLDEN_FORMAT_VERSION",
    "GoldenError",
    "GoldenMetric",
    "Golden",
    "default_goldens_dir",
    "golden_path",
    "list_golden_paths",
    "default_tolerance",
    "capture_golden",
    "write_golden",
    "load_golden",
    "verify_golden",
]

GOLDEN_FORMAT_VERSION = 1

#: default tolerance derivation for float metrics: max(floor, rel * |v|).
#: Wide enough to absorb BLAS/platform noise on trained-model metrics,
#: tight enough that a real accuracy regression trips the gate.  Every
#: fixture records them as its ``tolerance_policy``.
DEFAULT_REL_TOLERANCE = 0.25
DEFAULT_ABS_FLOOR = 0.05


class GoldenError(ValueError):
    """A golden fixture failed schema validation or cannot be verified."""


@dataclass(frozen=True)
class GoldenMetric:
    """One frozen metric: a (row, metric) coordinate, value and limit."""

    row: str
    metric: str
    value: float
    tolerance: float


@dataclass
class Golden:
    """One loaded fixture (schema-validated)."""

    experiment: str
    spec: Dict[str, object]
    spec_hash: str
    metrics: List[GoldenMetric]
    path: Optional[Path] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "golden_format_version": GOLDEN_FORMAT_VERSION,
            "experiment": self.experiment,
            "spec": self.spec,
            "spec_hash": self.spec_hash,
            "tolerance_policy": {
                "rel": DEFAULT_REL_TOLERANCE,
                "floor": DEFAULT_ABS_FLOOR,
            },
            "metrics": [
                {
                    "row": m.row,
                    "metric": m.metric,
                    "value": m.value,
                    "tolerance": m.tolerance,
                }
                for m in self.metrics
            ],
        }


def default_goldens_dir() -> Path:
    """``REPRO_GOLDENS_DIR`` env var, else ``./goldens``."""
    return Path(os.environ.get("REPRO_GOLDENS_DIR") or "goldens")


def golden_path(
    goldens_dir: Union[str, Path], experiment: str, digest: str
) -> Path:
    return Path(goldens_dir) / experiment / f"{digest[:16]}.json"


def list_golden_paths(
    goldens_dir: Optional[Union[str, Path]] = None,
) -> List[Path]:
    """Every ``<experiment>/<hash>.json`` fixture under the goldens root."""
    root = Path(goldens_dir) if goldens_dir is not None else default_goldens_dir()
    if not root.is_dir():
        return []
    return sorted(root.glob("*/*.json"))


# ---------------------------------------------------------------------------
# metric extraction and capture
# ---------------------------------------------------------------------------


def default_tolerance(value: float) -> float:
    """Absolute drift limit for one metric value.

    Integer metrics (counts, ranks) must reproduce exactly; float
    metrics get ``max(DEFAULT_ABS_FLOOR, DEFAULT_REL_TOLERANCE * |value|)``
    so near-zero values keep a usable window.
    """
    if isinstance(value, int):
        return 0.0
    return max(DEFAULT_ABS_FLOOR, DEFAULT_REL_TOLERANCE * abs(value))


def capture_golden(
    record: RunRecord, overrides: Optional[Dict[str, float]] = None
) -> Golden:
    """Freeze a run record's metrics into a :class:`Golden`.

    ``overrides`` is a tolerance table as ``compare --tolerances`` reads
    one: a metric name or ``"row:metric"`` (the more specific key wins)
    mapped to an absolute limit that replaces :func:`default_tolerance`.
    A key that names no captured metric raises :class:`GoldenError`, as
    ``compare --tolerances`` reports it ``missing``.
    """
    rows = RunResult(record.out_dir, record.result).rows
    if not rows:
        raise GoldenError(
            f"run {record.out_dir} has no result rows to capture"
        )
    cells = result_metrics(rows)
    if not cells:
        raise GoldenError(
            f"run {record.out_dir} has no numeric metrics to capture"
        )
    overrides = overrides or {}
    unmatched = unmatched_tolerances(overrides, cells)
    if unmatched:
        raise GoldenError(
            f"tolerance override {', '.join(map(repr, unmatched))} names "
            f"no metric of {record.experiment}"
        )
    metrics = []
    for (row, metric), value in cells.items():
        tolerance = tolerance_for(overrides, row, metric)
        if tolerance is None:
            tolerance = default_tolerance(value)
        metrics.append(GoldenMetric(row, metric, value, float(tolerance)))
    return Golden(
        experiment=record.experiment,
        spec=record.spec,
        spec_hash=record.spec_hash,
        metrics=metrics,
    )


def write_golden(
    golden: Golden, goldens_dir: Optional[Union[str, Path]] = None
) -> Path:
    """Write a fixture to its canonical path under the goldens root."""
    root = Path(goldens_dir) if goldens_dir is not None else default_goldens_dir()
    path = golden_path(root, golden.experiment, golden.spec_hash)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_text(
        path, json.dumps(golden.to_json(), sort_keys=True, indent=2) + "\n"
    )
    golden.path = path
    return path


# ---------------------------------------------------------------------------
# loading + schema validation
# ---------------------------------------------------------------------------


def _require(condition: bool, path: Path, problem: str) -> None:
    if not condition:
        raise GoldenError(f"golden fixture {path}: {problem}")


def load_golden(path: Union[str, Path]) -> Golden:
    """Load and fully validate one fixture.

    Raises :class:`GoldenError` naming the defect for every reachable
    bad state: unreadable file, invalid/truncated JSON, non-object
    payload, unsupported format version, missing or mistyped fields,
    malformed metric entries (a non-finite ``value`` or ``tolerance``
    included), and a stale spec hash (the recorded spec no longer hashes
    to the recorded ``spec_hash`` — the fixture was hand-edited or the
    run format changed; re-baseline it).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise GoldenError(f"golden fixture {path}: unreadable ({exc})")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GoldenError(
            f"golden fixture {path}: invalid JSON ({exc}); the file is "
            f"corrupt or truncated"
        )
    _require(isinstance(data, dict), path, "payload is not a JSON object")
    version = data.get("golden_format_version")
    _require(
        version == GOLDEN_FORMAT_VERSION,
        path,
        f"unsupported golden_format_version {version!r} "
        f"(expected {GOLDEN_FORMAT_VERSION})",
    )
    experiment = data.get("experiment")
    _require(
        isinstance(experiment, str) and bool(experiment),
        path,
        "missing or non-string 'experiment'",
    )
    spec = data.get("spec")
    _require(isinstance(spec, dict), path, "missing or non-object 'spec'")
    digest = data.get("spec_hash")
    _require(
        isinstance(digest, str) and len(digest) == 64,
        path,
        "missing or malformed 'spec_hash' (need the full 64-char sha256)",
    )
    raw_metrics = data.get("metrics")
    _require(
        isinstance(raw_metrics, list) and bool(raw_metrics),
        path,
        "missing or empty 'metrics' list",
    )
    metrics: List[GoldenMetric] = []
    for i, entry in enumerate(raw_metrics):
        _require(
            isinstance(entry, dict), path, f"metrics[{i}] is not an object"
        )
        row, metric = entry.get("row"), entry.get("metric")
        value, tolerance = entry.get("value"), entry.get("tolerance")
        _require(
            isinstance(row, str) and isinstance(metric, str),
            path,
            f"metrics[{i}] needs string 'row' and 'metric'",
        )
        _require(
            is_finite_number(value),
            path,
            f"metrics[{i}] ({row}/{metric}) needs a finite numeric "
            f"'value', got {value!r}",
        )
        try:
            tolerance = check_limit(f"{row}:{metric}", tolerance)
        except ValueError as exc:
            raise GoldenError(f"golden fixture {path}: metrics[{i}]: {exc}")
        metrics.append(GoldenMetric(row, metric, value, tolerance))
    recomputed = spec_hash_from_dict(experiment, spec)
    _require(
        recomputed == digest,
        path,
        f"stale spec hash: the recorded spec hashes to "
        f"{recomputed[:16]}, not {digest[:16]} — the fixture was edited "
        f"or the run format changed; re-baseline with "
        f"'repro experiment capture {experiment}'",
    )
    return Golden(
        experiment=experiment,
        spec=spec,
        spec_hash=digest,
        metrics=metrics,
        path=path,
    )


def golden_spec(golden: Golden) -> ExperimentSpec:
    """Rebuild the experiment spec a fixture was captured at.

    Fails with :class:`GoldenError` when the experiment is no longer
    registered or the spec names fields the current spec type lacks —
    both mean the fixture is stale relative to the code.
    """
    try:
        exp = get_experiment(golden.experiment)
    except KeyError as exc:
        raise GoldenError(
            f"golden fixture {golden.path}: {exc.args[0]}"
        )
    try:
        return spec_from_json(exp.spec_type, golden.spec)
    except (TypeError, ValueError) as exc:
        raise GoldenError(
            f"golden fixture {golden.path}: spec does not fit "
            f"{exp.spec_type.__name__} ({exc}); re-baseline the fixture"
        )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_golden(
    golden: Golden,
    runs_dir: Optional[Union[str, Path]] = None,
    workers: int = 1,
    force: bool = False,
    progress: Optional[UnitProgress] = None,
) -> Dict[str, object]:
    """Re-run a fixture's experiment and compare it against the fixture.

    The run goes through the normal cached/parallel executor, so a
    verify immediately after a capture is a cache hit (byte-identical by
    construction) and a CI verify from a clean checkout is a real re-run
    at fixture scale.  Returns a gated ``compare`` diff (see
    :func:`~repro.runtime.compare.compare_results` and
    :func:`~repro.runtime.compare.apply_tolerances`) whose run a is the
    fixture and run b the fresh run; the fixture passes when its
    ``violations`` list is empty.
    """
    spec = golden_spec(golden)
    record = execute_parallel(
        golden.experiment,
        spec,
        runs_dir=runs_dir,
        workers=workers,
        force=force,
        progress=progress,
    )
    diff = compare_results(
        RunResult(golden.path, {"experiment": golden.experiment}),
        RunResult(record.out_dir, record.result),
        cells_a={(m.row, m.metric): m.value for m in golden.metrics},
    )
    return apply_tolerances(
        diff, {f"{m.row}:{m.metric}": m.tolerance for m in golden.metrics}
    )
