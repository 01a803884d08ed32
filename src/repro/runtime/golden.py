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

``repro experiment capture`` runs the experiment and writes the fixture;
``repro experiment verify`` re-runs it at fixture scale and fails when
any metric drifts beyond its committed absolute tolerance — or when a
committed metric has vanished from the result, which cannot be
certified.  Fixtures are plain JSON and meant to be committed, so CI
gates accuracy trajectories on every change.

Schema validation is strict and total: a corrupted, truncated,
wrong-version or hand-edited fixture (whose spec no longer reproduces
its recorded hash — *stale*) raises :class:`GoldenError` with a message
naming the file and the defect, never a bare ``KeyError`` deep in the
verify loop.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..utils import atomic_write_text as _write_text
from .compare import label_and_metric_keys
from .parallel import UnitProgress, execute_parallel
from .registry import ExperimentSpec, get_experiment, spec_from_json
from .runner import RunRecord, spec_dict, spec_hash_from_dict

__all__ = [
    "GOLDEN_FORMAT_VERSION",
    "GoldenError",
    "GoldenMetric",
    "Golden",
    "GoldenCheck",
    "GoldenReport",
    "default_goldens_dir",
    "golden_path",
    "list_golden_paths",
    "result_metrics",
    "default_tolerance",
    "capture_golden",
    "write_golden",
    "load_golden",
    "verify_golden",
    "render_report_text",
    "render_report_markdown",
]

GOLDEN_FORMAT_VERSION = 1

#: default tolerance derivation for float metrics: max(floor, rel * |v|).
#: Wide enough to absorb BLAS/platform noise on trained-model metrics,
#: tight enough that a real accuracy regression trips the gate.
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
    tolerance_policy: Dict[str, float] = field(default_factory=dict)
    path: Optional[Path] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "golden_format_version": GOLDEN_FORMAT_VERSION,
            "experiment": self.experiment,
            "spec": self.spec,
            "spec_hash": self.spec_hash,
            "tolerance_policy": self.tolerance_policy,
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


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def result_metrics(
    rows: List[Dict[str, object]],
) -> List[Tuple[str, str, float]]:
    """``(row_label, metric, value)`` triples of a result's numeric cells.

    Uses the same label/metric column split as ``experiment compare``,
    so a fixture and a diff address a metric by identical coordinates.
    """
    # canonicalise key order first: capture sees fresh in-memory rows
    # while verify may see rows reloaded from a sort_keys result.json,
    # and both must derive identical (row, metric) coordinates
    rows = [{k: row[k] for k in sorted(row)} for row in rows]
    label_keys, metric_keys = label_and_metric_keys(rows)
    seen: Dict[str, int] = {}
    out: List[Tuple[str, str, float]] = []
    for row in rows:
        label = " / ".join(str(row.get(k)) for k in label_keys)
        n = seen.get(label, 0)
        seen[label] = n + 1
        if n:
            label = f"{label} #{n + 1}"
        for metric in metric_keys:
            value = row.get(metric)
            if _is_numeric(value):
                out.append((label, metric, value))
    return out


def default_tolerance(
    value: float,
    rel: float = DEFAULT_REL_TOLERANCE,
    floor: float = DEFAULT_ABS_FLOOR,
) -> float:
    """Absolute drift limit for one metric value.

    Integer metrics (counts, ranks) must reproduce exactly; float
    metrics get ``max(floor, rel * |value|)`` so near-zero values keep a
    usable window.
    """
    if isinstance(value, int):
        return 0.0
    return max(floor, rel * abs(value))


def capture_golden(
    record: RunRecord,
    rel: float = DEFAULT_REL_TOLERANCE,
    floor: float = DEFAULT_ABS_FLOOR,
    overrides: Optional[Dict[str, float]] = None,
) -> Golden:
    """Freeze a run record's metrics into a :class:`Golden`.

    ``overrides`` maps a metric name (or ``"row:metric"``) to an explicit
    absolute tolerance, taking precedence over the derived default.
    """
    rows = record.result.get("rows")
    if not isinstance(rows, list) or not rows:
        raise GoldenError(
            f"run {record.out_dir} has no result rows to capture"
        )
    triples = result_metrics([r for r in rows if isinstance(r, dict)])
    if not triples:
        raise GoldenError(
            f"run {record.out_dir} has no numeric metrics to capture"
        )
    overrides = overrides or {}
    metrics = []
    for row, metric, value in triples:
        tolerance = overrides.get(f"{row}:{metric}", overrides.get(metric))
        if tolerance is None:
            tolerance = default_tolerance(value, rel=rel, floor=floor)
        metrics.append(
            GoldenMetric(
                row=row,
                metric=metric,
                value=value,
                tolerance=float(tolerance),
            )
        )
    return Golden(
        experiment=record.experiment,
        spec=record.spec,
        spec_hash=record.spec_hash,
        metrics=metrics,
        tolerance_policy={"rel": rel, "floor": floor},
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
    malformed metric entries, and a stale spec hash (the recorded spec
    no longer hashes to the recorded ``spec_hash`` — the fixture was
    hand-edited or the run format changed; re-baseline it).
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
            _is_numeric(value),
            path,
            f"metrics[{i}] ({row}/{metric}) has a non-numeric 'value'",
        )
        _require(
            _is_numeric(tolerance) and tolerance >= 0,
            path,
            f"metrics[{i}] ({row}/{metric}) needs a tolerance >= 0",
        )
        metrics.append(GoldenMetric(row, metric, value, float(tolerance)))
    recomputed = spec_hash_from_dict(experiment, spec)
    _require(
        recomputed == digest,
        path,
        f"stale spec hash: the recorded spec hashes to "
        f"{recomputed[:16]}, not {digest[:16]} — the fixture was edited "
        f"or the run format changed; re-baseline with "
        f"'repro experiment capture {experiment}'",
    )
    policy = data.get("tolerance_policy")
    return Golden(
        experiment=experiment,
        spec=spec,
        spec_hash=digest,
        metrics=metrics,
        tolerance_policy=policy if isinstance(policy, dict) else {},
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


@dataclass
class GoldenCheck:
    """One metric's verification outcome."""

    row: str
    metric: str
    golden: float
    tolerance: float
    new: Optional[float]  # None when the metric vanished from the result
    status: str  # "ok" | "drift" | "missing"

    @property
    def delta(self) -> Optional[float]:
        return None if self.new is None else self.new - self.golden


@dataclass
class GoldenReport:
    """Verification of one fixture against a fresh run."""

    golden: Golden
    record: RunRecord
    checks: List[GoldenCheck]

    @property
    def passed(self) -> bool:
        return all(c.status == "ok" for c in self.checks)

    @property
    def failures(self) -> List[GoldenCheck]:
        return [c for c in self.checks if c.status != "ok"]

    def to_json(self) -> Dict[str, object]:
        return {
            "experiment": self.golden.experiment,
            "fixture": str(self.golden.path) if self.golden.path else None,
            "run_dir": str(self.record.out_dir),
            "passed": self.passed,
            "checks": [
                {
                    "row": c.row,
                    "metric": c.metric,
                    "golden": c.golden,
                    "new": c.new,
                    "delta": c.delta,
                    "tolerance": c.tolerance,
                    "status": c.status,
                }
                for c in self.checks
            ],
        }


def verify_golden(
    golden: Golden,
    runs_dir: Optional[Union[str, Path]] = None,
    workers: int = 1,
    force: bool = False,
    progress: Optional[UnitProgress] = None,
) -> GoldenReport:
    """Re-run a fixture's experiment and check every committed metric.

    The run goes through the normal cached/parallel executor, so a
    verify immediately after a capture is a cache hit (byte-identical by
    construction) and a CI verify from a clean checkout is a real re-run
    at fixture scale.  A metric drifts when ``|new - golden|`` exceeds
    its committed tolerance; a committed metric absent from the fresh
    result is a failure in its own right (status ``missing``).
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
    rows = record.result.get("rows")
    fresh = {
        (row, metric): value
        for row, metric, value in result_metrics(
            [r for r in rows if isinstance(r, dict)]
            if isinstance(rows, list)
            else []
        )
    }
    checks: List[GoldenCheck] = []
    for m in golden.metrics:
        new = fresh.get((m.row, m.metric))
        if new is None:
            status = "missing"
        elif abs(new - m.value) <= m.tolerance:
            status = "ok"
        else:
            status = "drift"
        checks.append(
            GoldenCheck(
                row=m.row,
                metric=m.metric,
                golden=m.value,
                tolerance=m.tolerance,
                new=new,
                status=status,
            )
        )
    return GoldenReport(golden=golden, record=record, checks=checks)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _report_rows(report: GoldenReport) -> List[List[str]]:
    return [
        [
            c.row,
            c.metric,
            _fmt(c.golden),
            _fmt(c.new),
            _fmt(c.delta),
            _fmt(c.tolerance),
            c.status.upper() if c.status != "ok" else "ok",
        ]
        for c in report.checks
    ]


_REPORT_HEADERS = ["row", "metric", "golden", "new", "delta", "limit", "status"]


def render_report_text(report: GoldenReport) -> str:
    from ..experiments.common import format_rows

    verdict = "PASS" if report.passed else "FAIL"
    title = (
        f"verify {report.golden.experiment} "
        f"[{report.golden.spec_hash[:12]}]: {verdict}"
    )
    return format_rows(_REPORT_HEADERS, _report_rows(report), title=title)


def render_report_markdown(report: GoldenReport) -> str:
    verdict = "PASS" if report.passed else "FAIL"
    lines = [
        f"# verify {report.golden.experiment}: {verdict}",
        "",
        f"- fixture: `{report.golden.path}`",
        f"- run: `{report.record.out_dir}`",
        "",
        "| " + " | ".join(_REPORT_HEADERS) + " |",
        "| " + " | ".join("---" for _ in _REPORT_HEADERS) + " |",
    ]
    for row in _report_rows(report):
        lines.append(
            "| " + " | ".join(c.replace("|", "\\|") for c in row) + " |"
        )
    return "\n".join(lines)
