"""Diff the result metrics of two cached experiment runs.

``repro experiment compare <run-a> <run-b>`` matches the rows of two
``result.json`` files by their label fields (the non-numeric columns:
model name, suite, ablation variant, …) and diffs every metric cell —
absolute delta and percent change — rendering the outcome as plain text,
a markdown pipe table, or JSON.

A result's metrics form a **cell map**, ``(row label, metric) -> value``
(:func:`result_metrics`): one entry per cell of a numeric column that
holds a finite number.  NaN and ±inf are not metrics — a row the paper
has no figure for carries ``paper_error`` NaN — so such a cell is simply
absent.  :func:`compare_results` diffs the cell maps of two runs — or
of committed cells and a run: a golden fixture's ``verify`` is this
diff with the fixture as run a and the fresh run as run b (see
:mod:`repro.runtime.golden`).

With a tolerance table (``--tolerances limits.json``) the diff becomes
an accuracy-trajectory gate: every matched metric gains an absolute
drift ``limit`` (a finite number >= 0, :func:`check_limit`) and a
pass/fail status (drift when ``|b - a|`` exceeds the limit), and
``--fail-on-drift`` turns any violation — including a tolerance whose
cell is *missing* from the diff, which cannot be certified — into a
non-zero exit.

Runs are addressed by their run directory (``runs/table2/<hash>``),
either as a filesystem path or relative to the runs root, so the output
of ``repro experiment run`` (which prints the directory) pipes straight
into ``compare``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .registry import markdown_table
from .runner import MANIFEST_NAME, default_runs_dir

__all__ = [
    "RunResult",
    "load_run_result",
    "resolve_run_dir",
    "label_and_metric_keys",
    "result_metrics",
    "compare_results",
    "check_limit",
    "load_tolerances",
    "tolerance_for",
    "unmatched_tolerances",
    "apply_tolerances",
    "render_text",
    "render_markdown",
]

_RESULT_NAME = "result.json"


class RunResult:
    """One loaded run: its directory, result payload and manifest."""

    def __init__(
        self,
        out_dir: Path,
        result: Dict[str, object],
        manifest: Optional[Dict[str, object]] = None,
    ):
        self.out_dir = out_dir
        self.result = result
        self.manifest = manifest or {}

    @property
    def experiment(self) -> str:
        return str(
            self.result.get("experiment")
            or self.manifest.get("experiment")
            or "?"
        )

    @property
    def rows(self) -> List[Dict[str, object]]:
        rows = self.result.get("rows")
        return [r for r in rows if isinstance(r, dict)] if isinstance(
            rows, list
        ) else []


def resolve_run_dir(
    ref: Union[str, Path], runs_dir: Optional[Union[str, Path]] = None
) -> Path:
    """Map a run reference to its directory.

    Accepts a directory path, or a ``<experiment>/<hash-prefix>`` form
    resolved under the runs root (unique-prefix matching, so the 12-char
    hash printed by ``experiment run`` works verbatim).  When a runs
    root is given explicitly, relative references resolve under it
    *first*, so a same-named directory in the CWD cannot shadow the
    requested run.
    """
    path = Path(ref)
    explicit_root = runs_dir is not None
    if path.is_dir() and (path.is_absolute() or not explicit_root):
        return path
    root = Path(runs_dir) if explicit_root else default_runs_dir()
    candidate = root / ref
    if candidate.is_dir():
        return candidate
    parts = Path(ref).parts
    if len(parts) == 2:
        name, prefix = parts
        matches = sorted(
            d
            for d in (root / name).glob(f"{prefix}*")
            if d.is_dir()
        ) if (root / name).is_dir() else []
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise FileNotFoundError(
                f"run reference {ref!r} is ambiguous under {root}: "
                f"{[d.name for d in matches]}"
            )
    if explicit_root and path.is_dir():
        return path
    raise FileNotFoundError(
        f"no run directory for {ref!r} (looked at {path} and under {root})"
    )


def load_run_result(
    ref: Union[str, Path], runs_dir: Optional[Union[str, Path]] = None
) -> RunResult:
    """Load a run's ``result.json`` (and manifest, when readable)."""
    out_dir = resolve_run_dir(ref, runs_dir)
    try:
        result = json.loads((out_dir / _RESULT_NAME).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{out_dir} has no readable {_RESULT_NAME}: {exc}")
    if not isinstance(result, dict):
        raise ValueError(f"{out_dir}/{_RESULT_NAME} is not a JSON object")
    try:
        manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        manifest = None
    return RunResult(
        out_dir, result, manifest if isinstance(manifest, dict) else None
    )


#: one result's metrics: ``(row label, metric) -> value``
Cells = Dict[Tuple[str, str], float]


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite_number(value: object) -> bool:
    """A metric value: a number that is not a bool, NaN or ±inf."""
    return _is_numeric(value) and (
        isinstance(value, int) or math.isfinite(value)
    )


#: canonical row-identifier columns used across the built-in
#: experiments, tried before any other non-numeric column when
#: collapsing the label to a single identifying key
_PREFERRED_LABELS = ("design", "suite", "model", "ablation", "name", "row")


def _labelled_rows(
    rows: List[Dict[str, object]], label_keys: List[str]
) -> Dict[str, Dict[str, object]]:
    """Rows keyed by label; duplicate labels get a ``#k`` suffix so no
    row silently vanishes from the diff (duplicates pair positionally
    between the two runs)."""
    seen: Dict[str, int] = {}
    out: Dict[str, Dict[str, object]] = {}
    for row in rows:
        label = _row_label(row, label_keys)
        n = seen.get(label, 0)
        seen[label] = n + 1
        out[label if n == 0 else f"{label} #{n + 1}"] = row
    return out


def _row_label(row: Dict[str, object], label_keys: List[str]) -> str:
    # .get: comparing runs of *different* experiments is allowed (the
    # CLI warns and proceeds), and their rows need not share columns —
    # unmatched labels then land in only_in_a/only_in_b instead of
    # crashing the diff
    return " / ".join(str(row.get(k)) for k in label_keys)


def label_and_metric_keys(
    rows_a: List[Dict[str, object]],
    rows_b: Optional[List[Dict[str, object]]] = None,
) -> Tuple[List[str], List[str]]:
    """Split result-row columns into label keys and numeric metric keys.

    Labels are the non-numeric columns shared by every row (collapsed to
    one column when it already identifies each row uniquely); everything
    else numeric is a metric.  Shared by run diffs and golden-fixture
    extraction so both address a metric by the same ``(row, metric)``
    coordinates.
    """
    rows_b = rows_b if rows_b is not None else rows_a
    keys_a = set().union(*(r.keys() for r in rows_a)) if rows_a else set()
    keys_b = set().union(*(r.keys() for r in rows_b)) if rows_b else set()
    shared = keys_a & keys_b
    sample = (rows_a + rows_b)[:1]
    first_keys = list(sample[0].keys()) if sample else []
    label_keys = [
        k
        for k in first_keys
        if k in shared
        and all(not _is_numeric(r.get(k)) for r in rows_a + rows_b)
    ] or first_keys[:1]
    # one label column is enough when it already identifies every row;
    # scan candidates in a fixed preference order so the chosen
    # coordinate does not depend on row dict key order (fresh in-memory
    # rows vs rows reloaded from a sort_keys result.json)
    ordered = sorted(
        label_keys,
        key=lambda k: (
            _PREFERRED_LABELS.index(k)
            if k in _PREFERRED_LABELS
            else len(_PREFERRED_LABELS),
            k,
        ),
    )
    for key in ordered:
        if len({str(r.get(key)) for r in rows_a}) == len(rows_a) and len(
            {str(r.get(key)) for r in rows_b}
        ) == len(rows_b):
            label_keys = [key]
            break
    metric_keys = [
        k
        for k in first_keys
        if k in shared
        and k not in label_keys
        and any(_is_numeric(r.get(k)) for r in rows_a + rows_b)
    ]
    return label_keys, metric_keys


def _cells(
    labelled: Dict[str, Dict[str, object]], metric_keys: List[str]
) -> Cells:
    return {
        (label, metric): row[metric]
        for label, row in labelled.items()
        for metric in metric_keys
        if is_finite_number(row.get(metric))
    }


def _split_rows(
    rows: List[Dict[str, object]],
) -> Tuple[List[str], List[str], Dict[str, Dict[str, object]]]:
    """One result's label keys, metric keys and labelled rows."""
    # canonicalise key order first: capture sees fresh in-memory rows
    # while verify may see rows reloaded from a sort_keys result.json,
    # and both must derive identical (row, metric) coordinates
    rows = [{k: row[k] for k in sorted(row)} for row in rows]
    label_keys, metric_keys = label_and_metric_keys(rows)
    return label_keys, metric_keys, _labelled_rows(rows, label_keys)


def result_metrics(rows: List[Dict[str, object]]) -> Cells:
    """The cell map of one result, as a golden fixture addresses it.

    Uses the same label/metric column split and duplicate-label suffixes
    as :func:`compare_results`, so a fixture and a diff name a metric by
    identical coordinates.
    """
    _, metric_keys, labelled = _split_rows(rows)
    return _cells(labelled, metric_keys)


def compare_results(
    a: RunResult, b: RunResult, cells_a: Optional[Cells] = None
) -> Dict[str, object]:
    """Structured metric diff of two runs.

    Rows are matched by the tuple of shared non-numeric columns; every
    metric cell the two runs share becomes one ``rows`` entry, in a's
    order, with ``a``, ``b``, ``delta`` (b - a) and ``pct`` (percent
    change, ``None`` when a is 0).  ``cells_a`` stands in for run a's
    rows with values kept outside any run directory (a golden fixture's
    committed cells; ``a`` then only names it), and the label keys and
    metrics are then run b's alone.
    """
    if cells_a is None:
        label_keys, metric_keys = label_and_metric_keys(a.rows, b.rows)
        labels_a = _labelled_rows(a.rows, label_keys)
        cells_a = _cells(labels_a, metric_keys)
        by_label_b = _labelled_rows(b.rows, label_keys)
    else:
        label_keys, metric_keys, by_label_b = _split_rows(b.rows)
        labels_a = {row for row, _ in cells_a}
    cells_b = _cells(by_label_b, metric_keys)
    diffs: List[Dict[str, object]] = []
    for (label, metric), va in cells_a.items():
        vb = cells_b.get((label, metric))
        if vb is None:
            continue
        delta = vb - va
        diffs.append(
            {
                "row": label,
                "metric": metric,
                "a": va,
                "b": vb,
                "delta": delta,
                "pct": (100.0 * delta / va) if va else None,
            }
        )
    return {
        "experiment_a": a.experiment,
        "experiment_b": b.experiment,
        "run_a": str(a.out_dir),
        "run_b": str(b.out_dir),
        "label_keys": label_keys,
        "metrics": metric_keys,
        "rows": diffs,
        "only_in_a": sorted(set(labels_a) - set(by_label_b)),
        "only_in_b": sorted(set(by_label_b) - set(labels_a)),
    }


def check_limit(key: str, value: object) -> float:
    """Every drift limit (``--tolerances``, a fixture's ``tolerance``,
    ``capture --tolerance``) as a float; ``ValueError`` naming ``key``
    unless it is a finite number >= 0."""
    if not _is_numeric(value):
        raise ValueError(f"tolerance for {key!r} must be a number, got {value!r}")
    if not (is_finite_number(value) and value >= 0):
        raise ValueError(
            f"tolerance for {key!r} must be finite and >= 0, got {value!r}"
        )
    return float(value)


def load_tolerances(path: Union[str, Path]) -> Dict[str, float]:
    """Parse a tolerance table: a JSON object mapping metric names (or
    row-qualified ``"row:metric"`` keys) to absolute drift limits."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable tolerance file {path}: {exc}")
    if not isinstance(raw, dict):
        raise ValueError(f"tolerance file {path} must be a JSON object")
    return {str(key): check_limit(key, value) for key, value in raw.items()}


def tolerance_for(
    tolerances: Dict[str, float], row: str, metric: str
) -> Optional[float]:
    """Most specific matching limit: ``row:metric`` wins over ``metric``."""
    qualified = f"{row}:{metric}"
    if qualified in tolerances:
        return tolerances[qualified]
    return tolerances.get(metric)


def unmatched_tolerances(
    tolerances: Dict[str, float], cells: Iterable[Tuple[str, str]]
) -> List[str]:
    """The tolerance keys that name none of these ``(row, metric)`` cells."""
    named = {key for row, metric in cells for key in (metric, f"{row}:{metric}")}
    return sorted(set(tolerances) - named)


def apply_tolerances(
    diff: Dict[str, object], tolerances: Dict[str, float]
) -> Dict[str, object]:
    """Annotate a diff with drift limits and collect violations.

    Every diff row whose metric has a limit gains ``limit`` and
    ``within``; the returned diff carries a ``violations`` list holding
    one entry per drifted row *plus* one per tolerance key that matched
    no diff row — a metric the gate expects but the diff cannot show
    (renamed column, vanished row) must fail, not silently pass.
    """
    out = dict(diff)
    rows: List[Dict[str, object]] = []
    violations: List[Dict[str, object]] = []
    for entry in diff["rows"]:
        entry = dict(entry)
        limit = tolerance_for(tolerances, str(entry["row"]), str(entry["metric"]))
        if limit is not None:
            entry["limit"] = limit
            entry["within"] = abs(entry["delta"]) <= limit
            if not entry["within"]:
                violations.append(
                    {
                        "kind": "drift",
                        "row": entry["row"],
                        "metric": entry["metric"],
                        "delta": entry["delta"],
                        "limit": limit,
                    }
                )
        rows.append(entry)
    shown = [(str(e["row"]), str(e["metric"])) for e in diff["rows"]]
    for key in unmatched_tolerances(tolerances, shown):
        violations.append({"kind": "missing", "key": key})
    out["rows"] = rows
    out["violations"] = violations
    return out


def _fmt_num(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _fmt_pct(pct: Optional[float]) -> str:
    return f"{pct:+.1f}%" if pct is not None else "n/a"


def _fmt_status(entry: Dict[str, object]) -> str:
    if "within" not in entry:
        return "-"
    return "ok" if entry["within"] else "DRIFT"


def _gated(diff: Dict[str, object]) -> bool:
    """True when tolerances were applied to this diff."""
    return "violations" in diff


def _diff_table_rows(diff: Dict[str, object]) -> List[List[str]]:
    gated = _gated(diff)
    rows = []
    for d in diff["rows"]:
        row = [
            str(d["row"]),
            str(d["metric"]),
            _fmt_num(d["a"]),
            _fmt_num(d["b"]),
            _fmt_num(d["delta"]),
            _fmt_pct(d["pct"]),
        ]
        if gated:
            limit = d.get("limit")
            row.append(_fmt_num(limit) if limit is not None else "-")
            row.append(_fmt_status(d))
        rows.append(row)
    return rows


_HEADERS = ["row", "metric", "a", "b", "delta", "pct"]


def _headers_for(diff: Dict[str, object]) -> List[str]:
    return _HEADERS + ["limit", "status"] if _gated(diff) else _HEADERS


def _unmatched_lines(diff: Dict[str, object]) -> List[str]:
    lines = []
    if diff["only_in_a"]:
        lines.append(f"only in a: {', '.join(diff['only_in_a'])}")
    if diff["only_in_b"]:
        lines.append(f"only in b: {', '.join(diff['only_in_b'])}")
    for v in diff.get("violations", []):
        if v["kind"] == "missing":
            lines.append(
                f"MISSING: tolerance {v['key']!r} matched no diff row"
            )
    return lines


def render_text(diff: Dict[str, object]) -> str:
    from ..experiments.common import format_rows

    title = (
        f"compare {diff['experiment_a']}: {diff['run_a']} vs {diff['run_b']}"
    )
    if diff["rows"]:
        out = format_rows(_headers_for(diff), _diff_table_rows(diff), title=title)
    else:
        out = title + "\n(no comparable metric rows)"
    return "\n".join([out, *_unmatched_lines(diff)])


def render_markdown(diff: Dict[str, object]) -> str:
    lines = [
        f"# compare {diff['experiment_a']}",
        "",
        f"- a: `{diff['run_a']}`",
        f"- b: `{diff['run_b']}`",
        "",
    ]
    if diff["rows"]:
        lines.extend(markdown_table(_headers_for(diff), _diff_table_rows(diff)))
    else:
        lines.append("(no comparable metric rows)")
    lines.extend(_unmatched_lines(diff))
    return "\n".join(lines)
