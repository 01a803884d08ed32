"""Table I — statistics of the circuit training dataset.

Reproduces the paper's dataset-construction flow (suite pools -> AIG ->
sub-circuit window -> labels) and reports, per suite: number of
sub-circuits, node-count range and logic-level range, next to the published
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from ..datagen.suites import SUITE_NAMES, TABLE1_PAPER_ROWS
from ..runtime.registry import (
    ExperimentResult,
    ExperimentSpec,
    UnitSpec,
    experiment,
)
from .common import (
    Scale,
    cached_suites,
    format_rows,
    get_scale,
    resolve_scale,
)

__all__ = ["Table1Row", "Table1Spec", "run", "format_table", "main"]


@dataclass
class Table1Row:
    suite: str
    subcircuits: int
    node_range: Tuple[int, int]
    level_range: Tuple[int, int]
    paper_subcircuits: int
    paper_node_range: Tuple[int, int]
    paper_level_range: Tuple[int, int]


def run(scale: Union[str, Scale] = "default") -> List[Table1Row]:
    """Build every suite at the given scale and collect its statistics."""
    cfg = get_scale(scale)
    suites = cached_suites(cfg)
    rows: List[Table1Row] = []
    for name in SUITE_NAMES:
        if name not in suites:
            continue
        ds = suites[name]
        paper_n, paper_nodes, paper_levels = TABLE1_PAPER_ROWS[name]
        rows.append(
            Table1Row(
                suite=name,
                subcircuits=len(ds),
                node_range=ds.node_count_range(),
                level_range=ds.level_range(),
                paper_subcircuits=paper_n,
                paper_node_range=paper_nodes,
                paper_level_range=paper_levels,
            )
        )
    return rows


def format_table(rows: List[Table1Row]) -> str:
    total = sum(r.subcircuits for r in rows)
    lo_n = min(r.node_range[0] for r in rows)
    hi_n = max(r.node_range[1] for r in rows)
    lo_l = min(r.level_range[0] for r in rows)
    hi_l = max(r.level_range[1] for r in rows)
    body = [
        [
            r.suite,
            r.subcircuits,
            f"[{r.node_range[0]}-{r.node_range[1]}]",
            f"[{r.level_range[0]}-{r.level_range[1]}]",
            r.paper_subcircuits,
            f"[{r.paper_node_range[0]}-{r.paper_node_range[1]}]",
            f"[{r.paper_level_range[0]}-{r.paper_level_range[1]}]",
        ]
        for r in rows
    ]
    body.append(
        ["Total", total, f"[{lo_n}-{hi_n}]", f"[{lo_l}-{hi_l}]", 10824,
         "[36-3214]", "[3-24]"]
    )
    return format_rows(
        ["Benchmark", "#Subcircuits", "#Node", "#Level",
         "paper#Sub", "paper#Node", "paper#Level"],
        body,
        title="Table I: circuit training dataset statistics (ours vs paper)",
    )


@dataclass(frozen=True)
class Table1Spec(ExperimentSpec):
    """Dataset statistics need no knobs beyond the base spec."""


def _units(spec: Table1Spec) -> List[UnitSpec]:
    """One unit per benchmark suite at this scale, in table order."""
    counts = resolve_scale(spec).suite_counts()
    return [UnitSpec(key=name) for name in SUITE_NAMES if name in counts]


def _run_unit(spec: Table1Spec, unit: UnitSpec) -> dict:
    """Stats of one suite (the suite pool is built once and shared)."""
    cfg = resolve_scale(spec)
    ds = cached_suites(cfg)[unit.key]
    paper_n, paper_nodes, paper_levels = TABLE1_PAPER_ROWS[unit.key]
    return {
        "suite": unit.key,
        "subcircuits": len(ds),
        "node_range": list(ds.node_count_range()),
        "level_range": list(ds.level_range()),
        "paper_subcircuits": paper_n,
        "paper_node_range": list(paper_nodes),
        "paper_level_range": list(paper_levels),
    }


@experiment(
    "table1",
    spec=Table1Spec,
    title="Table I: circuit training dataset statistics",
    description="Per-suite sub-circuit counts, node and level ranges.",
    units=_units,
    run_unit=_run_unit,
)
def _merge(spec: Table1Spec, unit_results: List[dict]) -> ExperimentResult:
    rows = [
        Table1Row(
            suite=r["suite"],
            subcircuits=r["subcircuits"],
            node_range=tuple(r["node_range"]),
            level_range=tuple(r["level_range"]),
            paper_subcircuits=r["paper_subcircuits"],
            paper_node_range=tuple(r["paper_node_range"]),
            paper_level_range=tuple(r["paper_level_range"]),
        )
        for r in unit_results
    ]
    return ExperimentResult(
        experiment="table1",
        rows=[
            {
                "suite": r.suite,
                "subcircuits": r.subcircuits,
                "nodes": f"{r.node_range[0]}-{r.node_range[1]}",
                "levels": f"{r.level_range[0]}-{r.level_range[1]}",
                "paper_subcircuits": r.paper_subcircuits,
                "paper_nodes": f"{r.paper_node_range[0]}-{r.paper_node_range[1]}",
                "paper_levels": f"{r.paper_level_range[0]}-{r.paper_level_range[1]}",
            }
            for r in rows
        ],
        table=format_table(rows),
    )
