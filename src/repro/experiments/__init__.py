"""Experiment harness: one module per table/figure of the paper.

* :mod:`.table1` — dataset statistics
* :mod:`.table2` — model comparison grid (13 configurations)
* :mod:`.table3` — generalisation to large circuits
* :mod:`.table4` — AIG transformation ablation
* :mod:`.t_sweep` — error vs recurrence iterations (the §IV-D.2 figure)
* :mod:`.ablations` — extra design-choice ablations
* :mod:`.testability_analysis` — learned probability oracle ranking
  hard-to-test nodes (downstream workload)
* :mod:`.fault_prediction` — fine-tuned fault-detectability head vs
  SCOAP (downstream workload)
* :mod:`.synth_robustness` — model stability across synthesised forms
* :mod:`.sat_oracle` — SAT/exhaustive label-consistency cross-checks
* :mod:`.train_backbone` — train the backbone and publish its
  checkpoint as a servable run artifact (``repro serve --run``)

Each module exposes ``run(scale)`` returning structured rows and
``format_table(rows)`` rendering the paper-style table, and registers
itself with the experiment runtime (:mod:`repro.runtime`): a frozen spec
dataclass plus a runner, driven by ``python -m repro experiment
run/list/report``.
"""

from . import (
    ablations,
    common,
    fault_prediction,
    sat_oracle,
    synth_robustness,
    t_sweep,
    table1,
    table2,
    table3,
    table4,
    testability_analysis,
    train_backbone,
)
from .common import SCALES, Scale, get_scale

__all__ = [
    "ablations",
    "common",
    "fault_prediction",
    "sat_oracle",
    "synth_robustness",
    "t_sweep",
    "table1",
    "table2",
    "table3",
    "table4",
    "testability_analysis",
    "train_backbone",
    "SCALES",
    "Scale",
    "get_scale",
]
