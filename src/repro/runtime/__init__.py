"""Unified experiment runtime: registry, specs, and cached run artifacts.

* :mod:`.registry` — the :class:`Experiment` protocol, frozen spec
  dataclasses, the unit-decomposition API (:class:`UnitSpec`,
  ``units``/``run_unit``/``merge``) and the decorator-based registry the
  CLI is driven by;
* :mod:`.runner` — run directories with a ``manifest.json`` keyed by a
  spec hash, giving every paper table the same cache-hit/invalidation
  semantics as the dataset pipeline;
* :mod:`.parallel` — the executor that runs a grid experiment's units
  on the lease-based worker fleet (:mod:`repro.dist`) with per-unit
  cache directories, so killed grids resume from completed units;
* :mod:`.compare` — metric diffs between two cached runs, with optional
  tolerance gating;
* :mod:`.golden` — committed golden-metric fixtures behind ``repro
  experiment capture``/``verify``; a verify is a gated compare of the
  fixture against a fresh run.
"""

from .compare import (
    apply_tolerances,
    compare_results,
    label_and_metric_keys,
    load_run_result,
    load_tolerances,
    resolve_run_dir,
)
from .golden import (
    Golden,
    GoldenError,
    capture_golden,
    default_goldens_dir,
    golden_path,
    list_golden_paths,
    load_golden,
    verify_golden,
    write_golden,
)
from .parallel import (
    UnitProgress,
    execute_parallel,
    load_unit_result,
    unit_dir_for,
    unit_hash,
)
from .registry import (
    Experiment,
    ExperimentResult,
    ExperimentSpec,
    UnitSpec,
    experiment,
    get_experiment,
    list_experiments,
    spec_from_json,
    spec_from_overrides,
)
from .runner import (
    RunRecord,
    default_runs_dir,
    execute,
    list_runs,
    load_record,
    run_dir_for,
    spec_hash,
    spec_hash_from_dict,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "ExperimentSpec",
    "UnitSpec",
    "experiment",
    "get_experiment",
    "list_experiments",
    "spec_from_json",
    "spec_from_overrides",
    "RunRecord",
    "default_runs_dir",
    "execute",
    "list_runs",
    "load_record",
    "run_dir_for",
    "spec_hash",
    "spec_hash_from_dict",
    "UnitProgress",
    "execute_parallel",
    "load_unit_result",
    "unit_dir_for",
    "unit_hash",
    "compare_results",
    "label_and_metric_keys",
    "load_run_result",
    "load_tolerances",
    "resolve_run_dir",
    "apply_tolerances",
    "Golden",
    "GoldenError",
    "capture_golden",
    "default_goldens_dir",
    "golden_path",
    "list_golden_paths",
    "load_golden",
    "verify_golden",
    "write_golden",
]
