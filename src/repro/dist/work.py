"""Work sources: what the lease-based workers actually execute.

A :class:`WorkSource` enumerates independent :class:`WorkItem`\\ s over a
shared cache layout.  Two adapters cover the repo's fleet-sized jobs:

* :class:`ExperimentWorkSource` — the units of a unit-decomposed
  experiment (one Table-II model configuration each), committed through
  the atomic :func:`repro.runtime.parallel.commit_unit` seam;
* :class:`DatasetWorkSource` — the shards of a dataset build.  Shard
  files are already written atomically; completion is certified by a
  small per-shard meta record under the coordination directory, written
  last, which :func:`repro.datagen.pipeline.build_shards` later
  assembles into the dataset manifest.

Every item exposes the same crash-safe contract:

* ``is_done()`` consults only committed on-disk state, so any process
  (dispatcher, fleet worker, a host that joined mid-run) agrees on it;
* ``run()`` is pure compute — deterministic given the source config —
  and ``commit(payload)`` publishes atomically and idempotently:
  committing the same item twice writes byte-identical state;
* ``simulate_torn_write()`` deliberately writes the torn, in-place
  partial state that atomic commits exist to prevent — the hook the
  ``torn_write`` fault uses to prove readers treat it as a cache miss.

Coordination state (leases, attempts, quarantine, fault markers) lives
under ``coordination_dir()``, a dot-directory inside the run/dataset
directory so the shared layout itself is the coordination point and
extra hosts need nothing beyond the filesystem.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..datagen.pipeline import (
    MANIFEST_NAME,
    PipelineConfig,
    ShardSpec,
    generate_shard,
    plan_shards,
    shard_metadata,
)
from ..graphdata.shards import write_shard
from ..runtime.parallel import (
    commit_unit,
    load_unit_result,
    unit_dir_for,
    unit_hash,
)
from ..runtime.registry import (
    Experiment,
    ExperimentSpec,
    UnitSpec,
    canonical_unit_result,
    get_experiment,
)
from ..runtime.runner import run_dir_for, spec_hash
from ..utils import atomic_write_json

__all__ = [
    "COORD_DIR_NAME",
    "WorkItem",
    "WorkSource",
    "ExperimentWorkSource",
    "DatasetWorkSource",
    "rebuild_source",
]

#: coordination dot-directory inside the run / dataset directory
COORD_DIR_NAME = ".dist"


class WorkItem:
    """One independent, atomically-committable piece of work."""

    #: filesystem-safe identifier — names the lease/attempt/poison files
    key: str
    #: human identifier matched by ``REPRO_FAULT_PLAN`` and progress lines
    label: str

    def is_done(self) -> bool:
        raise NotImplementedError

    def run(self) -> object:
        raise NotImplementedError

    def commit(self, payload: object) -> None:
        raise NotImplementedError

    def simulate_torn_write(self) -> None:
        raise NotImplementedError


class WorkSource:
    """A stable, deterministic list of work items over a shared layout."""

    name: str

    def coordination_dir(self) -> Path:
        raise NotImplementedError

    def items(self) -> List[WorkItem]:
        raise NotImplementedError

    def subprocess_payload(self) -> "tuple[str, tuple]":
        """``(kind, args)`` understood by :func:`rebuild_source`.

        What the dispatcher ships to subprocess workers instead of the
        source object itself: under a spawn start method the args must
        pickle, so the built-in sources override this with plain
        primitives (name/spec/config/paths) and rebuild on the far side,
        so an :class:`~repro.runtime.registry.Experiment` holding user
        callables never has to cross the process boundary.  The default
        ships the source itself, for custom sources that do pickle.
        """
        return ("pickle", (self,))


def rebuild_source(kind: str, args: tuple) -> "WorkSource":
    """Reconstruct a :class:`WorkSource` from its subprocess payload."""
    if kind == "experiment":
        name, spec, runs_dir = args
        return ExperimentWorkSource(name, spec, runs_dir)
    if kind == "dataset":
        config, out_dir = args
        return DatasetWorkSource(config, out_dir)
    if kind == "pickle":
        (source,) = args
        return source
    raise ValueError(f"unknown work-source kind {kind!r}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


class _UnitItem(WorkItem):
    def __init__(
        self,
        exp: Experiment,
        spec: ExperimentSpec,
        unit: UnitSpec,
        digest: str,
        unit_dir: Path,
    ):
        self.exp = exp
        self.spec = spec
        self.unit = unit
        self.digest = digest
        self.unit_dir = unit_dir
        self.key = digest[:16]
        self.label = unit.key

    def is_done(self) -> bool:
        return load_unit_result(self.unit_dir, self.digest) is not None

    def run(self) -> object:
        start = time.perf_counter()
        result = canonical_unit_result(self.exp.run_unit(self.spec, self.unit))
        return result, time.perf_counter() - start

    def commit(self, payload: object) -> None:
        result, elapsed = payload
        commit_unit(self.unit_dir, self.unit, self.digest, result, elapsed)

    def simulate_torn_write(self) -> None:
        # the legacy failure mode: a unit dir holding a truncated
        # result.json and no certifying manifest
        self.unit_dir.mkdir(parents=True, exist_ok=True)
        (self.unit_dir / "result.json").write_text('{"rows": [{"tru')


class ExperimentWorkSource(WorkSource):
    """The pending units of one (experiment, spec) run directory.

    Workers on any host construct this from the same (name, spec,
    runs_dir) triple; the spec hash keys the run directory, so they all
    converge on the same unit list, unit digests and lease namespace.
    """

    def __init__(
        self,
        name: str,
        spec: Optional[ExperimentSpec] = None,
        runs_dir: Union[str, Path] = "runs",
    ):
        self.exp = get_experiment(name)
        if not self.exp.supports_units:
            raise ValueError(
                f"experiment {name!r} has no unit decomposition; "
                "distributed execution needs units/run_unit/merge"
            )
        self.spec = self.exp.validate_spec(spec)
        self.name = name
        self.runs_dir = Path(runs_dir)
        self.digest = spec_hash(name, self.spec)
        self.out_dir = run_dir_for(self.runs_dir, name, self.digest)
        self.units = self.exp.units(self.spec)
        self.digests = [unit_hash(self.digest, u) for u in self.units]

    def coordination_dir(self) -> Path:
        return self.out_dir / COORD_DIR_NAME

    def subprocess_payload(self) -> "tuple[str, tuple]":
        # the spec pickles; the Experiment (with its user callables) is
        # re-looked-up by name in the subprocess
        return ("experiment", (self.name, self.spec, str(self.runs_dir)))

    def items(self) -> List[WorkItem]:
        return [
            _UnitItem(
                self.exp,
                self.spec,
                unit,
                digest,
                unit_dir_for(self.out_dir, digest),
            )
            for unit, digest in zip(self.units, self.digests)
        ]

    def unit_results(self) -> List[Dict[str, object]]:
        """Every unit's committed result, in unit order.

        Raises if any unit is missing — callers check completion first.
        """
        results = []
        for unit, digest in zip(self.units, self.digests):
            result = load_unit_result(
                unit_dir_for(self.out_dir, digest), digest
            )
            if result is None:
                raise RuntimeError(
                    f"unit {unit.key!r} of {self.name} has no committed result"
                )
            results.append(result)
        return results


# ---------------------------------------------------------------------------
# dataset builds
# ---------------------------------------------------------------------------


class _ShardItem(WorkItem):
    def __init__(
        self,
        config: PipelineConfig,
        spec: ShardSpec,
        out_dir: Path,
        meta_path: Path,
    ):
        self.config = config
        self.spec = spec
        self.out_dir = out_dir
        self.meta_path = meta_path
        # the config hash is part of the key so lease/attempt/poison
        # records left by an aborted build of a *different* config can
        # never block or quarantine this build's shards
        self.key = (
            f"{spec.suite.lower()}-{spec.index:05d}"
            f"-{config.config_hash()[:12]}"
        )
        self.label = spec.filename

    @property
    def shard_path(self) -> Path:
        return self.out_dir / self.spec.filename

    def read_meta(self) -> Optional[Dict[str, object]]:
        try:
            data = json.loads(self.meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("config_hash") != self.config.config_hash()
            or not isinstance(data.get("shard"), dict)
        ):
            return None
        return data["shard"]

    def is_done(self) -> bool:
        # a manifest certifies the whole directory, and the build that
        # wrote it then clears the meta records: a worker that joins late
        # must find nothing left to build rather than start over
        if (self.out_dir / MANIFEST_NAME).is_file():
            return True
        return self.read_meta() is not None and self.shard_path.is_file()

    def run(self) -> object:
        return generate_shard(self.config, self.spec)

    def commit(self, payload: object) -> None:
        # the shard write is atomic (deterministic temp + rename); the
        # meta record is written last and certifies it, mirroring the
        # dataset's manifest-last convention
        sha = write_shard(self.shard_path, payload)
        # created here, not up front: a concurrent build of this config
        # that finished first may have cleared the coordination directory
        self.meta_path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            self.meta_path,
            {
                "config_hash": self.config.config_hash(),
                "shard": shard_metadata(self.spec, payload, sha),
            },
        )

    def simulate_torn_write(self) -> None:
        # a torn shard: half a zip archive, written in place
        self.shard_path.write_bytes(b"PK\x03\x04truncated-shard")


class DatasetWorkSource(WorkSource):
    """The shards of one dataset build directory."""

    def __init__(self, config: PipelineConfig, out_dir: Union[str, Path]):
        self.config = config
        self.out_dir = Path(out_dir)
        self.name = f"dataset:{config.config_hash()[:12]}"
        self.specs = plan_shards(config)

    def coordination_dir(self) -> Path:
        return self.out_dir / COORD_DIR_NAME

    def subprocess_payload(self) -> "tuple[str, tuple]":
        return ("dataset", (self.config, str(self.out_dir)))

    def _meta_path(self, spec: ShardSpec) -> Path:
        return self.coordination_dir() / "meta" / f"{spec.filename}.json"

    def items(self) -> List[WorkItem]:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return [
            _ShardItem(self.config, spec, self.out_dir, self._meta_path(spec))
            for spec in self.specs
        ]

    def shard_metas(self) -> List[Dict[str, object]]:
        """Committed shard manifest entries, in plan order."""
        metas: List[Dict[str, object]] = []
        for spec in self.specs:
            item = _ShardItem(
                self.config, spec, self.out_dir, self._meta_path(spec)
            )
            meta = item.read_meta()
            if meta is None or not item.shard_path.is_file():
                raise RuntimeError(
                    f"shard {spec.filename} has no committed meta record"
                )
            metas.append(meta)
        return metas
