"""Parallel, sharded, cached dataset generation.

The paper's supervision labels come from simulating up to 100k random
patterns per circuit; at dataset scale (Table I: 10,824 sub-circuits) that
is embarrassingly parallel but far too slow to redo on every run.  This
module turns dataset generation into a build system:

* the work is split into **shards** of ``shard_size`` circuits each;
* every shard is a pure function of ``(config, suite, shard_index)`` — its
  RNG is derived from a :class:`numpy.random.SeedSequence` over exactly
  those values — so shards can be built in any order, by any number of
  worker processes, and still come out byte-identical;
* shards are built as work items of the lease-based fleet
  (:mod:`repro.dist`): ``workers >= 2`` spawns that many worker
  processes, ``workers <= 1`` runs the worker loop in this process, and
  standalone ``repro worker dataset`` processes may join either;
* shards are written as deterministic ``.npz`` files next to a
  ``manifest.json`` carrying the config, a sha256 **config hash** for cache
  invalidation and a sha256 per shard for integrity checking;
* a rebuild with an unchanged config and intact shard files is a **cache
  hit** and touches nothing on disk.

Shard and manifest writes are atomic (temp file + rename), so readers
never see a torn file.  Concurrent builds of the *same* config in one
directory share the shards through leases and all return the manifest
the first of them writes; a worker that joins after that finds nothing
left to build.  Concurrent builds of *different* configs are not
coordinated: each drops the other's shards as stale and the shard files
of both carry the same names, so the last writer wins.  Give those
distinct directories (the experiment harness keys directories by scale
and seed for this reason).

Typical use::

    config = PipelineConfig.from_scale(get_scale("default"))
    result = build_shards(config, "data/default", workers=8)
    dataset = ShardedCircuitDataset(result.out_dir)

or from the command line::

    python -m repro dataset build --scale default --out data/default --workers 8
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..graphdata.features import CircuitGraph
from ..utils import atomic_write_text
from ..graphdata.shards import (
    MANIFEST_FORMAT_VERSION,
    MANIFEST_NAME,
    SHARD_FORMAT_VERSION,
    file_sha256,
    load_manifest,
)
from .suites import SUITE_NAMES, generate_suite_graphs

if TYPE_CHECKING:  # the fleet imports this module's shard primitives
    from ..dist import DistConfig

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_FORMAT_VERSION",
    "PipelineConfig",
    "ShardSpec",
    "BuildResult",
    "plan_shards",
    "generate_shard",
    "generate_suite",
    "shard_metadata",
    "write_manifest",
    "build_shards",
    "load_manifest",
    "manifest_is_current",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines the contents of a dataset build.

    The config (plus the shard format version) hashes to ``config_hash``;
    any change to any field produces a different hash and therefore a full
    cache invalidation.  ``suites`` maps suite name to circuit count, as a
    tuple of pairs so the config stays hashable.

    ``shard_size`` determines the per-shard RNG partitioning, so changing
    it changes *which* circuits are generated — it is a dataset knob like
    ``seed``, not a performance-only tuning parameter.
    """

    suites: Tuple[Tuple[str, int], ...]
    seed: int = 0
    num_patterns: int = 15_000
    min_nodes: int = 30
    max_nodes: int = 3000
    max_levels: int = 80
    with_skip_edges: bool = True
    shard_size: int = 8

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        seen = set()
        for name, count in self.suites:
            if name not in SUITE_NAMES:
                raise ValueError(
                    f"unknown suite {name!r}; choose from {SUITE_NAMES}"
                )
            if name in seen:
                raise ValueError(f"suite {name!r} listed twice")
            seen.add(name)
            if count < 1:
                raise ValueError(f"suite {name!r} needs a positive count")

    @classmethod
    def from_scale(cls, scale) -> "PipelineConfig":
        """Build a config from an experiment :class:`~repro.experiments.common.Scale`."""
        return cls(
            suites=tuple(scale.circuits_per_suite),
            seed=scale.seed,
            num_patterns=scale.num_patterns,
            min_nodes=scale.min_nodes,
            max_nodes=scale.max_nodes,
            max_levels=scale.max_levels,
        )

    def suite_counts(self) -> Dict[str, int]:
        return dict(self.suites)

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["suites"] = [list(pair) for pair in self.suites]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PipelineConfig":
        kwargs = dict(data)
        kwargs["suites"] = tuple(
            (str(name), int(count)) for name, count in kwargs["suites"]
        )
        return cls(**kwargs)

    def config_hash(self) -> str:
        """Sha256 over the canonical config JSON + shard format version."""
        payload = {
            "config": self.to_dict(),
            "shard_format_version": SHARD_FORMAT_VERSION,
        }
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ShardSpec:
    """One unit of work: ``count`` circuits of ``suite`` in shard ``index``."""

    suite: str
    index: int
    count: int

    @property
    def filename(self) -> str:
        return f"{self.suite.lower()}-{self.index:05d}.npz"


@dataclass
class BuildResult:
    """Outcome of :func:`build_shards`."""

    manifest: Dict[str, object]
    out_dir: Path
    cache_hit: bool
    elapsed: float

    @property
    def shard_paths(self) -> List[Path]:
        return [
            self.out_dir / shard["filename"]
            for shard in self.manifest["shards"]
        ]

    @property
    def total_circuits(self) -> int:
        return int(self.manifest["total_circuits"])


def plan_shards(config: PipelineConfig) -> List[ShardSpec]:
    """Deterministic decomposition of a config into shard work units."""
    specs: List[ShardSpec] = []
    for suite, total in config.suites:
        index = 0
        remaining = total
        while remaining > 0:
            count = min(config.shard_size, remaining)
            specs.append(ShardSpec(suite=suite, index=index, count=count))
            remaining -= count
            index += 1
    return specs


def _shard_rng(config: PipelineConfig, spec: ShardSpec) -> np.random.Generator:
    """Per-shard RNG keyed on (seed, suite, shard index) only.

    Deliberately independent of worker assignment, shard ordering and the
    other suites in the config, so adding a suite or changing the worker
    count never changes an existing shard's contents.
    """
    seq = np.random.SeedSequence(
        [config.seed, SUITE_NAMES.index(spec.suite), spec.index]
    )
    return np.random.default_rng(seq)


def generate_shard(
    config: PipelineConfig, spec: ShardSpec
) -> List[CircuitGraph]:
    """Generate one shard's circuits (pure, deterministic)."""
    return generate_suite_graphs(
        spec.suite,
        spec.count,
        _shard_rng(config, spec),
        num_patterns=config.num_patterns,
        min_nodes=config.min_nodes,
        max_nodes=config.max_nodes,
        max_levels=config.max_levels,
        with_skip_edges=config.with_skip_edges,
    )


def generate_suite(config: PipelineConfig, suite: str) -> List[CircuitGraph]:
    """All circuits of one suite, serially, bypassing disk.

    Produces exactly the graphs that the sharded build writes for that
    suite, in shard order — the in-process fast path used by the
    experiment harness when no dataset directory is configured.
    """
    graphs: List[CircuitGraph] = []
    for spec in plan_shards(config):
        if spec.suite == suite:
            graphs.extend(generate_shard(config, spec))
    return graphs


# ---------------------------------------------------------------------------
# building + caching
# ---------------------------------------------------------------------------


def shard_metadata(
    spec: ShardSpec, graphs: List[CircuitGraph], sha: str
) -> Dict[str, object]:
    """The manifest entry for one written shard.

    One canonical constructor, so a manifest assembled from the records
    of any mix of workers is byte-identical for the same shards.
    """
    return {
        "filename": spec.filename,
        "suite": spec.suite,
        "shard_index": spec.index,
        "num_circuits": len(graphs),
        "num_nodes": int(sum(g.num_nodes for g in graphs)),
        "circuits": [g.name for g in graphs],
        "sha256": sha,
    }


def manifest_is_current(
    out_dir: Union[str, Path],
    config: PipelineConfig,
    verify_hashes: bool = True,
) -> bool:
    """True when ``out_dir`` holds a complete build of exactly ``config``."""
    manifest = load_manifest(out_dir)
    if manifest is None or manifest.get("config_hash") != config.config_hash():
        return False
    for shard in manifest["shards"]:
        path = Path(out_dir) / shard["filename"]
        if not path.is_file():
            return False
        if verify_hashes and file_sha256(path) != shard["sha256"]:
            return False
    return True


def write_manifest(
    out_dir: Path, config: PipelineConfig, shards: List[Dict[str, object]]
) -> Dict[str, object]:
    """Write the certifying dataset manifest (atomically, always last)."""
    manifest: Dict[str, object] = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "shard_format_version": SHARD_FORMAT_VERSION,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "shards": shards,
        "total_circuits": sum(int(s["num_circuits"]) for s in shards),
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    # atomic: a manifest either describes a complete build or doesn't exist
    atomic_write_text(out_dir / MANIFEST_NAME, text)
    return manifest


def build_shards(
    config: PipelineConfig,
    out_dir: Union[str, Path],
    workers: int = 1,
    force: bool = False,
    verify_hashes: bool = True,
    cfg: Optional[DistConfig] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> BuildResult:
    """Build (or reuse) the sharded dataset for ``config`` in ``out_dir``.

    If the directory already holds a manifest with the same config hash and
    every shard file matches its recorded sha256, nothing is rebuilt and
    ``cache_hit`` is True.  Otherwise every shard not yet committed by
    this build is generated on the lease fleet (``workers`` processes,
    inline for ``workers <= 1``, tuned by ``cfg`` or else the
    environment's :class:`~repro.dist.DistConfig`) and a fresh manifest
    is written.  Output is byte-identical for any worker count.  Raises
    :class:`~repro.dist.PoisonedWorkError` when a shard exhausts its
    retries.

    ``verify_hashes=False`` downgrades cache validation to an existence
    check — useful when a very large known-good dataset makes re-hashing
    every shard at startup too costly.  ``progress`` gets the fleet's
    events (:func:`~repro.dist.run_distributed`).
    """
    # imported here: repro.dist builds on this module's shard primitives
    from ..dist import DatasetWorkSource, PoisonedWorkError, run_distributed

    out_dir = Path(out_dir)
    start = time.perf_counter()
    if not force and manifest_is_current(
        out_dir, config, verify_hashes=verify_hashes
    ):
        manifest = load_manifest(out_dir)
        assert manifest is not None
        return BuildResult(
            manifest=manifest,
            out_dir=out_dir,
            cache_hit=True,
            elapsed=time.perf_counter() - start,
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    source = DatasetWorkSource(config, out_dir)
    previous = load_manifest(out_dir)
    if force or previous is not None:
        # a finished build leaves nothing to resume: drop its manifest
        # first (a killed rebuild must not look complete), its shards so
        # the directory never mixes generations, and any coordination
        # state (attempt counts, quarantine markers) with them
        (out_dir / MANIFEST_NAME).unlink(missing_ok=True)
        for shard in (previous or {}).get("shards", []):
            try:
                (out_dir / shard["filename"]).unlink(missing_ok=True)
            except OSError:
                pass
        shutil.rmtree(source.coordination_dir(), ignore_errors=True)

    summary = run_distributed(
        source, workers=workers, cfg=cfg, progress=progress
    )
    if summary.poisoned:
        raise PoisonedWorkError(source.name, summary.poisoned)
    try:
        # manifest order == plan order, whoever built each shard
        manifest = write_manifest(out_dir, config, source.shard_metas())
    except RuntimeError:
        # a concurrent build of this config finished first: its
        # manifest certifies the shards and its cleanup took the records
        manifest = load_manifest(out_dir)
        if not manifest or manifest.get("config_hash") != config.config_hash():
            raise
    # the manifest now certifies the build: the coordination state is
    # spent.  Drop it so the directory is the same tree whatever built it
    shutil.rmtree(source.coordination_dir(), ignore_errors=True)
    return BuildResult(
        manifest=manifest,
        out_dir=out_dir,
        cache_hit=False,
        elapsed=time.perf_counter() - start,
    )
