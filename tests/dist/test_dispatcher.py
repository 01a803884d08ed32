"""Dispatcher supervision, and the coordination state the executors
built on it keep or clear."""

import dataclasses
import pickle

import pytest

from repro.dist.config import DistConfig
from repro.dist.dispatcher import run_distributed
from repro.dist.faults import CRASH_EXIT_CODE
from repro.dist.leases import LeaseStore
from repro.dist.work import (
    DatasetWorkSource,
    ExperimentWorkSource,
    rebuild_source,
)
from repro.dist.worker import run_worker
from repro.runtime import registry as registry_module
from repro.datagen.pipeline import build_shards

from ..helpers import (
    GridSpec,
    count_unit_executions,
    register_grid_experiment,
    tiny_pipeline_config,
)

FAST = DistConfig(
    lease_ttl=5.0,
    heartbeat_interval=0.2,
    max_attempts=2,
    backoff_base=0.05,
    backoff_cap=0.1,
    poll_interval=0.02,
)


@pytest.fixture
def grid(tmp_path):
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    name = register_grid_experiment("fake-grid", log_dir=log_dir)
    try:
        yield name, log_dir
    finally:
        registry_module.unregister(name)


class TestRunDistributed:
    def test_already_resolved_source_returns_immediately(
        self, tmp_path, grid
    ):
        name, log_dir = grid
        source = ExperimentWorkSource(name, None, tmp_path / "runs")
        run_worker(source, FAST)
        executions = count_unit_executions(log_dir)
        events = []
        summary = run_distributed(
            source, workers=2, cfg=FAST, progress=events.append
        )
        assert summary.worker_deaths == 0
        assert not summary.ran_inline
        assert count_unit_executions(log_dir) == executions
        assert [(e["status"], e["index"]) for e in events] == [
            ("cached", 0), ("cached", 1), ("cached", 2),
        ]

    def test_crashed_worker_is_reaped_and_fleet_recovers(
        self, tmp_path, grid, monkeypatch
    ):
        # a worker told to die right before committing beta: the
        # dispatcher must reap the corpse and respawn (or fall back
        # inline) so the run still resolves without operator action
        name, _ = grid
        monkeypatch.setenv("REPRO_FAULT_PLAN", "crash_before_commit@beta")
        source = ExperimentWorkSource(name, None, tmp_path / "runs")
        # the corpse's lease on beta must go stale before anyone retries it
        cfg = dataclasses.replace(FAST, lease_ttl=1.0)
        events = []
        summary = run_distributed(
            source, workers=2, cfg=cfg, progress=events.append
        )
        assert summary.worker_deaths >= 1
        assert summary.respawns >= 1 or summary.ran_inline
        assert summary.poisoned == {}
        assert all(item.is_done() for item in source.items())
        # each death is reported, naming the process and its exit code
        deaths = [e for e in events if e["status"] == "worker-died"]
        assert len(deaths) == summary.worker_deaths
        assert all(
            e["label"].startswith("repro-dist-worker-")
            and e["detail"] == f"exit code {CRASH_EXIT_CODE}"
            and "index" not in e
            for e in deaths
        )

    def test_inline_run_reports_each_commit(self, tmp_path, grid):
        name, _ = grid
        source = ExperimentWorkSource(name, None, tmp_path / "runs")
        events = []
        summary = run_distributed(
            source, workers=1, cfg=FAST, progress=events.append
        )
        assert summary.ran_inline and summary.worker_deaths == 0
        assert [(e["status"], e["label"], e["total"]) for e in events] == [
            ("done", "alpha", 3), ("done", "beta", 3), ("done", "gamma", 3),
        ]

    def test_poisoned_items_carry_their_label(self, tmp_path, grid):
        name, _ = grid
        source = ExperimentWorkSource(
            name, GridSpec(rows=("alpha", "explode")), tmp_path / "runs"
        )
        summary = run_distributed(source, workers=1, cfg=FAST)
        (record,) = summary.poisoned.values()
        assert record["label"] == "explode"
        assert record["attempts"] == FAST.max_attempts
        assert "unit exploded" in record["last_error"]


class TestDatasetCoordinationState:
    def test_stale_config_coordination_state_cannot_wedge_build(
        self, tmp_path
    ):
        # an aborted build of a *different* config leaves attempt counts
        # and quarantine markers in .dist (and, crashing pre-manifest,
        # no stale manifest to trip the cleanup); item keys embed the
        # config hash, so a later build must sail past them
        old = tiny_pipeline_config(seed=11)
        new = tiny_pipeline_config(seed=12)
        out = tmp_path / "data"
        old_source = DatasetWorkSource(old, out)
        store = LeaseStore(old_source.coordination_dir(), ttl=5.0)
        for item in old_source.items():
            store.poison(item.key, attempts=3, last_error="boom")
        old_keys = {item.key for item in old_source.items()}
        new_keys = {item.key for item in DatasetWorkSource(new, out).items()}
        assert old_keys.isdisjoint(new_keys)
        result = build_shards(new, out, workers=1, cfg=FAST)
        assert not result.cache_hit
        assert result.manifest["config_hash"] == new.config_hash()

    def test_failed_first_build_gets_a_fresh_retry_budget(self, tmp_path):
        # a first build that quarantined one shard and cut another off
        # at its last attempt leaves only .dist records behind: the
        # rebuild (no force) retries both instead of failing at once
        config = tiny_pipeline_config()
        out = tmp_path / "data"
        source = DatasetWorkSource(config, out)
        first, second, *_ = source.items()
        store = LeaseStore(source.coordination_dir(), ttl=FAST.lease_ttl)
        store.poison(first.key, attempts=2, last_error="MemoryError: ")
        store.record_attempt(second.key, 2, next_eligible_at=0.0)
        events = []
        result = build_shards(
            config, out, workers=1, cfg=FAST, progress=events.append
        )
        assert not result.cache_hit
        assert first.shard_path.is_file() and second.shard_path.is_file()
        assert not source.coordination_dir().exists()
        # one progress event per shard, in plan order
        assert [(e["status"], e["index"]) for e in events] == [
            ("done", i) for i in range(len(source.items()))
        ]

    def test_late_worker_finds_a_certified_build_done(self, tmp_path):
        # a build clears its meta records once its manifest is written;
        # a worker joining after that must not start over
        config = tiny_pipeline_config()
        out = tmp_path / "data"
        build_shards(config, out, workers=1, cfg=FAST)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        source = DatasetWorkSource(config, out)
        report = run_worker(source, FAST)
        assert report.completed == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_killed_build_resumes_from_committed_shards(self, tmp_path):
        # a build killed before its manifest leaves shard files and
        # their meta records: the next build reuses them
        config = tiny_pipeline_config()
        out = tmp_path / "data"
        source = DatasetWorkSource(config, out)
        first, *rest = source.items()
        first.commit(first.run())
        mtime = first.shard_path.stat().st_mtime_ns
        result = build_shards(config, out, workers=1, cfg=FAST)
        assert not result.cache_hit
        assert first.shard_path.stat().st_mtime_ns == mtime
        assert all(item.shard_path.is_file() for item in rest)
        assert not source.coordination_dir().exists()


class TestSubprocessPayload:
    def test_experiment_payload_ships_primitives(self, tmp_path, grid):
        # the Experiment behind a dynamically registered source holds
        # closure callables that cannot pickle — exactly what a spawn
        # start method would have to ship if the source object itself
        # crossed the process boundary
        name, _ = grid
        source = ExperimentWorkSource(name, GridSpec(), tmp_path / "runs")
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(source)
        kind, args = source.subprocess_payload()
        kind, args = pickle.loads(pickle.dumps((kind, args)))
        rebuilt = rebuild_source(kind, args)
        assert [i.key for i in rebuilt.items()] == [
            i.key for i in source.items()
        ]
        assert rebuilt.coordination_dir() == source.coordination_dir()

    def test_dataset_payload_round_trips(self, tmp_path):
        config = tiny_pipeline_config()
        source = DatasetWorkSource(config, tmp_path / "data")
        kind, args = pickle.loads(
            pickle.dumps(source.subprocess_payload())
        )
        rebuilt = rebuild_source(kind, args)
        assert [i.key for i in rebuilt.items()] == [
            i.key for i in source.items()
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown work-source kind"):
            rebuild_source("nonsense", ())
