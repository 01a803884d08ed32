"""Chaos suite: every planned fault, and a real SIGKILL, must leave the
results of a ``workers=2`` fleet byte-identical to a ``workers=1`` run."""

import multiprocessing
import time

import pytest

from repro.datagen.pipeline import build_shards
from repro.dist.config import DistConfig
from repro.dist.faults import FAULT_KINDS
from repro.dist.leases import LeaseStore
from repro.dist.work import ExperimentWorkSource
from repro.dist.worker import run_worker
from repro.runtime import execute_parallel
from repro.runtime import registry as registry_module

from ..helpers import (
    GridSpec,
    count_unit_executions,
    register_grid_experiment,
    tiny_pipeline_config,
)

# TTLs short enough that lease expiry (the recovery path from a stalled
# worker; a crashed one's lease is stale at once) costs seconds, not the
# production default
CHAOS = DistConfig(
    lease_ttl=1.5,
    heartbeat_interval=0.3,
    max_attempts=3,
    backoff_base=0.1,
    backoff_cap=0.5,
    poll_interval=0.05,
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


def result_bytes(record):
    return (record.out_dir / "result.json").read_bytes()


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_fault_leaves_results_byte_identical(
    tmp_path, grid, monkeypatch, kind
):
    name, _ = grid
    serial = execute_parallel(
        name, GridSpec(), runs_dir=tmp_path / "serial", workers=1
    )
    monkeypatch.setenv("REPRO_FAULT_PLAN", f"{kind}@beta")
    dist = execute_parallel(
        name,
        GridSpec(),
        runs_dir=tmp_path / "dist",
        workers=2,
        cfg=CHAOS,
    )
    assert result_bytes(serial) == result_bytes(dist)
    assert dist.result["rows"] == serial.result["rows"]


def _worker_main(source, cfg):
    run_worker(source, cfg)


def test_sigkilled_worker_is_reclaimed_without_operator_action(tmp_path):
    # a standalone worker joins the run, gets kill -9'd mid-unit, and
    # the dispatcher fleet still finishes: the orphaned lease goes stale
    # and is reclaimed, nobody intervenes
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    name = register_grid_experiment(
        "fake-grid-kill", log_dir=log_dir, unit_sleep=0.8
    )
    try:
        serial = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path / "serial", workers=1
        )
        source = ExperimentWorkSource(name, None, tmp_path / "dist")
        victim = multiprocessing.get_context("fork").Process(
            target=_worker_main, args=(source, CHAOS)
        )
        victim.start()
        # let it claim a unit and get some way into executing it
        deadline = time.time() + 10
        store = LeaseStore(source.coordination_dir(), ttl=CHAOS.lease_ttl)
        while not store.active_leases() and time.time() < deadline:
            time.sleep(0.05)
        assert store.active_leases(), "victim never claimed a lease"
        victim.kill()
        victim.join(timeout=30)

        dist = execute_parallel(
            name,
            GridSpec(),
            runs_dir=tmp_path / "dist",
            workers=2,
            cfg=CHAOS,
        )
        assert result_bytes(serial) == result_bytes(dist)
    finally:
        registry_module.unregister(name)


def test_dataset_chaos_manifest_identical(tmp_path, monkeypatch):
    config = tiny_pipeline_config()
    serial = build_shards(config, tmp_path / "serial", workers=1)
    monkeypatch.setenv("REPRO_FAULT_PLAN", "torn_write@*")
    dist = build_shards(config, tmp_path / "dist", workers=2, cfg=CHAOS)
    assert dist.manifest == serial.manifest
    assert (tmp_path / "serial" / "manifest.json").read_bytes() == (
        tmp_path / "dist" / "manifest.json"
    ).read_bytes()
    for shard in serial.manifest["shards"]:
        assert (tmp_path / "serial" / shard["filename"]).read_bytes() == (
            tmp_path / "dist" / shard["filename"]
        ).read_bytes()


def test_crash_fault_executes_unit_exactly_once_more(
    tmp_path, grid, monkeypatch
):
    # crash_before_commit costs exactly one extra execution of the
    # targeted unit (the crashed attempt), never a crash loop
    name, log_dir = grid
    monkeypatch.setenv("REPRO_FAULT_PLAN", "crash_before_commit@beta")
    execute_parallel(
        name, GridSpec(), runs_dir=tmp_path / "dist", workers=2, cfg=CHAOS
    )
    assert count_unit_executions(log_dir, "beta") == 2
    assert count_unit_executions(log_dir, "alpha") == 1
    assert count_unit_executions(log_dir, "gamma") == 1
