"""Tests for the parallel executor (the lease fleet) and per-unit cache
directories."""

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

from repro.dist import DistConfig, PoisonedWorkError
from repro.dist.leases import LeaseStore
from repro.dist.work import COORD_DIR_NAME, ExperimentWorkSource
from repro.dist.worker import run_worker
from repro.runtime import (
    execute,
    execute_parallel,
    load_unit_result,
    run_dir_for,
    spec_hash,
    unit_dir_for,
    unit_hash,
)
from repro.runtime import registry as registry_module
from repro.runtime.parallel import UNITS_DIR_NAME
from repro.runtime.registry import UnitSpec
from repro.runtime.runner import MANIFEST_NAME

from ..helpers import (
    GridSpec,
    count_unit_executions,
    register_grid_experiment,
)


# retries and backoff short enough that a failing unit costs
# milliseconds, not the production defaults
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
    """A registered fake grid experiment logging executions to disk."""
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    name = register_grid_experiment("fake-grid", log_dir=log_dir)
    try:
        yield name, log_dir
    finally:
        registry_module.unregister(name)


def result_bytes(record):
    return (record.out_dir / "result.json").read_bytes()


class TestUnitHash:
    def test_stable_and_key_sensitive(self):
        a = unit_hash("deadbeef", UnitSpec(key="alpha"))
        assert a == unit_hash("deadbeef", UnitSpec(key="alpha"))
        assert a != unit_hash("deadbeef", UnitSpec(key="beta"))
        assert a != unit_hash("cafebabe", UnitSpec(key="alpha"))

    def test_title_and_params_do_not_rekey(self):
        # cosmetic fields must not invalidate a unit's cache
        plain = unit_hash("d", UnitSpec(key="alpha"))
        decorated = unit_hash(
            "d", UnitSpec(key="alpha", title="Row α", params=(("x", 1),))
        )
        assert plain == decorated


class TestExecuteParallel:
    def test_serial_and_parallel_byte_identical(self, tmp_path, grid):
        name, _ = grid
        a = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path / "a", workers=1
        )
        b = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path / "b", workers=3
        )
        assert result_bytes(a) == result_bytes(b)
        assert a.result["rows"] == [
            {"row": "alpha", "value": 10},
            {"row": "beta", "value": 8},
            {"row": "gamma", "value": 10},
        ]

    def test_matches_plain_serial_execute(self, tmp_path, grid):
        name, _ = grid
        serial = execute(name, GridSpec(), runs_dir=tmp_path / "serial")
        parallel = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path / "par", workers=2
        )
        assert result_bytes(serial) == result_bytes(parallel)

    def test_unit_dirs_written(self, tmp_path, grid):
        name, _ = grid
        record = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path, workers=2
        )
        units_dir = record.out_dir / UNITS_DIR_NAME
        assert len(list(units_dir.iterdir())) == 3
        digest = unit_hash(record.spec_hash, UnitSpec(key="alpha"))
        cached = load_unit_result(
            unit_dir_for(record.out_dir, digest), digest
        )
        assert cached == {"row": "alpha", "value": 10}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_finished_run_holds_no_coordination_state(
        self, tmp_path, grid, workers
    ):
        name, _ = grid
        record = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path, workers=workers, cfg=FAST
        )
        assert not (record.out_dir / COORD_DIR_NAME).exists()
        manifest = json.loads((record.out_dir / MANIFEST_NAME).read_text())
        assert manifest["workers"] == workers
        assert manifest["fleet"] == {
            "worker_deaths": 0,
            "respawns": 0,
            "ran_inline": workers == 1,
        }

    def test_run_level_cache_hit_executes_nothing(self, tmp_path, grid):
        name, log_dir = grid
        execute_parallel(name, GridSpec(), runs_dir=tmp_path, workers=2)
        before = count_unit_executions(log_dir)
        record = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path, workers=2
        )
        assert record.cache_hit
        assert count_unit_executions(log_dir) == before == 3

    def test_killed_run_resumes_from_completed_units(self, tmp_path, grid):
        """No top-level manifest + one missing unit == re-run that unit."""
        name, log_dir = grid
        first = execute_parallel(name, GridSpec(), runs_dir=tmp_path, workers=2)
        payload = result_bytes(first)
        # simulate a kill after two units completed: drop the certifying
        # manifest and one unit's directory
        (first.out_dir / MANIFEST_NAME).unlink()
        digest = unit_hash(first.spec_hash, UnitSpec(key="beta"))
        beta_dir = unit_dir_for(first.out_dir, digest)
        for f in beta_dir.iterdir():
            f.unlink()
        beta_dir.rmdir()

        resumed = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path, workers=2
        )
        assert not resumed.cache_hit
        assert result_bytes(resumed) == payload
        assert count_unit_executions(log_dir, "beta") == 2
        assert count_unit_executions(log_dir, "alpha") == 1
        assert count_unit_executions(log_dir, "gamma") == 1

    def test_corrupt_unit_dir_re_runs_that_unit_alone(self, tmp_path, grid):
        name, log_dir = grid
        first = execute_parallel(name, GridSpec(), runs_dir=tmp_path, workers=1)
        (first.out_dir / MANIFEST_NAME).unlink()
        digest = unit_hash(first.spec_hash, UnitSpec(key="gamma"))
        gamma_dir = unit_dir_for(first.out_dir, digest)
        (gamma_dir / "result.json").write_text("{chopped")
        resumed = execute_parallel(name, GridSpec(), runs_dir=tmp_path)
        assert result_bytes(resumed) == result_bytes(first)
        assert count_unit_executions(log_dir, "gamma") == 2
        assert count_unit_executions(log_dir, "alpha") == 1

    def test_stale_unit_manifest_is_miss(self, tmp_path, grid):
        name, log_dir = grid
        first = execute_parallel(name, GridSpec(), runs_dir=tmp_path)
        (first.out_dir / MANIFEST_NAME).unlink()
        digest = unit_hash(first.spec_hash, UnitSpec(key="alpha"))
        alpha_dir = unit_dir_for(first.out_dir, digest)
        manifest = json.loads((alpha_dir / "unit.json").read_text())
        manifest["unit_hash"] = "0" * 64  # stale: from some other unit
        (alpha_dir / "unit.json").write_text(json.dumps(manifest))
        execute_parallel(name, GridSpec(), runs_dir=tmp_path)
        assert count_unit_executions(log_dir, "alpha") == 2

    def test_unrelated_files_in_units_dir_ignored(self, tmp_path, grid):
        name, _ = grid
        first = execute_parallel(name, GridSpec(), runs_dir=tmp_path)
        (first.out_dir / MANIFEST_NAME).unlink()
        stray = first.out_dir / UNITS_DIR_NAME / "0123456789abcdef"
        stray.mkdir()
        (stray / "junk.txt").write_text("stale layout leftovers")
        resumed = execute_parallel(name, GridSpec(), runs_dir=tmp_path)
        assert result_bytes(resumed) == result_bytes(first)

    def test_force_reruns_every_unit_and_drops_unit_caches(
        self, tmp_path, grid
    ):
        name, log_dir = grid
        first = execute_parallel(name, GridSpec(), runs_dir=tmp_path)
        stray = first.out_dir / UNITS_DIR_NAME / "feedfacefeedface"
        stray.mkdir(parents=True)
        record = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path, workers=2, force=True
        )
        assert not record.cache_hit
        assert count_unit_executions(log_dir) == 6
        assert not stray.exists()

    def test_changed_spec_changes_run_dir(self, tmp_path, grid):
        name, _ = grid
        a = execute_parallel(name, GridSpec(), runs_dir=tmp_path)
        b = execute_parallel(name, GridSpec(factor=3), runs_dir=tmp_path)
        assert a.out_dir != b.out_dir
        assert a.result["rows"] != b.result["rows"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_unit_is_poisoned_but_keeps_siblings(
        self, tmp_path, grid, workers
    ):
        name, log_dir = grid
        spec = GridSpec(rows=("alpha", "beta", "explode"))
        with pytest.raises(PoisonedWorkError) as excinfo:
            execute_parallel(
                name, spec, runs_dir=tmp_path, workers=workers, cfg=FAST
            )
        # the error names the unit by its label, with its last error
        message = str(excinfo.value)
        assert "- explode [" in message
        assert "RuntimeError: unit exploded" in message
        assert list(excinfo.value.poisoned.values())[0]["label"] == "explode"
        # alpha and beta ran once and kept their unit caches; explode
        # raised before logging; no run manifest certifies the failure
        assert count_unit_executions(log_dir) == 2
        run_digest = spec_hash(name, spec)
        out_dir = run_dir_for(tmp_path, name, run_digest)
        for row in ("alpha", "beta"):
            digest = unit_hash(run_digest, UnitSpec(key=row))
            cached = load_unit_result(unit_dir_for(out_dir, digest), digest)
            assert cached == {"row": row, "value": len(row) * 2}
        assert not (out_dir / MANIFEST_NAME).exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rerun_after_a_fix_retries_the_poisoned_unit(
        self, tmp_path, grid, workers
    ):
        # the retry budget is per run: once the bug is fixed, a plain
        # rerun (no force) runs the quarantined unit again and reuses
        # its finished sibling
        name, log_dir = grid
        spec = GridSpec(rows=("alpha", "explode"))
        with pytest.raises(PoisonedWorkError):
            execute_parallel(
                name, spec, runs_dir=tmp_path, workers=workers, cfg=FAST
            )
        (log_dir / "fixed").write_text("")
        record = execute_parallel(
            name, spec, runs_dir=tmp_path, workers=workers, cfg=FAST
        )
        assert [r["row"] for r in record.result["rows"]] == [
            "alpha", "explode",
        ]
        assert count_unit_executions(log_dir, "alpha") == 1
        assert count_unit_executions(log_dir, "explode") == 1
        assert not (record.out_dir / COORD_DIR_NAME).exists()

    def test_killed_run_resumes_without_spending_retries_or_waiting(
        self, tmp_path
    ):
        # a worker is kill -9'd mid-unit after earlier interrupts used
        # up that unit's attempts: the next run neither quarantines the
        # unit nor waits out the dead worker's lease
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        name = register_grid_experiment(
            "fake-grid-killed", log_dir=log_dir, unit_sleep=0.5
        )
        cfg = dataclasses.replace(FAST, lease_ttl=30.0)
        try:
            source = ExperimentWorkSource(name, GridSpec(), tmp_path)
            store = LeaseStore(source.coordination_dir(), ttl=cfg.lease_ttl)
            victim = multiprocessing.get_context("fork").Process(
                target=run_worker, args=(source, cfg)
            )
            victim.start()
            deadline = time.monotonic() + 10
            while not store.active_leases() and time.monotonic() < deadline:
                time.sleep(0.02)
            victim.kill()
            victim.join(timeout=10)
            assert not victim.is_alive()
            (lease,) = store.active_leases()
            store.record_attempt(
                lease.key, cfg.max_attempts, next_eligible_at=0.0
            )
            start = time.monotonic()
            record = execute_parallel(
                name, GridSpec(), runs_dir=tmp_path, workers=1, cfg=cfg
            )
            took = time.monotonic() - start
        finally:
            registry_module.unregister(name)
        assert took < cfg.lease_ttl / 3
        assert [r["row"] for r in record.result["rows"]] == [
            "alpha", "beta", "gamma",
        ]
        assert not (record.out_dir / COORD_DIR_NAME).exists()

    def test_progress_events(self, tmp_path, grid):
        name, _ = grid
        events = []
        record = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path, workers=2,
            progress=events.append,
        )
        assert sorted(e["key"] for e in events) == ["alpha", "beta", "gamma"]
        assert all(e["status"] == "done" and e["total"] == 3 for e in events)
        # reported elapsed is the worker-measured execution time (what
        # unit.json records), not submit-to-completion queue time
        for event in events:
            digest = unit_hash(record.spec_hash, UnitSpec(key=event["key"]))
            manifest = json.loads(
                (unit_dir_for(record.out_dir, digest) / "unit.json").read_text()
            )
            assert event["elapsed"] == manifest["elapsed"]
        events.clear()
        record = execute_parallel(
            name, GridSpec(), runs_dir=tmp_path, force=False
        )
        assert record.cache_hit  # run-level hit emits no unit events
        assert events == []

    def test_progress_arrives_as_subprocess_workers_commit(self, tmp_path):
        # two fleet processes run alpha and beta, then one of them runs
        # gamma: the dispatcher reports the first two while gamma is
        # still running, not in a burst once the run is over
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        name = register_grid_experiment(
            "fake-grid-live", log_dir=log_dir, unit_sleep=0.5
        )
        events = []
        try:
            execute_parallel(
                name, GridSpec(), runs_dir=tmp_path, workers=2, cfg=FAST,
                progress=lambda e: events.append((time.monotonic(), e)),
            )
            finished = time.monotonic()
        finally:
            registry_module.unregister(name)
        assert sorted(e["key"] for _, e in events) == [
            "alpha", "beta", "gamma",
        ]
        assert all(e["status"] == "done" for _, e in events)
        # no unit ran in this process: the workers did all of it
        assert not any(
            f"-{os.getpid()}-" in p.name for p in log_dir.iterdir()
        )
        first = min(t for t, _ in events)
        assert finished - first > 0.3

    def test_cached_progress_events_on_resume(self, tmp_path, grid):
        name, _ = grid
        first = execute_parallel(name, GridSpec(), runs_dir=tmp_path)
        (first.out_dir / MANIFEST_NAME).unlink()
        events = []
        execute_parallel(
            name, GridSpec(), runs_dir=tmp_path, progress=events.append
        )
        assert {e["status"] for e in events} == {"cached"}
        assert len(events) == 3

    def test_non_unit_experiment_falls_back_to_serial(self, tmp_path):
        from dataclasses import dataclass

        from repro.runtime import (
            ExperimentResult,
            ExperimentSpec,
            experiment,
        )

        @dataclass(frozen=True)
        class PlainSpec(ExperimentSpec):
            pass

        @experiment("plain-exp", spec=PlainSpec, title="Plain")
        def run_plain(spec):
            return ExperimentResult(
                experiment="plain-exp", rows=[{"x": 1}], table="x=1"
            )

        try:
            record = execute_parallel(
                "plain-exp", runs_dir=tmp_path, workers=4
            )
            assert record.result["rows"] == [{"x": 1}]
            assert not (record.out_dir / UNITS_DIR_NAME).exists()
        finally:
            registry_module.unregister("plain-exp")


class TestRegistryUnitAPI:
    def test_units_without_run_unit_rejected(self):
        from repro.runtime import experiment

        with pytest.raises(TypeError, match="together"):
            experiment(
                "half-unit",
                spec=GridSpec,
                title="bad",
                units=lambda s: [],
            )

    def test_supports_units_flag(self, grid):
        from repro.runtime import get_experiment

        name, _ = grid
        exp = get_experiment(name)
        assert exp.supports_units
        assert [u.key for u in exp.units(GridSpec())] == [
            "alpha", "beta", "gamma",
        ]

    def test_all_six_builtins_support_units(self):
        from repro.runtime import get_experiment

        for name in ("table1", "table2", "table3", "table4",
                     "tsweep", "ablations"):
            exp = get_experiment(name)
            assert exp.supports_units, name
            units = exp.units(exp.spec_type())
            assert units, name
            assert len({u.key for u in units}) == len(units), name
