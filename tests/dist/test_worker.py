"""The claim/execute/commit worker loop: heartbeats, drain, quarantine."""

import multiprocessing
import threading
import time

import pytest

from repro.dist.config import DistConfig
from repro.dist.dispatcher import _worker_proc_main
from repro.dist.leases import LeaseStore
from repro.dist.work import ExperimentWorkSource
from repro.dist.worker import run_worker
from repro.runtime import registry as registry_module

from ..helpers import GridSpec, count_unit_executions, register_grid_experiment

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


def make_source(name, tmp_path, spec=None):
    return ExperimentWorkSource(name, spec, tmp_path / "runs")


class TestRunWorker:
    def test_single_worker_resolves_everything(self, tmp_path, grid):
        name, log_dir = grid
        source = make_source(name, tmp_path)
        report = run_worker(source, FAST)
        assert sorted(report.completed) == sorted(
            item.key for item in source.items()
        )
        assert report.failed == 0 and report.poisoned == []
        assert all(item.is_done() for item in source.items())
        assert count_unit_executions(log_dir) == 3
        # every lease was released on the way out
        store = LeaseStore(source.coordination_dir(), ttl=FAST.lease_ttl)
        assert store.active_leases() == []

    def test_second_worker_finds_nothing(self, tmp_path, grid):
        name, log_dir = grid
        source = make_source(name, tmp_path)
        run_worker(source, FAST)
        report = run_worker(source, FAST)
        assert report.completed == []
        assert report.skipped_done == 0  # done items are skipped pre-claim
        assert count_unit_executions(log_dir) == 3

    def test_heartbeat_outlives_slow_units(self, tmp_path):
        # units take longer than the lease TTL: only live heartbeats keep
        # a rival worker from reclaiming mid-execution and double-running
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        name = register_grid_experiment(
            "fake-grid-slow", log_dir=log_dir, unit_sleep=1.2
        )
        cfg = DistConfig(
            lease_ttl=0.6,
            heartbeat_interval=0.15,
            max_attempts=2,
            backoff_base=0.05,
            backoff_cap=0.1,
            poll_interval=0.02,
        )
        try:
            source = make_source(name, tmp_path)
            reports = []
            threads = [
                threading.Thread(
                    target=lambda i=i: reports.append(
                        run_worker(source, cfg, owner=f"w{i}@test")
                    )
                )
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            registry_module.unregister(name)
        assert all(item.is_done() for item in source.items())
        for row in ("alpha", "beta", "gamma"):
            assert count_unit_executions(log_dir, row) == 1
        assert sum(r.abandoned for r in reports) == 0

    def test_preset_stop_event_drains_without_claiming(self, tmp_path, grid):
        name, log_dir = grid
        source = make_source(name, tmp_path)
        stop = threading.Event()
        stop.set()
        report = run_worker(source, FAST, stop_event=stop)
        assert report.drained
        assert report.completed == []
        assert count_unit_executions(log_dir) == 0

    def test_stop_mid_run_finishes_in_flight_and_releases(
        self, tmp_path
    ):
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        name = register_grid_experiment(
            "fake-grid-drain", log_dir=log_dir, unit_sleep=0.5
        )
        try:
            source = make_source(name, tmp_path)
            stop = threading.Event()
            out = []
            worker = threading.Thread(
                target=lambda: out.append(
                    run_worker(source, FAST, stop_event=stop)
                )
            )
            worker.start()
            stop_timer = threading.Timer(0.15, stop.set)
            stop_timer.start()
            worker.join(timeout=30)
            stop_timer.cancel()
            assert not worker.is_alive()
            report = out[0]
            assert report.drained
            # the in-flight unit was finished and committed, not dropped
            assert len(report.completed) >= 1
            store = LeaseStore(
                source.coordination_dir(), ttl=FAST.lease_ttl
            )
            assert store.active_leases() == []
            # a fresh worker completes the remainder
            run_worker(source, FAST)
            assert all(item.is_done() for item in source.items())
            for row in ("alpha", "beta", "gamma"):
                assert count_unit_executions(log_dir, row) == 1
        finally:
            registry_module.unregister(name)

    def test_failing_unit_retries_then_quarantines(self, tmp_path, grid):
        name, log_dir = grid
        spec = GridSpec(rows=("alpha", "explode"))
        source = make_source(name, tmp_path, spec)
        report = run_worker(source, FAST)
        # alpha committed; explode burned max_attempts then got poisoned
        done = [item for item in source.items() if item.is_done()]
        assert [item.label for item in done] == ["alpha"]
        assert report.failed == FAST.max_attempts
        assert len(report.poisoned) == 1
        store = LeaseStore(source.coordination_dir(), ttl=FAST.lease_ttl)
        poisoned = store.poisoned()
        (record,) = poisoned.values()
        assert record["attempts"] == FAST.max_attempts
        assert "unit exploded" in record["last_error"]
        assert count_unit_executions(log_dir, "alpha") == 1
        # a second worker sees a fully-resolved source and returns at once
        again = run_worker(source, FAST)
        assert again.completed == [] and again.failed == 0

    def test_final_attempt_in_flight_is_not_poisoned_by_peers(self, tmp_path):
        # attempts are recorded before execution, so while one worker
        # runs an item's *final* permitted attempt its count already
        # reads max_attempts; a scanning peer must not quarantine it out
        # from under the live lease.  max_attempts=1 makes every first
        # claim a final attempt, and slow units widen the window.
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        name = register_grid_experiment(
            "fake-grid-final", log_dir=log_dir, unit_sleep=0.4
        )
        cfg = DistConfig(
            lease_ttl=5.0,
            heartbeat_interval=0.1,
            max_attempts=1,
            backoff_base=0.05,
            backoff_cap=0.1,
            poll_interval=0.02,
        )
        try:
            source = make_source(name, tmp_path)
            reports = []
            threads = [
                threading.Thread(
                    target=lambda i=i: reports.append(
                        run_worker(source, cfg, owner=f"w{i}@test")
                    )
                )
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            registry_module.unregister(name)
        assert all(item.is_done() for item in source.items())
        assert all(r.poisoned == [] for r in reports)
        store = LeaseStore(source.coordination_dir(), ttl=cfg.lease_ttl)
        assert store.poisoned() == {}
        for row in ("alpha", "beta", "gamma"):
            assert count_unit_executions(log_dir, row) == 1

    def test_orphaned_exhausted_item_is_quarantined(self, tmp_path, grid):
        # a worker that crashed mid-final-attempt leaves count ==
        # max_attempts, no poison record and (eventually) no fresh
        # lease: the next scan must still converge by acquiring the
        # lease and quarantining — never by re-executing
        name, log_dir = grid
        spec = GridSpec(rows=("alpha", "explode"))
        source = make_source(name, tmp_path, spec)
        store = LeaseStore(source.coordination_dir(), ttl=FAST.lease_ttl)
        (explode,) = [i for i in source.items() if i.label == "explode"]
        store.record_attempt(
            explode.key,
            FAST.max_attempts,
            next_eligible_at=0.0,
            last_error="RuntimeError: unit exploded",
        )
        report = run_worker(source, FAST)
        assert report.poisoned == [explode.key]
        assert report.failed == 0
        assert count_unit_executions(log_dir, "explode") == 0
        record = store.poisoned()[explode.key]
        assert record["attempts"] == FAST.max_attempts
        assert store.active_leases() == []

    def test_quarantine_blocked_by_live_foreign_lease(self, tmp_path, grid):
        # an exhausted-looking item under a *fresh* foreign lease is a
        # final attempt in flight: the scan must leave it alone
        name, _ = grid
        spec = GridSpec(rows=("alpha",))
        source = make_source(name, tmp_path, spec)
        (item,) = source.items()
        store = LeaseStore(source.coordination_dir(), ttl=FAST.lease_ttl)
        store.record_attempt(
            item.key, FAST.max_attempts, next_eligible_at=0.0
        )
        assert store.try_acquire(item.key, "rival@host:1:aa") is not None
        stop = threading.Event()
        out = []
        worker = threading.Thread(
            target=lambda: out.append(
                run_worker(source, FAST, stop_event=stop)
            )
        )
        worker.start()
        time.sleep(0.3)  # several scan rounds against the held item
        assert store.poisoned() == {}
        stop.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert out[0].drained and out[0].poisoned == []
        # the rival's lease was never disturbed
        assert store.owns(item.key, "rival@host:1:aa")

    def test_unitless_experiment_rejected(self, tmp_path):
        from repro.runtime import ExperimentResult, experiment

        @experiment("fake-unitless", spec=GridSpec, title="No units")
        def run(spec):
            return ExperimentResult(
                experiment="fake-unitless", rows=[], table=""
            )

        try:
            with pytest.raises(ValueError, match="unit decomposition"):
                ExperimentWorkSource(
                    "fake-unitless", GridSpec(), tmp_path / "runs"
                )
        finally:
            registry_module.unregister("fake-unitless")

    def test_progress_events_are_emitted(self, tmp_path, grid):
        name, _ = grid
        source = make_source(name, tmp_path)
        events = []
        run_worker(source, FAST, progress=events.append)
        assert [(e["label"], e["index"], e["total"]) for e in events] == [
            ("alpha", 0, 3), ("beta", 1, 3), ("gamma", 2, 3),
        ]
        assert {e["status"] for e in events} == {"done"}
        assert all(e["elapsed"] > 0 and e["detail"] == "" for e in events)


class TestDrain:
    def test_sigterm_ends_an_idle_wait_at_once(self, tmp_path, grid):
        # the only item is leased by a live rival, so the worker idles;
        # with a 5 s poll interval, SIGTERM must still end it in < 1 s
        name, _ = grid
        source = make_source(name, tmp_path, GridSpec(rows=("alpha",)))
        (item,) = source.items()
        store = LeaseStore(source.coordination_dir(), ttl=60.0)
        assert store.try_acquire(item.key, "rival@host:1:aa") is not None
        cfg = DistConfig(
            lease_ttl=60.0, heartbeat_interval=1.0, poll_interval=5.0
        )
        kind, args = source.subprocess_payload()
        worker = multiprocessing.get_context("fork").Process(
            target=_worker_proc_main, args=(kind, args, cfg, 0)
        )
        worker.start()
        try:
            time.sleep(0.5)  # past its first scan, into the idle wait
            signalled = time.monotonic()
            worker.terminate()
            worker.join(timeout=3)
            assert not worker.is_alive(), "idle worker ignored SIGTERM"
            assert time.monotonic() - signalled < 1.0
            assert worker.exitcode == 0  # drained, not killed
        finally:
            if worker.is_alive():
                worker.kill()
                worker.join()
        assert store.owns(item.key, "rival@host:1:aa")
