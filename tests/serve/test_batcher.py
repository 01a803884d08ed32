"""One job per turn, ordering, failure isolation and shutdown of the batcher."""

import threading
import time

import pytest

from repro.serve.batcher import BatcherClosed, BatcherSaturated, MicroBatcher


def submit_all(batcher, jobs):
    """Submit jobs concurrently; returns results in submission order."""
    results = [None] * len(jobs)
    errors = [None] * len(jobs)
    barrier = threading.Barrier(len(jobs))

    def worker(i, job):
        barrier.wait()
        try:
            results[i] = batcher.submit(job)
        except Exception as exc:  # noqa: BLE001 - collected for asserts
            errors[i] = exc

    threads = [
        threading.Thread(target=worker, args=(i, j))
        for i, j in enumerate(jobs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


class TestOneJobPerTurn:
    def test_concurrent_jobs_run_one_at_a_time_on_the_worker(self):
        running = []
        overlap = []
        threads = set()

        def run(job):
            running.append(job)
            overlap.append(len(running))
            threads.add(threading.current_thread().name)
            time.sleep(0.001)
            running.remove(job)
            return job * 2

        batcher = MicroBatcher(run)
        try:
            results, errors = submit_all(batcher, [1, 2, 3, 4])
        finally:
            batcher.close()
        assert errors == [None] * 4
        assert results == [2, 4, 6, 8]
        assert max(overlap) == 1
        assert threads == {"repro-serve-batcher"}
        assert batcher.jobs == 4

    def test_queued_jobs_run_in_arrival_order(self):
        release = threading.Event()
        order = []

        def run(job):
            release.wait(timeout=30)
            order.append(job)
            return job

        batcher = MicroBatcher(run)
        threads = []
        try:
            for i in range(4):
                threads.append(
                    threading.Thread(target=batcher.submit, args=(i,))
                )
                threads[-1].start()
                # job i is queued (or running) before job i + 1 is sent
                deadline = time.monotonic() + 30
                while batcher._pending < i + 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            release.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            release.set()
            batcher.close()
        assert order == [0, 1, 2, 3]
        assert batcher.jobs == 4

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatcher(lambda job: job, max_queue=0)


class TestSaturation:
    def test_overflow_submits_are_rejected_not_queued(self):
        # wedge the worker so submitted jobs stay in flight, then push
        # more than max_queue: the overflow must fail fast, not block
        wedged = threading.Event()
        release = threading.Event()

        def run(job):
            wedged.set()
            release.wait(timeout=30)
            return job

        batcher = MicroBatcher(run, max_queue=2)
        try:
            outcomes = {}

            def worker(i):
                try:
                    outcomes[i] = ("ok", batcher.submit(i))
                except Exception as exc:  # noqa: BLE001
                    outcomes[i] = ("err", exc)

            first = threading.Thread(target=worker, args=(0,))
            first.start()
            assert wedged.wait(timeout=5)
            second = threading.Thread(target=worker, args=(1,))
            second.start()
            time.sleep(0.05)  # let job 1 land in the queue
            # in-flight count is now at max_queue: these must bounce
            for i in (2, 3, 4):
                worker(i)
            assert all(
                isinstance(outcomes[i][1], BatcherSaturated)
                for i in (2, 3, 4)
            )
            assert batcher.rejected == 3
            release.set()
            first.join(timeout=5)
            second.join(timeout=5)
            assert outcomes[0] == ("ok", 0)
            assert outcomes[1] == ("ok", 1)
        finally:
            release.set()
            batcher.close()

    def test_capacity_frees_up_after_completion(self):
        batcher = MicroBatcher(lambda job: job, max_queue=1)
        try:
            for i in range(5):
                assert batcher.submit(i) == i
            assert batcher.rejected == 0
        finally:
            batcher.close()


class TestFailures:
    def test_raising_job_fails_only_its_submitter(self):
        def run(job):
            if job == "bad":
                raise ValueError(f"bad {job}")
            return job

        batcher = MicroBatcher(run)
        try:
            results, errors = submit_all(batcher, ["ok", "bad", "ok2"])
        finally:
            batcher.close()
        assert results[0] == "ok" and results[2] == "ok2"
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ValueError)

    def test_worker_survives_a_raising_job(self):
        state = {"fail": True}

        def run(job):
            if state.pop("fail", False):
                raise RuntimeError("first job fails")
            return job

        batcher = MicroBatcher(run)
        try:
            with pytest.raises(RuntimeError, match="first job fails"):
                batcher.submit("a")
            assert batcher.submit("b") == "b"
        finally:
            batcher.close()
        assert batcher.jobs == 2


class TestShutdown:
    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda job: job)
        batcher.close()
        with pytest.raises(BatcherClosed):
            batcher.submit("x")

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(lambda job: job)
        batcher.close()
        batcher.close()

    def test_close_drains_queued_work(self):
        release = threading.Event()

        def run(job):
            release.wait(timeout=5)
            return job

        batcher = MicroBatcher(run)
        results, errors = [], []

        def worker():
            try:
                results.append(batcher.submit("job"))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        t = threading.Thread(target=worker)
        t.start()
        time.sleep(0.05)
        release.set()
        batcher.close()
        t.join(timeout=5)
        assert results == ["job"]
        assert errors == []

    def test_wedged_worker_fails_queued_futures(self):
        """If a job's run never returns, close() must not leave later
        submitters blocked forever on futures nobody will resolve."""
        wedged = threading.Event()
        release = threading.Event()

        def run(job):
            wedged.set()
            # simulate a hung model pass (released during cleanup so the
            # daemon thread does not outlive the test)
            release.wait(timeout=30)
            return job

        batcher = MicroBatcher(run)
        outcomes = {}

        def worker(name):
            try:
                outcomes[name] = ("ok", batcher.submit(name))
            except Exception as exc:  # noqa: BLE001
                outcomes[name] = ("err", exc)

        first = threading.Thread(target=worker, args=("wedged-job",))
        first.start()
        assert wedged.wait(timeout=5)
        # these land in the queue behind the wedged job
        queued = [
            threading.Thread(target=worker, args=(f"queued-{i}",))
            for i in range(3)
        ]
        for t in queued:
            t.start()
        time.sleep(0.05)
        batcher.close(timeout=0.2)
        for t in queued:
            t.join(timeout=5)
            assert not t.is_alive(), "queued submitter still blocked"
        for i in range(3):
            kind, value = outcomes[f"queued-{i}"]
            assert kind == "err"
            assert isinstance(value, BatcherClosed)
        release.set()
        first.join(timeout=5)
