"""Lease lifecycle: acquire, heartbeat, stale reclaim, attempts, poison."""

import json
import os
import socket
import subprocess
import sys
import threading

from repro.dist.leases import (
    AttemptRecord,
    Lease,
    LeaseStore,
    new_owner_id,
)


def make_store(tmp_path, ttl=10.0):
    return LeaseStore(tmp_path / "coord", ttl=ttl)


class TestOwnerId:
    def test_unique_and_labelled(self):
        a = new_owner_id("worker")
        b = new_owner_id("worker")
        assert a != b
        assert a.startswith("worker@")


class TestAcquireRelease:
    def test_acquire_then_foreign_acquire_fails(self, tmp_path):
        store = make_store(tmp_path)
        lease = store.try_acquire("k", "owner-a")
        assert lease is not None and lease.owner == "owner-a"
        assert lease.attempt == 1
        assert store.owns("k", "owner-a")
        assert store.try_acquire("k", "owner-b") is None

    def test_release_frees_the_key(self, tmp_path):
        store = make_store(tmp_path)
        store.try_acquire("k", "owner-a")
        assert store.release("k", "owner-a")
        assert store.read("k") is None
        assert store.try_acquire("k", "owner-b") is not None

    def test_release_by_non_owner_is_refused(self, tmp_path):
        store = make_store(tmp_path)
        store.try_acquire("k", "owner-a")
        assert not store.release("k", "owner-b")
        assert store.owns("k", "owner-a")

    def test_lease_file_is_complete_json(self, tmp_path):
        # the create path hard-links a fully-written temp file, so the
        # lease on disk is always parseable with every field present
        store = make_store(tmp_path)
        store.try_acquire("k", "owner-a")
        data = json.loads(store.lease_path("k").read_text())
        assert Lease.from_dict(data) is not None


class TestHeartbeat:
    def test_heartbeat_advances_timestamp(self, tmp_path):
        store = make_store(tmp_path)
        lease = store.try_acquire("k", "owner-a", now=100.0)
        assert lease.heartbeat_at == 100.0
        assert store.heartbeat("k", "owner-a")
        assert store.read("k").heartbeat_at > 100.0

    def test_heartbeat_after_loss_fails(self, tmp_path):
        store = make_store(tmp_path)
        store.try_acquire("k", "owner-a")
        store.release("k", "owner-a")
        assert not store.heartbeat("k", "owner-a")

    def test_heartbeat_by_non_owner_fails(self, tmp_path):
        store = make_store(tmp_path)
        store.try_acquire("k", "owner-a")
        assert not store.heartbeat("k", "owner-b")


def _exited_pid() -> int:
    """The pid of a child process that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=30)
    return child.pid


class TestStaleReclaim:
    def test_stale_lease_is_reclaimed_with_attempt_bump(self, tmp_path):
        store = make_store(tmp_path, ttl=5.0)
        store.try_acquire("k", "dead-owner", now=1000.0)
        # TTL has long expired at now=2000
        lease = store.try_acquire("k", "owner-b", now=2000.0)
        assert lease is not None
        assert lease.owner == "owner-b"
        assert lease.attempt == 2

    def test_fresh_lease_is_not_reclaimed(self, tmp_path):
        store = make_store(tmp_path, ttl=5.0)
        store.try_acquire("k", "owner-a", now=1000.0)
        assert store.try_acquire("k", "owner-b", now=1004.0) is None

    def test_lease_of_an_exited_local_process_is_reclaimed_at_once(
        self, tmp_path
    ):
        # nobody can renew it, so it does not wait out its TTL
        store = make_store(tmp_path, ttl=60.0)
        gone = _exited_pid()
        owner = f"worker@{socket.gethostname()}:{gone}:0123abcd"
        store.try_acquire("k", owner, now=1000.0)
        lease = store.try_acquire("k", "owner-b", now=1001.0)
        assert lease is not None and lease.attempt == 2

    def test_live_or_remote_owners_keep_their_lease_until_the_ttl(
        self, tmp_path
    ):
        store = make_store(tmp_path, ttl=60.0)
        host = socket.gethostname()
        owners = {
            "live": f"worker@{host}:{os.getpid()}:0123abcd",
            "remote": f"worker@elsewhere.invalid:{_exited_pid()}:0123abcd",
            "no-pid": f"worker@{host}:{'9' * 30}:0123abcd",
        }
        for key, owner in owners.items():
            store.try_acquire(key, owner, now=1000.0)
            assert store.try_acquire(key, "owner-b", now=1001.0) is None

    def test_corrupt_lease_is_reclaimed(self, tmp_path):
        store = make_store(tmp_path)
        store.try_acquire("k", "owner-a")
        store.lease_path("k").write_text("{ not json")
        lease = store.try_acquire("k", "owner-b")
        assert lease is not None and lease.owner == "owner-b"

    def test_exactly_one_of_racing_claimants_wins(self, tmp_path):
        # N threads race to reclaim the same expired lease; the
        # tombstone-rename CAS must let exactly one through
        store = make_store(tmp_path, ttl=1.0)
        store.try_acquire("k", "dead-owner", now=0.0)
        barrier = threading.Barrier(8)
        wins = []
        lock = threading.Lock()

        def claim(n):
            contender = LeaseStore(tmp_path / "coord", ttl=1.0)
            barrier.wait()
            lease = contender.try_acquire("k", f"claimant-{n}", now=1e9)
            if lease is not None:
                with lock:
                    wins.append(lease.owner)

        threads = [
            threading.Thread(target=claim, args=(n,)) for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert store.read("k").owner == wins[0]
        assert store.read("k").attempt == 2

    def test_young_reclaim_marker_blocks_fresh_acquire(self, tmp_path):
        # a reclaim mid-flight shows as no lease file plus a young
        # marker; acquiring fresh in that window would reset the attempt
        # count and race the reclaimer's publish
        store = make_store(tmp_path, ttl=5.0)
        leases = tmp_path / "coord" / "leases"
        leases.mkdir(parents=True)
        (leases / ".k.json.reclaiming").write_text(
            json.dumps({"owner": "reclaimer", "at": 1000.0})
        )
        assert store.try_acquire("k", "owner-b", now=1002.0) is None

    def test_orphaned_reclaim_marker_is_swept(self, tmp_path):
        # reclaimer died between marker and publish: past the TTL the
        # marker is an orphan — it must not wedge the item, and it is
        # cleaned up on the way through
        store = make_store(tmp_path, ttl=5.0)
        leases = tmp_path / "coord" / "leases"
        leases.mkdir(parents=True)
        marker = leases / ".k.json.reclaiming"
        marker.write_text(json.dumps({"owner": "reclaimer", "at": 1000.0}))
        lease = store.try_acquire("k", "owner-b", now=2000.0)
        assert lease is not None and lease.owner == "owner-b"
        assert not marker.exists()

    def test_reclaim_leaves_no_tombstone_litter(self, tmp_path):
        store = make_store(tmp_path, ttl=1.0)
        store.try_acquire("k", "dead-owner", now=0.0)
        store.try_acquire("k", "owner-b", now=1e9)
        litter = [
            p
            for p in (tmp_path / "coord" / "leases").iterdir()
            if p.name != "k.json"
        ]
        assert litter == []


class TestAttempts:
    def test_default_record(self, tmp_path):
        store = make_store(tmp_path)
        assert store.attempts("missing") == AttemptRecord()

    def test_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        store.record_attempt("k", 2, 123.5, last_error="boom")
        rec = store.attempts("k")
        assert rec.count == 2
        assert rec.next_eligible_at == 123.5
        assert rec.last_error == "boom"

    def test_corrupt_record_reads_as_default(self, tmp_path):
        store = make_store(tmp_path)
        store.record_attempt("k", 1, 0.0)
        (tmp_path / "coord" / "attempts" / "k.json").write_text("garbage")
        assert store.attempts("k") == AttemptRecord()


class TestPoison:
    def test_poison_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        assert not store.is_poisoned("k")
        store.poison("k", attempts=3, last_error="kept exploding")
        assert store.is_poisoned("k")
        records = store.poisoned()
        assert set(records) == {"k"}
        assert records["k"]["attempts"] == 3
        assert records["k"]["last_error"] == "kept exploding"

    def test_no_quarantine_dir_means_nothing_poisoned(self, tmp_path):
        store = make_store(tmp_path)
        assert store.poisoned() == {}
