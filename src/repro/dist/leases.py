"""Lease files: crash-safe mutual exclusion over a shared cache layout.

A *lease* is one JSON file under ``<coordination dir>/leases/<key>.json``
claiming one work item (an experiment unit, a dataset shard) for one
worker.  The protocol is designed so that a worker killed with ``kill
-9`` at any instant leaves either a reclaimable lease or no lease — a
lease can never deadlock a run:

* **acquire** — the lease content is written to a temp file first and
  hard-linked into place (`os.link` fails atomically if the lease
  exists), so a lease file is always complete: creation *is* the
  critical section;
* **heartbeat** — the holder periodically rewrites the lease (atomic
  temp + ``os.replace``) with a fresh wall-clock timestamp; a lease
  whose heartbeat is older than its TTL is *stale*, and so is one held
  by a process of this host that has exited;
* **reclaim** — a claimant first publishes a *reclaim marker*
  (create-excl, content-stamped with its creation time) so only one
  claimant reclaims at a time and the transient no-lease-file window
  mid-reclaim is recognisable as such; it then renames the stale lease
  to a claimant-unique tombstone (``os.rename`` of one source succeeds
  exactly once, the hard CAS under the marker), re-reads the tombstone
  to undo a rename that caught a heartbeat-resurrected fresh lease, and
  acquires freshly, carrying the attempt count forward.  A marker older
  than the TTL is an orphan from a reclaimer that died mid-reclaim and
  is swept by the next claimant.

Leases provide *efficiency* (no duplicated work, crash recovery); they
are deliberately not the correctness boundary.  Every commit in this
repo is idempotent and atomic, and workers re-verify ownership before
committing, so even a pathological double-claim (e.g. extreme clock
skew between hosts) degrades to wasted work, never to a torn artifact.

Next to the leases live two sibling records, both written atomically by
the current lease holder only:

* ``attempts/<key>.json`` — how many times the item has been claimed and
  when it is next eligible (the exponential-backoff clock), plus the
  last error message;
* ``poisoned/<key>.json`` — the quarantine marker written once an item
  has burned through ``max_attempts``; poisoned items are skipped by
  every worker and reported loudly by the dispatcher.  Each run forgets
  both, so a killed or failed run never spends the next run's retries.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..utils import atomic_write_json

__all__ = [
    "LEASE_FORMAT_VERSION",
    "Lease",
    "AttemptRecord",
    "LeaseStore",
    "new_owner_id",
]

LEASE_FORMAT_VERSION = 1

LEASES_DIR = "leases"
ATTEMPTS_DIR = "attempts"
POISONED_DIR = "poisoned"


def new_owner_id(role: str = "worker") -> str:
    """A globally-unique worker identity: ``role@host:pid:nonce``."""
    return (
        f"{role}@{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"
    )


def _owner_is_gone(owner: str) -> bool:
    """Does ``owner`` (a :func:`new_owner_id`) name an exited process of
    this host?  Nobody can renew its lease, so the lease is stale at once.
    Hosts are told apart by name: containers sharing a hostname but not a
    pid namespace can misjudge each other, which costs duplicated work."""
    host, _, pid = owner.partition("@")[2].rpartition(":")[0].rpartition(":")
    if os.name != "posix" or host != socket.gethostname() or not pid.isdigit():
        return False
    try:
        os.kill(int(pid), 0)  # signal 0 only probes for the process
    except ProcessLookupError:
        return True
    except (PermissionError, OverflowError):
        pass  # it exists under another user, or is no pid at all
    return False


@dataclass(frozen=True)
class Lease:
    """One claim: who holds the item, since when, and how fresh."""

    key: str
    owner: str
    attempt: int
    acquired_at: float
    heartbeat_at: float
    ttl: float

    def is_stale(self, now: Optional[float] = None) -> bool:
        """Past its TTL, or held by a process of this host that is gone."""
        now = time.time() if now is None else now
        return (now - self.heartbeat_at) > self.ttl or _owner_is_gone(
            self.owner
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "lease_format_version": LEASE_FORMAT_VERSION,
            "key": self.key,
            "owner": self.owner,
            "attempt": self.attempt,
            "acquired_at": self.acquired_at,
            "heartbeat_at": self.heartbeat_at,
            "ttl": self.ttl,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> Optional["Lease"]:
        try:
            if data.get("lease_format_version") != LEASE_FORMAT_VERSION:
                return None
            return cls(
                key=str(data["key"]),
                owner=str(data["owner"]),
                attempt=int(data["attempt"]),
                acquired_at=float(data["acquired_at"]),
                heartbeat_at=float(data["heartbeat_at"]),
                ttl=float(data["ttl"]),
            )
        except (KeyError, TypeError, ValueError):
            return None


@dataclass(frozen=True)
class AttemptRecord:
    """Retry accounting for one item (written by its lease holder)."""

    count: int = 0
    next_eligible_at: float = 0.0
    last_error: str = ""


class LeaseStore:
    """Lease/attempt/poison records rooted at one coordination directory."""

    def __init__(self, root: Union[str, Path], ttl: float):
        self.root = Path(root)
        self.ttl = float(ttl)
        self._leases = self.root / LEASES_DIR
        self._attempts = self.root / ATTEMPTS_DIR
        self._poisoned = self.root / POISONED_DIR

    # -- low-level file helpers -----------------------------------------
    def lease_path(self, key: str) -> Path:
        return self._leases / f"{key}.json"

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, object]]:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    # -- leases ----------------------------------------------------------
    def read(self, key: str) -> Optional[Lease]:
        """The current lease on ``key``, or ``None`` (absent/corrupt)."""
        data = self._read_json(self.lease_path(key))
        return None if data is None else Lease.from_dict(data)

    def _create_excl(self, lease: Lease) -> bool:
        """Atomically create a complete lease file; False if one exists.

        Write-then-link: the content is fully written to a temp file and
        ``os.link`` publishes it under the lease name in one atomic step
        (failing with ``FileExistsError`` if any lease is present), so a
        reader can never observe a half-written lease.
        """
        path = self.lease_path(lease.key)
        self._leases.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{lease.owner.rsplit(':', 1)[-1]}.tmp"
        tmp.write_text(
            json.dumps(lease.to_dict(), sort_keys=True, indent=2) + "\n"
        )
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        finally:
            tmp.unlink(missing_ok=True)

    def _reclaim_marker(self, key: str) -> Path:
        return self._leases / f".{key}.json.reclaiming"

    def _claim_reclaim_marker(
        self, marker: Path, owner: str, now: float
    ) -> bool:
        """Atomically become the one claimant allowed to reclaim.

        The marker carries its creation time in its *content* (never fs
        metadata, which rename/link handle inconsistently); a marker
        older than the TTL is an orphan from a reclaimer that died
        mid-reclaim and is swept so the item cannot wedge.
        """
        for _ in range(2):
            self._leases.mkdir(parents=True, exist_ok=True)
            tmp = marker.parent / f"{marker.name}.{uuid.uuid4().hex[:8]}.tmp"
            tmp.write_text(json.dumps({"owner": owner, "at": now}) + "\n")
            try:
                os.link(tmp, marker)
                return True
            except FileExistsError:
                data = self._read_json(marker)
                try:
                    at = float(data["at"]) if data is not None else None
                except (KeyError, TypeError, ValueError):
                    at = None
                if at is not None and (now - at) < self.ttl:
                    return False  # a live reclaim is in flight
                marker.unlink(missing_ok=True)  # orphan: sweep and retry
            finally:
                tmp.unlink(missing_ok=True)
        return False

    def _reclaim_pending(self, key: str, now: float) -> bool:
        """Is a live reclaim of ``key`` mid-flight (young marker)?

        An orphaned marker (older than the TTL, or unreadable) is swept
        on the way through so a reclaimer that died mid-reclaim leaves
        no litter behind.
        """
        marker = self._reclaim_marker(key)
        data = self._read_json(marker)
        if data is None:
            if marker.is_file():
                marker.unlink(missing_ok=True)
            return False
        try:
            at = float(data["at"])
        except (KeyError, TypeError, ValueError):
            at = None
        if at is not None and (now - at) < self.ttl:
            return True
        marker.unlink(missing_ok=True)
        return False

    def try_acquire(
        self, key: str, owner: str, now: Optional[float] = None
    ) -> Optional[Lease]:
        """Claim ``key`` for ``owner``; ``None`` when someone holds it.

        A fresh foreign lease loses immediately.  A stale (or corrupt)
        lease is reclaimed under a reclaim marker plus the
        tombstone-rename CAS: of N claimants racing on the same stale
        lease, exactly one acquires, and it carries the attempt count
        forward.  The marker exists before the stale file is renamed
        away and is removed after the new lease is published, so the
        transient no-lease-file window of a reclaim in flight is never
        mistaken for a brand-new item (which would reset the attempt
        count — or worse, hand a second claimant a win).
        """
        now = time.time() if now is None else now
        path = self.lease_path(key)
        marker = self._reclaim_marker(key)
        if path.exists():
            existing = self.read(key)
            if existing is not None and not existing.is_stale(now):
                return None
            # stale or corrupt: exactly one claimant may reclaim at a
            # time, and it announces itself before touching the file
            if not self._claim_reclaim_marker(marker, owner, now):
                return None
            try:
                tomb = (
                    path.parent
                    / f".{path.name}.reclaim.{uuid.uuid4().hex[:8]}"
                )
                try:
                    os.rename(path, tomb)
                except OSError:
                    return None  # the lease was released meanwhile
                # verify the rename took the lease we judged stale: the
                # holder may have heartbeat-resurrected it between the
                # read and the rename.  A fresh lease goes back.
                data = self._read_json(tomb)
                renamed = None if data is None else Lease.from_dict(data)
                if renamed is not None and not renamed.is_stale(now):
                    try:
                        os.link(tomb, path)
                    except OSError:
                        pass  # another lease appeared meanwhile — defer
                    tomb.unlink(missing_ok=True)
                    return None
                tomb.unlink(missing_ok=True)
                carried = renamed if renamed is not None else existing
                lease = Lease(
                    key=key,
                    owner=owner,
                    attempt=(carried.attempt + 1 if carried else 1),
                    acquired_at=now,
                    heartbeat_at=now,
                    ttl=self.ttl,
                )
                return lease if self._create_excl(lease) else None
            finally:
                marker.unlink(missing_ok=True)
        if self._reclaim_pending(key, now):
            # no lease file, but a reclaim is mid-flight: the reclaimer
            # owns this window — creating here would reset the attempt
            # count and race its publish
            return None
        lease = Lease(
            key=key,
            owner=owner,
            attempt=1,
            acquired_at=now,
            heartbeat_at=now,
            ttl=self.ttl,
        )
        return lease if self._create_excl(lease) else None

    def heartbeat(self, key: str, owner: str) -> bool:
        """Renew ``owner``'s lease on ``key``; False when it was lost.

        Renewal is read-check-write, not compare-and-swap: between the
        ownership read and the rewrite, a rival may reclaim the lease
        (possible only once it has already gone stale — a live holder
        heartbeats well inside the TTL) and this write then resurrects
        the old lease over the rival's fresh one.  POSIX offers no
        atomic content-CAS on a file, so this window is accepted per the
        efficiency-only design above: commits stay idempotent and
        ownership is re-verified before publishing, so the worst case is
        the rival's claim being erased and reclaim delayed by up to one
        more TTL — wasted time, never a torn artifact.
        """
        lease = self.read(key)
        if lease is None or lease.owner != owner:
            return False
        renewed = Lease(
            key=lease.key,
            owner=lease.owner,
            attempt=lease.attempt,
            acquired_at=lease.acquired_at,
            heartbeat_at=time.time(),
            ttl=self.ttl,
        )
        atomic_write_json(self.lease_path(key), renewed.to_dict())
        return True

    def owns(self, key: str, owner: str) -> bool:
        lease = self.read(key)
        return lease is not None and lease.owner == owner

    def release(self, key: str, owner: str) -> bool:
        """Drop ``owner``'s lease; False when it was no longer held.

        Same read-check-act window as :meth:`heartbeat`: a rival that
        reclaims a stale lease between the ownership read and the unlink
        loses its fresh lease file — it simply re-acquires on its next
        scan (retry state lives in the attempt record, not the lease).
        """
        if not self.owns(key, owner):
            return False
        self.lease_path(key).unlink(missing_ok=True)
        return True

    def active_leases(self) -> List[Lease]:
        """Every parseable lease file under the store (fresh and stale)."""
        if not self._leases.is_dir():
            return []
        leases = []
        for path in sorted(self._leases.glob("*.json")):
            data = self._read_json(path)
            lease = None if data is None else Lease.from_dict(data)
            if lease is not None:
                leases.append(lease)
        return leases

    # -- attempts (retry/backoff accounting) -----------------------------
    def attempts(self, key: str) -> AttemptRecord:
        data = self._read_json(self._attempts / f"{key}.json")
        if data is None:
            return AttemptRecord()
        try:
            return AttemptRecord(
                count=int(data.get("count", 0)),
                next_eligible_at=float(data.get("next_eligible_at", 0.0)),
                last_error=str(data.get("last_error", "")),
            )
        except (TypeError, ValueError):
            return AttemptRecord()

    def record_attempt(
        self,
        key: str,
        count: int,
        next_eligible_at: float,
        last_error: str = "",
    ) -> None:
        self._attempts.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            self._attempts / f"{key}.json",
            {
                "count": count,
                "next_eligible_at": next_eligible_at,
                "last_error": last_error,
            },
        )

    def reset_retries(self) -> None:
        """Forget every attempt count and quarantine marker, file by file
        (a peer writing a record keeps its directory); leases stay."""
        for records in (self._attempts, self._poisoned):
            for path in records.glob("*.json"):
                path.unlink(missing_ok=True)

    # -- poisoned-item quarantine ----------------------------------------
    def poison(self, key: str, attempts: int, last_error: str) -> None:
        """Quarantine ``key`` after exhausting its retry budget."""
        self._poisoned.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            self._poisoned / f"{key}.json",
            {
                "key": key,
                "attempts": attempts,
                "last_error": last_error,
                "poisoned_at": time.time(),
            },
        )

    def is_poisoned(self, key: str) -> bool:
        return (self._poisoned / f"{key}.json").is_file()

    def poisoned(self) -> Dict[str, Dict[str, object]]:
        """Quarantine records by key (empty dict when none)."""
        if not self._poisoned.is_dir():
            return {}
        out: Dict[str, Dict[str, object]] = {}
        for path in sorted(self._poisoned.glob("*.json")):
            data = self._read_json(path)
            if data is not None:
                out[str(data.get("key", path.stem))] = data
        return out
