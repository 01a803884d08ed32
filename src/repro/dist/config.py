"""Tuning knobs for the lease-based dispatcher/worker protocol.

One frozen dataclass carries every timing and retry parameter, so the
dispatcher, standalone workers and the chaos tests agree on semantics by
construction.  The three fields every process of one run must share —
they decide when a lease is stale and when an item is quarantined — have
environment overrides (``REPRO_LEASE_TTL``, ``REPRO_HEARTBEAT_INTERVAL``,
``REPRO_MAX_ATTEMPTS``), so extra hosts joining a run via ``repro
worker`` can match the dispatcher's settings without repeating CLI
flags.  The rest only tune one worker's own pacing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Mapping, Optional

__all__ = ["DistConfig", "ENV_KNOBS"]

#: env var -> DistConfig field
ENV_KNOBS = {
    "REPRO_LEASE_TTL": "lease_ttl",
    "REPRO_HEARTBEAT_INTERVAL": "heartbeat_interval",
    "REPRO_MAX_ATTEMPTS": "max_attempts",
}


@dataclass(frozen=True)
class DistConfig:
    """Lease lifecycle and retry policy for distributed execution.

    * ``lease_ttl`` — seconds without a heartbeat after which a lease is
      *stale* and any worker may reclaim it (the crash-recovery clock;
      an exited owner on this host is stale at once);
    * ``heartbeat_interval`` — how often a running worker renews its
      lease; must be well under the TTL so slow-but-alive workers are
      never mistaken for dead ones;
    * ``max_attempts`` — executions of one unit within one run before
      it is quarantined as *poisoned* instead of retried forever;
    * ``backoff_base``/``backoff_cap`` — exponential per-unit retry
      delay: attempt ``n`` becomes eligible ``min(cap, base * 2**(n-1))``
      seconds after attempt ``n`` was claimed;
    * ``poll_interval`` — the longest an idle worker waits between scans
      of the work list, and the dispatcher between progress reports (a
      drain request or a worker exit ends either wait at once).
    """

    lease_ttl: float = 15.0
    heartbeat_interval: float = 2.0
    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 10.0
    poll_interval: float = 0.2

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if not 0 < self.heartbeat_interval < self.lease_ttl:
            raise ValueError(
                "heartbeat_interval must be positive and below lease_ttl "
                f"(got {self.heartbeat_interval} vs ttl {self.lease_ttl})"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff values must be non-negative")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")

    def backoff_delay(self, attempt: int) -> float:
        """Eligibility delay after claiming attempt ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 1)))

    @classmethod
    def from_env(
        cls, env: Optional[Mapping[str, str]] = None, **overrides
    ) -> "DistConfig":
        """Defaults, then ``REPRO_*`` env knobs, then explicit overrides.

        ``None``-valued overrides are ignored so CLI plumbing can pass
        unset flags straight through.
        """
        env = os.environ if env is None else env
        config = cls()
        fields = {}
        for var, field_name in ENV_KNOBS.items():
            raw = env.get(var)
            if raw is None or raw == "":
                continue
            caster = int if field_name == "max_attempts" else float
            try:
                fields[field_name] = caster(raw)
            except ValueError:
                raise ValueError(
                    f"bad {var} {raw!r}: expected "
                    f"{'an integer' if caster is int else 'a number'}"
                )
        fields.update({k: v for k, v in overrides.items() if v is not None})
        return replace(config, **fields) if fields else config
