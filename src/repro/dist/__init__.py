"""Fault-tolerant parallel execution over a shared cache layout.

This is the one executor behind every ``--workers N`` run
(:func:`repro.runtime.execute_parallel`,
:func:`repro.datagen.build_shards`).  Workers claim experiment units and
dataset shards through lease files (:mod:`~repro.dist.leases`), execute
them, and commit atomically, so a ``kill -9`` at any instant leaves
either a reclaimable lease or a complete artifact.  A dispatcher
(:mod:`~repro.dist.dispatcher`) supervises a local fleet — retry with
exponential backoff, poisoned-item quarantine, graceful degradation —
while standalone ``repro worker`` processes can join any run mid-flight.
Deterministic fault injection (:mod:`~repro.dist.faults`,
``REPRO_FAULT_PLAN``) drives the chaos suite that proves fleet results
byte-identical to ``--workers 1`` ones.
"""

from .config import DistConfig
from .dispatcher import DistSummary, PoisonedWorkError, run_distributed
from .faults import (
    CRASH_EXIT_CODE,
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
)
from .leases import Lease, LeaseStore, new_owner_id
from .work import DatasetWorkSource, ExperimentWorkSource, WorkItem, WorkSource
from .worker import HeartbeatThread, WorkerReport, drain_on_signals, run_worker

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "DistConfig",
    "DistSummary",
    "DatasetWorkSource",
    "ExperimentWorkSource",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "HeartbeatThread",
    "Lease",
    "LeaseStore",
    "PoisonedWorkError",
    "WorkItem",
    "WorkSource",
    "WorkerReport",
    "drain_on_signals",
    "new_owner_id",
    "run_distributed",
    "run_worker",
]
