"""Fault injection, corruption detection and automatic recovery.

The durability layer of the reproduction (see ``docs/resilience.md``):

* :class:`FaultPlan` / :class:`FaultSpec` -- declarative, seeded,
  step/rank-addressable chaos specs (JSON round-trippable for
  ``repro.cli --fault-plan``);
* :class:`FaultInjector` -- arms a plan at the cluster-layer injection
  sites and doubles as the thread-safe resilience monitor;
* :mod:`repro.resilience.detect` -- CRC32 halo framing, checkpoint
  validation errors and the SDC screen on restored state;
* :class:`BackoffPolicy` -- the one seeded retry policy of every
  recovery loop, over the failure table of :mod:`repro.exitcodes`;
* :class:`ResilientSimulation` -- the supervised driver loop: degrade
  failed writes to counted skips, roll back to the newest verified
  checkpoint generation and relaunch (optionally on a shrunk rank
  count);
* :func:`atomic_write` -- the one durable-write helper;
* :func:`format_resilience_scorecard` -- the chaos-run scorecard
  (faults injected/detected/recovered, recovery overhead, checkpoint
  write amplification).
"""

from .detect import (
    CheckpointCorruptError,
    CheckpointWriteError,
    CorruptionError,
    HaloCorruptionError,
    HaloFrame,
    crc32_array,
    crc32_bytes,
    screen_restored_state,
)
from .durable import atomic_replace, atomic_write
from .inject import (
    DROPPED,
    FaultInjector,
    InjectedFault,
    InjectedIOError,
    InjectedRankCrash,
    TransientCommError,
)
from .plan import KINDS, FaultPlan, FaultSpec
from .recover import (
    BackoffPolicy,
    RecoveryEvent,
    ResilienceExhaustedError,
    ResilientRunResult,
    ResilientSimulation,
    find_latest_verified_checkpoint,
    prune_stale_tmp,
    verify_checkpoint,
)
from .report import (
    MAX_RECOVERY_OVERHEAD,
    all_faults_recovered,
    checkpoint_write_amplification,
    fault_accounting,
    format_resilience_scorecard,
    resilience_scorecard_rows,
)

__all__ = [
    "DROPPED",
    "KINDS",
    "MAX_RECOVERY_OVERHEAD",
    "BackoffPolicy",
    "CheckpointCorruptError",
    "CheckpointWriteError",
    "CorruptionError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HaloCorruptionError",
    "HaloFrame",
    "InjectedFault",
    "InjectedIOError",
    "InjectedRankCrash",
    "RecoveryEvent",
    "ResilienceExhaustedError",
    "ResilientRunResult",
    "ResilientSimulation",
    "TransientCommError",
    "all_faults_recovered",
    "atomic_replace",
    "atomic_write",
    "checkpoint_write_amplification",
    "crc32_array",
    "crc32_bytes",
    "fault_accounting",
    "find_latest_verified_checkpoint",
    "format_resilience_scorecard",
    "prune_stale_tmp",
    "resilience_scorecard_rows",
    "screen_restored_state",
    "verify_checkpoint",
]
