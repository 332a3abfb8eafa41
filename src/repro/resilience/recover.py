"""Recovery: bounded retries, checkpoint rollback, supervised relaunch.

Three recovery tiers, matched to the fault taxonomy:

1. **Retry with backoff** (:meth:`BackoffPolicy.call`): transient
   point-to-point failures are retried in place with bounded,
   decorrelated-jitter backoff -- the cheapest tier, invisible above
   the halo exchange.
2. **Degrade** (driver-level): a failed collective dump or checkpoint
   write becomes a counted skip; the campaign keeps computing.
3. **Rollback and relaunch** (:class:`ResilientSimulation`): anything
   that kills the SPMD world -- rank loss, corrupted halo payload, recv
   timeout -- rolls the campaign back to the newest *verified*
   checkpoint generation and relaunches, optionally on a shrunk rank
   count (graceful degradation).  Verified means: magic ok, every
   rank-block CRC ok, blocks tile the global box exactly, SDC screen
   clean -- a generation failing any check falls back to the previous
   one.

The halo exchange, :class:`ResilientSimulation`, the job service and
campaigns all take their attempt decisions from :class:`BackoffPolicy`.

Because the solver is deterministic, a rollback recovery is *bit-exact*:
the recovered campaign ends in the identical field an unfaulted run
produces (asserted by the chaos tests).
"""

from __future__ import annotations

import itertools
import os
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from ..exitcodes import Failure, classify
from ..telemetry.clock import wall_now
from .detect import CheckpointCorruptError
from .inject import FaultInjector, TransientCommError
from .plan import FaultPlan

# NOTE: repro.cluster imports happen inside functions: the cluster layer
# imports repro.resilience.detect at module scope, so a module-level
# import here would be circular during package initialization.


@dataclass(frozen=True)
class BackoffPolicy:
    """The one seeded retry policy of every recovery loop.

    ``max_attempts`` bounds *total* attempts (first try included).
    Retry delays follow decorrelated jitter, ``U(base_delay,
    min(max_delay, 3 * previous))``, seeded per caller (a rank, a job)
    so chaos replays are exact.  Callers ask it whether to retry
    (:meth:`decide`), how long to wait (:meth:`delays`), which injector
    the next attempt runs with (:meth:`attempt_injector`) and where it
    resumes (:meth:`resume`).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.base_delay <= self.max_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")

    def delays(self, seed) -> Iterator[float]:
        """The delay stream (seconds) of one seeded caller."""
        rng = random.Random(f"backoff:{seed}")
        prev = self.base_delay
        while True:
            prev = rng.uniform(self.base_delay,
                               min(self.max_delay, 3.0 * prev))
            yield prev

    def decide(self, failure: Failure, attempts: int) -> str:
        """``"retry"``, ``"fail"`` or ``"exhausted"`` after ``attempts``."""
        if not failure.retryable:
            return "fail"
        return "retry" if attempts < self.max_attempts else "exhausted"

    def call(self, fn, seed, on_retry=None):
        """``fn()``, retrying :class:`TransientCommError` in place.

        ``on_retry(attempt, exc)`` runs before each backoff sleep.
        """
        delays = self.delays(seed)
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except TransientCommError as exc:
                if attempt == self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                time.sleep(next(delays))

    @staticmethod
    def attempt_injector(ledger: FaultInjector, attempt: int,
                         disable_kinds: tuple[str, ...] = ()
                         ) -> FaultInjector:
        """One attempt's injector, cloned from ``ledger`` (spent hits stay
        spent); a retry re-seeds the probabilistic streams so a fault
        consumed by luck does not refire by the same luck.
        """
        clone = ledger.child_clone(disable_kinds=disable_kinds)
        if attempt > 1:
            clone.reseed(attempt)
        return clone

    @staticmethod
    def resume(ckpt_dir: str, injector: FaultInjector | None = None
               ) -> tuple[int, str] | None:
        """Newest verified checkpoint ``(step, path)`` to retry from."""
        try:
            return find_latest_verified_checkpoint(ckpt_dir, injector)
        except OSError:
            return None


def verify_checkpoint(path: str):
    """Fully validate one checkpoint generation.

    Returns ``(field, t, step)`` -- the stitched global field -- after
    magic/CRC/coverage/shape validation (the reader's checks) plus the
    SDC screen on the restored state.  Raises
    :class:`~repro.resilience.detect.CheckpointCorruptError` (or
    ``OSError`` for unreadable files) otherwise.
    """
    from ..cluster.checkpoint import read_checkpoint_field
    from .detect import screen_restored_state

    field_, t, step = read_checkpoint_field(path)
    screen_restored_state(field_, where=path)
    return field_, t, step


def find_latest_verified_checkpoint(
    ckpt_dir: str, injector: FaultInjector | None = None
) -> tuple[int, str] | None:
    """Newest generation in ``ckpt_dir`` that passes full verification.

    Returns ``(step, path)`` or ``None`` when no generation survives.
    Rejected generations are counted on the injector
    (``detected_ckpt_bitflip`` / ``checkpoints_rejected``) -- corrupted
    generations *fall back* to the previous one rather than aborting.
    """
    from ..cluster.checkpoint import list_checkpoints

    for step, path in reversed(list_checkpoints(ckpt_dir)):
        try:
            verify_checkpoint(path)
        except (CheckpointCorruptError, OSError, EOFError) as exc:
            if injector is not None:
                # Falling back to the previous generation IS the
                # recovery from a corrupt checkpoint.
                injector.detected("ckpt_bitflip")
                injector.recovered("ckpt_bitflip")
                injector.count("checkpoints_rejected")
                injector.set_counter("last_rejected_step", step)
            else:
                import warnings

                warnings.warn(f"skipping corrupt checkpoint {path}: {exc}",
                              stacklevel=2)
            continue
        return step, path
    return None


@dataclass
class RecoveryEvent:
    """One supervised recovery action (rollback / shrink / restart)."""

    attempt: int              #: 1-based failed attempt number
    kind: str                 #: classified fault kind (taxonomy or "unknown")
    cause: str                #: repr of the primary failure
    action: str               #: "rollback" | "restart_scratch"
    checkpoint_step: int | None  #: generation resumed from (None = scratch)
    ranks: int                #: rank count of the relaunch
    wall_seconds_lost: float  #: wall time of the failed attempt


class ResilienceExhaustedError(RuntimeError):
    """The supervised driver ran out of recovery attempts."""

    def __init__(self, events: list[RecoveryEvent], last: BaseException):
        self.events = events
        self.last_failure = last
        super().__init__(
            f"recovery exhausted after {len(events)} attempt(s); "
            f"last failure: {last!r}"
        )


@dataclass
class ResilientRunResult:
    """Outcome of a supervised campaign: final result + recovery ledger."""

    result: object            #: the successful RunResult
    attempts: int             #: total attempts (1 = no recovery needed)
    events: list[RecoveryEvent] = field(default_factory=list)
    injector: FaultInjector | None = None
    total_wall_seconds: float = 0.0
    final_wall_seconds: float = 0.0

    @property
    def recovery_overhead(self) -> float:
        """Wall-clock fraction spent on failed attempts (float in [0, 1))."""
        if self.total_wall_seconds <= 0.0:
            return 0.0
        lost = self.total_wall_seconds - self.final_wall_seconds
        return max(0.0, lost / self.total_wall_seconds)

    @property
    def counters(self) -> dict[str, float]:
        """The injector's resilience counters (dict; empty if no injector)."""
        return dict(self.injector.counters) if self.injector else {}


#: Failure kinds whose resilience counters carry a fault-plan name.
_FAULT_NAMES = {"ckpt_corrupt": "ckpt_bitflip", "error": "unknown"}


def _fault_name(kind: str, plan: FaultPlan) -> str:
    """The fault-plan name a failure kind is counted under (str)."""
    if kind in ("deadlock", "comm_timeout"):
        return "msg_drop" if "msg_drop" in plan.kinds() else "timeout"
    return _FAULT_NAMES.get(kind, kind)


class ResilientSimulation:
    """Supervised driver loop: run, and on world failure roll back.

    Wraps :class:`repro.cluster.driver.Simulation`.  On a
    :class:`~repro.cluster.mpi_sim.WorldError` the supervisor

    1. classifies the failure through :func:`repro.exitcodes.classify`
       and counts it under its fault-plan name (``detected_<kind>``),
    2. locates the newest *verified* checkpoint generation in
       ``config.checkpoint_dir`` (corrupt generations fall back),
    3. relaunches from it -- optionally on a shrunk, still-feasible rank
       count when ``config.recovery_shrink`` is set and the failure was
       a rank loss,
    4. gives up with :class:`ResilienceExhaustedError` after
       ``config.max_recoveries`` recoveries.

    Non-retryable failures (numerics violations, invalid configs: a
    deterministic failure would simply recur) propagate immediately.
    """

    def __init__(self, config, ic_fn, restart_from: str | None = None,
                 injector: FaultInjector | None = None):
        self.config = config
        self.ic_fn = ic_fn
        self.restart_from = restart_from
        plan = config.fault_plan if isinstance(config.fault_plan, FaultPlan) \
            else None
        self.injector = injector or FaultInjector(plan)

    def _shrunk_ranks(self, current: int) -> int:
        """Largest feasible rank count below ``current`` (int >= 1)."""
        from ..cluster.topology import feasible_rank_counts

        feasible = [
            n for n in feasible_rank_counts(self.config.global_blocks, current)
            if n < current
        ]
        return feasible[-1] if feasible else current

    def run(self) -> ResilientRunResult:
        """Execute the campaign to completion; returns the ledger.

        Returns a :class:`ResilientRunResult` whose ``result`` is the
        final successful ``RunResult``.
        """
        from ..cluster.driver import Simulation
        from ..cluster.mpi_sim import WorldError

        inj = self.injector
        # Rollbacks relaunch at once: no contended resource to back off
        # from, so this loop never draws a delay.
        policy = BackoffPolicy(max_attempts=self.config.max_recoveries + 1)
        events: list[RecoveryEvent] = []
        restart = self.restart_from
        ranks = self.config.ranks
        t_campaign = wall_now()
        for attempt in itertools.count(1):
            cfg = replace(self.config, ranks=ranks) \
                if ranks != self.config.ranks else self.config
            sim = Simulation(cfg, self.ic_fn, restart_from=restart,
                             injector=inj)
            t_attempt = wall_now()
            try:
                result = sim.run()
            except WorldError as we:
                lost = wall_now() - t_attempt
                failure = classify(we)
                kind = _fault_name(failure.kind, inj.plan)
                inj.detected(kind)
                verdict = policy.decide(failure, attempt)
                if verdict == "fail":
                    raise
                if verdict == "exhausted":
                    raise ResilienceExhaustedError(events, we) from we
                found = policy.resume(cfg.checkpoint_dir, inj)
                if found is None:
                    restart, ckpt_step, action = None, None, "restart_scratch"
                else:
                    ckpt_step, restart = found
                    action = "rollback"
                if (self.config.recovery_shrink and kind == "rank_crash"
                        and ranks > 1):
                    ranks = self._shrunk_ranks(ranks)
                events.append(RecoveryEvent(
                    attempt=attempt,
                    kind=kind,
                    cause=repr(failure.cause),
                    action=action,
                    checkpoint_step=ckpt_step,
                    ranks=ranks,
                    wall_seconds_lost=lost,
                ))
                inj.recovered(kind)
                inj.count("rollbacks")
                continue
            inj.set_counter("recovery_attempts", attempt - 1)
            return ResilientRunResult(
                result=result,
                attempts=attempt,
                events=events,
                injector=inj,
                total_wall_seconds=wall_now() - t_campaign,
                final_wall_seconds=wall_now() - t_attempt,
            )


def prune_stale_tmp(ckpt_dir: str) -> int:
    """Remove abandoned ``*.tmp`` checkpoint files; returns count removed.

    A crash between the temporary write and the atomic rename leaves a
    ``.tmp`` behind; it is never a valid generation, so the supervisor
    (or an operator) can sweep it safely.
    """
    removed = 0
    if not os.path.isdir(ckpt_dir):
        return 0
    for name in os.listdir(ckpt_dir):
        if name.endswith(".tmp"):
            try:
                os.remove(os.path.join(ckpt_dir, name))
                removed += 1
            except OSError as exc:
                import warnings

                warnings.warn(f"could not remove {name}: {exc}", stacklevel=2)
    return removed
