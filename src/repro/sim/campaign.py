"""Multi-segment production campaigns over checkpoints.

A production collapse run needs 10'000-100'000 steps (paper Section 1) --
far beyond one job allocation; "a single simulation unit requires around
30 hours of wall-clock time on one BGQ rack" (Section 7).  The
:class:`Campaign` runner splits a long run into segments, writes a
lossless checkpoint at each segment boundary, and resumes the next
segment from it -- optionally on a different rank count (re-balancing
between allocations).  Segmented execution is bit-exact with respect to
an uninterrupted run, which the tests assert.

Campaigns are hardened against segment failures: a failed segment is
retried from the last good boundary checkpoint (bounded by
``max_segment_retries``; a non-retryable failure such as a numerics
violation stops at once), per-segment outcomes are recorded on
:class:`SegmentRecord` (``ok`` / ``retried`` / ``failed``), and an
exhausted campaign returns the *partial* result (``ok=False``) instead
of losing the completed segments.  Segments can also fan out through
the fault-tolerant job service (:class:`~repro.service.JobEngine`),
which adds result caching and its own retry/backoff supervision.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field

import numpy as np

from ..resilience.recover import BackoffPolicy
from .config import SimulationConfig


@dataclass
class SegmentRecord:
    """Outcome of one campaign segment."""

    index: int
    first_step: int
    last_step: int
    checkpoint: str | None
    ranks: int
    #: "ok" (first try), "retried" (succeeded after >= 1 retry) or
    #: "failed" (not retryable or budget spent; the campaign stopped).
    status: str = "ok"
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status != "failed"


@dataclass
class CampaignResult:
    """Stitched outcome of all segments (possibly partial)."""

    records: list = field(default_factory=list)  #: all StepRecords, in order
    segments: list[SegmentRecord] = field(default_factory=list)
    final_field: np.ndarray | None = None
    #: False when a segment exhausted its retries; the result then holds
    #: every *completed* segment (partial results, not nothing).
    ok: bool = True
    error: str | None = None

    @property
    def completed_steps(self) -> int:
        """Steps covered by successfully completed segments (int)."""
        done = [s.last_step for s in self.segments if s.ok]
        return max(done) if done else 0

    def series(self, name: str) -> np.ndarray:
        vals = [
            getattr(r.diagnostics, name)
            for r in self.records
            if r.diagnostics is not None
        ]
        return np.asarray(vals)


class Campaign:
    """Runs a simulation in checkpointed segments.

    Parameters
    ----------
    config:
        Base configuration.  ``max_steps`` is ignored (the campaign's
        ``total_steps`` governs); checkpoint settings are managed by the
        campaign.
    ic_fn:
        Initial condition for the first segment -- a driver callable, or
        an :class:`~repro.service.ICSpec` (required for ``engine`` runs,
        where the IC must cross a process boundary).
    workdir:
        Directory for the segment checkpoints.
    max_segment_retries:
        Retries per segment (beyond the first attempt) of a retryable
        failure before the campaign returns the partial result.
    fault_plan:
        Optional chaos plan armed across the whole campaign: consumed
        hits persist across segment retries (a ``max_hits``-bounded
        crash stays spent), and each retry re-seeds the probabilistic
        streams so a by-chance fault does not refire deterministically.
    engine:
        Optional running :class:`~repro.service.JobEngine`; segments are
        then submitted as service jobs (cached, supervised) instead of
        computed inline.
    """

    def __init__(self, config: SimulationConfig, ic_fn, workdir: str,
                 max_segment_retries: int = 0, fault_plan=None,
                 engine=None):
        self.config = config
        self.ic_fn = ic_fn
        self.workdir = workdir
        if max_segment_retries < 0:
            raise ValueError("max_segment_retries must be >= 0")
        # Segments relaunch at once from their boundary checkpoint (the
        # loop never draws a delay).
        self.policy = BackoffPolicy(max_attempts=max_segment_retries + 1)
        self.fault_plan = fault_plan
        self.engine = engine
        if engine is not None:
            from ..service.request import ICSpec

            if not isinstance(ic_fn, ICSpec):
                raise ValueError(
                    "engine campaigns need a declarative ICSpec initial "
                    "condition (callables cannot cross the service "
                    "boundary)"
                )
        os.makedirs(workdir, exist_ok=True)

    def _segment_config(self, last_step: int, ranks: int) -> SimulationConfig:
        cfg = copy.copy(self.config)
        cfg.max_steps = last_step
        cfg.ranks = ranks
        cfg.checkpoint_interval = 0  # the campaign writes its own
        cfg.collect_final_field = True
        return cfg

    def run(
        self,
        total_steps: int,
        segment_steps: int,
        ranks_per_segment: list[int] | None = None,
    ) -> CampaignResult:
        """Execute ``total_steps`` in segments of ``segment_steps``.

        ``ranks_per_segment`` optionally reassigns the rank count per
        segment (default: the base config's ``ranks`` throughout).
        Returns a partial result (``ok=False``) if a segment exhausts
        its retry budget; completed segments are never lost.
        """
        from ..cluster.checkpoint import write_checkpoint
        from ..cluster.mpi_sim import SimWorld
        from ..exitcodes import classify
        from ..telemetry.log import get_logger

        if total_steps < 1 or segment_steps < 1:
            raise ValueError("step counts must be positive")
        boundaries = list(range(segment_steps, total_steps, segment_steps))
        boundaries.append(total_steps)
        log = get_logger("sim.campaign")

        injector = None
        if self.fault_plan is not None:
            from ..resilience.inject import FaultInjector

            injector = FaultInjector(self.fault_plan)

        out = CampaignResult()
        restart: str | None = None
        for i, last_step in enumerate(boundaries):
            ranks = (
                ranks_per_segment[i]
                if ranks_per_segment is not None
                else self.config.ranks
            )
            cfg = self._segment_config(last_step, ranks)
            result = None
            attempts = 0
            last_error: BaseException | None = None
            verdict = "retry"
            while result is None and verdict == "retry":
                attempts += 1
                try:
                    result = self._run_segment(cfg, restart, injector,
                                               attempts)
                except Exception as exc:
                    last_error = exc
                    failure = classify(exc)
                    verdict = self.policy.decide(failure, attempts)
                    log.warn("segment_failed", segment=i,
                             attempt=attempts, kind=failure.kind,
                             err=repr(exc)[:200])
            if result is None:
                # Record the failure, keep what we have.
                out.segments.append(SegmentRecord(
                    index=i, first_step=0, last_step=last_step,
                    checkpoint=None, ranks=ranks, status="failed",
                    attempts=attempts,
                ))
                out.ok = False
                out.error = (f"segment {i} failed after {attempts} "
                             f"attempt(s): {last_error!r}")
                return out
            out.records.extend(result.records)
            out.final_field = result.final_field

            checkpoint = None
            if last_step < total_steps:
                checkpoint = os.path.join(
                    self.workdir, f"campaign_step{last_step:06d}.rck"
                )
                t = result.records[-1].time if result.records else 0.0
                # Single-writer checkpoint of the stitched global field
                # (rank counts may change next segment).
                world = SimWorld(1)
                world.run(
                    lambda comm: write_checkpoint(
                        comm, checkpoint, result.final_field, (0, 0, 0),
                        t=t, step=last_step,
                    )
                )
                restart = checkpoint

            first = out.records[-len(result.records)].step if result.records else 0
            out.segments.append(
                SegmentRecord(
                    index=i,
                    first_step=first,
                    last_step=last_step,
                    checkpoint=checkpoint,
                    ranks=ranks,
                    status="ok" if attempts == 1 else "retried",
                    attempts=attempts,
                )
            )
        return out

    # -- one segment attempt ----------------------------------------------

    def _run_segment(self, cfg: SimulationConfig, restart: str | None,
                     injector, attempt: int):
        """One attempt at a segment; raises on failure."""
        if self.engine is not None:
            return self._run_segment_service(cfg, restart)
        from ..cluster.driver import Simulation

        seg_injector = None
        if injector is not None:
            # Same campaign-level ledger across retries (consumed hits
            # stay consumed), fresh probabilistic streams per attempt.
            seg_injector = self.policy.attempt_injector(injector, attempt)
        sim = Simulation(cfg, self.ic_fn, restart_from=restart,
                         injector=seg_injector)
        try:
            result = sim.run()
        finally:
            if injector is not None and seg_injector is not None:
                injector.merge_child(seg_injector.counters,
                                     seg_injector.hit_state())
        return result

    def _run_segment_service(self, cfg: SimulationConfig,
                             restart: str | None):
        """One segment through the job service; returns a result shim."""
        from ..cluster.driver import StepRecord
        from ..service.request import JobRequest
        from .diagnostics import Diagnostics

        request = JobRequest(config=cfg, ic=self.ic_fn,
                             restart_from=restart)
        handle = self.engine.submit(request, fault_plan=self.fault_plan)
        result = handle.result()
        payload = result.payload
        records = []
        diag = {name: payload["series"][name]
                for name in ("max_pressure", "wall_max_pressure",
                             "kinetic_energy", "vapor_volume")}
        di = 0
        for j, step in enumerate(payload["steps"]):
            d = None
            if cfg.diag_interval and step % cfg.diag_interval == 0:
                d = Diagnostics(**{k: float(v[di])
                                   for k, v in diag.items()})
                di += 1
            records.append(StepRecord(
                step=int(step), time=float(payload["times"][j]),
                dt=float(payload["dts"][j]), diagnostics=d,
            ))

        class _Shim:
            pass

        shim = _Shim()
        shim.records = records
        shim.final_field = payload["final_field"]
        return shim
