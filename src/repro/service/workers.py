"""Supervised worker pool: real processes computing simulation jobs.

Each worker is one OS process (``multiprocessing`` spawn, the procs
cluster backend's discipline) looping over a private task queue and
reporting on a shared result queue.  While a job runs the worker
publishes a heartbeat -- ``(job seq, rank, step, beat time)`` in a
shared array -- through two channels:

* a *ticker* thread beating every 100 ms (process liveness, covering
  jobs whose rank progress happens in grandchild processes under the
  procs backend);
* the fault injector's ``step_listener`` (rank/step progress, which the
  engine's parent-side killer replays against ``rank_crash`` specs to
  deliver *real* ``SIGKILL``\\ s at addressed steps -- the same idiom as
  :class:`repro.cluster.procs.ProcsWorld`).

A worker never decides retry policy: it classifies its failure through
the failure table (:func:`repro.exitcodes.classify`), ships the kind and
the fault ledger (counter deltas + consumed-hit state) home, and lets
the engine decide.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Heartbeat array slots (doubles in a shared Array).
HB_SEQ, HB_RANK, HB_STEP, HB_BEAT, HB_BUSY = range(5)
HB_SLOTS = 5


def result_payload(result) -> dict:
    """The cacheable result payload of a completed run (dict).

    Bit-stable by construction: the final field and diagnostics series
    come straight from the deterministic solver.  A run resumed from a
    checkpoint reports the resumed tail of the series
    (``first_recorded_step`` marks where it starts); its final field is
    bit-identical to an uninterrupted run's.
    """
    recs = result.records
    diag = [r for r in recs if r.diagnostics is not None]
    return {
        "schema": "repro.job_result/v1",
        "final_field": result.final_field,
        "steps": np.asarray([r.step for r in recs], dtype=np.int64),
        "times": np.asarray([r.time for r in recs]),
        "dts": np.asarray([r.dt for r in recs]),
        "first_recorded_step": int(recs[0].step) if recs else 0,
        "series": {
            name: np.asarray([getattr(r.diagnostics, name) for r in diag])
            for name in ("max_pressure", "wall_max_pressure",
                         "kinetic_energy", "vapor_volume",
                         "equivalent_radius")
        },
        "wall_seconds": float(result.wall_seconds),
    }


def _run_task(task: dict, injector) -> dict:
    """Execute one job task inside the worker process; returns payload."""
    from dataclasses import replace

    from ..cluster.driver import Simulation
    from .request import JobRequest

    request = JobRequest.from_payload(task["request"])
    cfg = replace(
        request.config,
        # Service-managed I/O: per-job checkpoint lineage for retry
        # resume, no dumps, no observability objects in the hot loop.
        checkpoint_interval=task.get("checkpoint_interval", 0),
        checkpoint_dir=task.get("checkpoint_dir", "."),
        checkpoint_keep=0,
        collect_final_field=True,
        dump_interval=0,
        telemetry="off",
        flight_out=None,
        progress_interval=0,
    )
    sim = Simulation(cfg, request.ic.build(),
                     restart_from=task.get("restart_from"),
                     injector=injector)
    return result_payload(sim.run())


def worker_main(worker_id: int, task_q, result_q, hb) -> None:
    """Process entry point: loop over tasks until the stop sentinel.

    Each result tuple is ``(worker_id, job_seq, status, body,
    counter_deltas, hit_state)`` -- the fault ledger rides along so the
    engine can merge consumed hits even for failed attempts (a retry
    must not refire a consumed transient fault).
    """
    from ..exitcodes import classify
    from ..resilience.inject import FaultInjector

    while True:
        task = task_q.get()
        if task is None:
            break
        seq = task["seq"]
        injector = task.get("injector") or FaultInjector()
        with hb.get_lock():
            hb[HB_SEQ] = float(seq)
            hb[HB_RANK] = 0.0
            hb[HB_STEP] = 0.0
            hb[HB_BEAT] = time.monotonic()
            hb[HB_BUSY] = 1.0

        def on_step(rank: int, step: int) -> None:
            with hb.get_lock():
                hb[HB_RANK] = float(rank)
                hb[HB_STEP] = float(step)
                hb[HB_BEAT] = time.monotonic()

        injector.step_listener = on_step
        stop_tick = threading.Event()

        def tick() -> None:
            while not stop_tick.wait(0.1):
                with hb.get_lock():
                    hb[HB_BEAT] = time.monotonic()

        ticker = threading.Thread(target=tick, name=f"hb-{worker_id}",
                                  daemon=True)
        ticker.start()
        try:
            payload = _run_task(task, injector)
            status, body = "ok", payload
        except BaseException as exc:  # lint: disable=CL005 -- ships home as data
            status = "fail"
            body = {"kind": classify(exc).kind, "cause": repr(exc)[:2000]}
        finally:
            stop_tick.set()
            ticker.join(timeout=1.0)
            with hb.get_lock():
                hb[HB_BUSY] = 0.0
        result_q.put((worker_id, seq, status, body,
                      dict(injector.counters), injector.hit_state()))


def _close_queue(q) -> None:
    """Close an mp.Queue and stop its feeder thread (idempotent)."""
    try:
        q.close()
        q.join_thread()
    except (OSError, ValueError):
        pass


@dataclass
class WorkerHandle:
    """Parent-side state of one pool worker."""

    id: int
    process: object
    task_q: object
    hb: object
    #: seq of the job this worker is computing (None = idle)
    busy_seq: int | None = None
    dispatched_at: float = 0.0
    deadline: float | None = None
    #: why the parent killed it ("timeout" | "rank_crash" | ...), if it did
    kill_reason: str | None = None
    #: kill-replay watermark: last heartbeat step fed through the plan
    replayed_step: int = 0
    jobs_done: int = 0
    death_seen: float | None = None

    def heartbeat(self) -> tuple[int, int, int, float, bool]:
        """Snapshot ``(seq, rank, step, beat, busy)`` of the shared slot."""
        with self.hb.get_lock():
            return (int(self.hb[HB_SEQ]), int(self.hb[HB_RANK]),
                    int(self.hb[HB_STEP]), float(self.hb[HB_BEAT]),
                    bool(self.hb[HB_BUSY]))

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """Fixed-size pool of worker processes with replace-on-death.

    The pool owns process lifecycle only; scheduling decisions live in
    the engine.  ``retire`` replaces a worker gracefully (stop sentinel,
    deferred join), ``kill`` delivers a real ``SIGKILL`` -- the caller
    is then responsible for calling ``replace``.
    """

    def __init__(self, size: int, start_method: str = "spawn"):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        from multiprocessing import get_context

        self.size = size
        self._ctx = get_context(start_method)
        self.result_q = self._ctx.Queue()
        self.workers: dict[int, WorkerHandle] = {}
        self._retiring: list[WorkerHandle] = []
        self._next_id = 0
        self.restarts = 0  #: replacement spawns after the initial pool

    def start(self) -> None:
        for _ in range(self.size):
            self._spawn()

    def _spawn(self) -> WorkerHandle:
        wid = self._next_id
        self._next_id += 1
        task_q = self._ctx.Queue()
        hb = self._ctx.Array("d", HB_SLOTS)
        p = self._ctx.Process(
            target=worker_main, args=(wid, task_q, self.result_q, hb),
            name=f"service-worker-{wid}", daemon=False,
        )
        p.start()
        handle = WorkerHandle(id=wid, process=p, task_q=task_q, hb=hb)
        self.workers[wid] = handle
        return handle

    # -- scheduling hooks -------------------------------------------------

    def idle(self) -> list[WorkerHandle]:
        """Alive, unassigned workers (list, id order)."""
        return [w for w in sorted(self.workers.values(), key=lambda w: w.id)
                if w.busy_seq is None and w.alive]

    def dispatch(self, worker: WorkerHandle, task: dict,
                 deadline: float | None) -> None:
        worker.busy_seq = task["seq"]
        worker.dispatched_at = time.monotonic()
        worker.deadline = deadline
        worker.kill_reason = None
        worker.replayed_step = 0
        worker.death_seen = None
        worker.task_q.put(task)

    def finish(self, worker: WorkerHandle) -> None:
        """Mark a worker idle after its result arrived."""
        worker.busy_seq = None
        worker.deadline = None
        worker.kill_reason = None
        worker.jobs_done += 1

    # -- lifecycle --------------------------------------------------------

    def kill(self, worker: WorkerHandle, reason: str) -> None:
        """Deliver a real ``SIGKILL``; records why for classification."""
        worker.kill_reason = reason
        pid = worker.process.pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def replace(self, worker: WorkerHandle) -> WorkerHandle:
        """Swap a dead worker for a fresh one; returns the new handle."""
        self.workers.pop(worker.id, None)
        self._retiring.append(worker)
        self.restarts += 1
        return self._spawn()

    def retire(self, worker: WorkerHandle) -> WorkerHandle:
        """Gracefully replace an (idle) worker; returns the new handle.

        Used after every failed attempt so the retry lands on a *fresh*
        worker: the old one gets the stop sentinel and is joined
        opportunistically by :meth:`reap`.
        """
        try:
            worker.task_q.put(None)
        except (OSError, ValueError):
            pass
        return self.replace(worker)

    def reap(self) -> None:
        """Join exited retirees without blocking the supervisor."""
        still = []
        for w in self._retiring:
            w.process.join(timeout=0)
            if w.process.is_alive():
                still.append(w)
            else:
                # The retiree is gone: release its private task queue
                # (feeder thread + pipe fds) now rather than at GC time.
                _close_queue(w.task_q)
        self._retiring = still

    def stop(self, graceful: bool = True, timeout: float = 10.0) -> None:
        """Stop every worker (sentinel first, then escalate)."""
        for w in self.workers.values():
            if graceful:
                try:
                    w.task_q.put(None)
                except (OSError, ValueError):
                    pass
            else:
                self.kill(w, "shutdown")
        deadline = time.monotonic() + timeout
        for w in list(self.workers.values()) + self._retiring:
            w.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=2.0)
            if w.process.is_alive():
                # terminate() (SIGTERM) can be shrugged off mid-kernel;
                # the supervisor must not return with live children.
                self.kill(w, "shutdown")
                w.process.join(timeout=2.0)
            _close_queue(w.task_q)
        self.workers.clear()
        self._retiring.clear()
        _close_queue(self.result_q)

    def snapshot(self) -> list[dict]:
        """Health view of the pool (list of JSON-able dicts)."""
        out = []
        for w in sorted(self.workers.values(), key=lambda w: w.id):
            seq, rank, step, beat, busy = w.heartbeat()
            out.append({
                "id": w.id,
                "pid": w.process.pid,
                "alive": w.alive,
                "busy_seq": w.busy_seq,
                "jobs_done": w.jobs_done,
                "hb_step": step if busy else None,
            })
        return out
