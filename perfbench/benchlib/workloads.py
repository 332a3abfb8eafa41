"""The four benchmark workloads.

Each workload has ``setup(seed, workdir)`` (imports, seeded inputs,
warm-up: the one-off cold cost), ``run(seconds, trace)`` (timed repeats
plus correctness checks, returning an :class:`Outcome`) and
``teardown()``.  ``repro`` is imported only inside ``setup`` so that its
import cost counts as set-up time.

Untraced runs time each operation from outside with
``time.perf_counter``.  Traced runs (``trace=True``) alternate untraced
repeats (the overhead baseline) with repeats under span wrappers
(:mod:`.layers`) and report per-layer numbers from the traced ones.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import layers
from .inputs import bubble_cloud, request_rounds
from .metrics import SELF_TIME_METRIC
from .spans import SpanRecorder, self_times, totals_by_name
from .stats import median

#: Fewest timed repeats of a run, even past its time budget.
MIN_REPEATS = 3


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: end-to-end metrics measured untraced (set-up and RSS are added
    #: by the runner)
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: the workload's own named metrics (io_mb_s, jobs_per_s, ...)
    named: dict[str, float] = field(default_factory=dict)
    #: per-layer metrics (traced runs only)
    layers: dict[str, float] = field(default_factory=dict)
    #: raw samples, summarized in the report
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: digests, derived ratios with their bases
    extra: dict = field(default_factory=dict)
    recorders: list[SpanRecorder] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one attempted operation; a failed check counts it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _traced(recorder: SpanRecorder, fn):
    """Call ``fn`` under wrappers and a root span; wrappers always removed."""
    inst = layers.install(recorder)
    try:
        with recorder.span("bench.run", root=True):
            t0 = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0
    finally:
        inst.remove()
    return wall, out


def span_layers(recorder: SpanRecorder, per: float) -> dict[str, float]:
    """Per-layer values of one traced repeat, each divided by ``per``.

    Self times map through :data:`SELF_TIME_METRIC`; ``core.rhs_s`` is
    the inclusive RHS time and ``trace.coverage`` the share of the root
    span's wall time that layer self times account for.
    """
    totals = totals_by_name(recorder.spans)
    out = {metric: totals[name]["self"] / per
           for name, metric in SELF_TIME_METRIC.items() if name in totals}
    if "core.rhs" in totals:
        out["core.rhs_s"] = totals["core.rhs"]["total"] / per
        out["core.rhs_calls"] = totals["core.rhs"]["calls"] / per
    root = totals.pop("bench.run")
    out["trace.coverage"] = (sum(t["self"] for t in totals.values())
                             / root["total"])
    return out


def median_layers(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*rows) if rows else set()
    return {k: median(r.get(k, 0.0) for r in rows) for k in keys}


class _Timed:
    """Repeat loop bounded by a time budget (at least MIN_REPEATS)."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds
        self.count = 0
        self.longest = 0.0

    def more(self) -> bool:
        if self.count < MIN_REPEATS:
            return True
        return time.perf_counter() + self.longest <= self.deadline

    def done(self, wall: float) -> None:
        self.count += 1
        self.longest = max(self.longest, wall)


# -- cloud runs: cloud32-serial, cloud32-procs2 ----------------------------


class CloudWorkload:
    """A seeded 4-bubble cloud collapse through ``Simulation.run``."""

    def __init__(self, name: str, why: str, ranks: int, backend: str,
                 io: bool, smoke: bool = False):
        self.name = name
        self.why = why
        self.ranks = ranks
        self.backend = backend
        self.io = io
        self.cells = 16 if smoke else 32
        self.block_size = 8 if smoke else 16
        self.steps = 2 if smoke else 4
        #: dumps of p and Gamma and a checkpoint every 2 steps (every
        #: step in smoke size), checkpoints rotated to the newest one
        self.dump_interval = (1 if smoke else 2) if io else 0
        self.checkpoint_interval = self.dump_interval
        self.checkpoint_keep = 1 if io else 0

    def definition(self) -> dict:
        return {
            "workload": self.name, "case": "cloud", "cells": self.cells,
            "block_size": self.block_size, "bubbles": 4,
            "p_liquid": 1000.0, "steps": self.steps, "ranks": self.ranks,
            "backend": self.backend, "dump_interval": self.dump_interval,
            "checkpoint_interval": self.checkpoint_interval,
            "checkpoint_keep": self.checkpoint_keep,
        }

    def setup(self, seed: int, workdir: str) -> None:
        from repro.cluster import Simulation
        from repro.perf.kernels import RHS
        from repro.sim import SimulationConfig, cloud_collapse
        from repro.sim.cloud import Bubble

        self._Simulation = Simulation
        self._Config = SimulationConfig
        self._rhs_flops_per_step = (RHS.flops_per_cell * RHS.evals_per_step
                                    * self.cells ** 3)
        self.workdir = workdir
        self.bubbles = bubble_cloud(np.random.default_rng(seed), 4)
        self.ic = cloud_collapse(
            [Bubble(center=b[:3], radius=b[3]) for b in self.bubbles],
            p_liquid=1000.0, smoothing=1.0 / self.cells,
        )
        self._run_id = 0
        # Warm-up: one single-rank step (first-use costs of the solver).
        self._run("sim", 1, False, steps=1)

    def teardown(self) -> None:
        pass

    def _run(self, backend: str, ranks: int, io: bool, steps: int | None = None,
             recorder: SpanRecorder | None = None):
        """One ``Simulation.run``; returns (wall, result, final digest)."""
        self._run_id += 1
        outdir = os.path.join(self.workdir, f"run{self._run_id}")
        os.makedirs(outdir)
        config = self._Config(
            cells=self.cells, block_size=self.block_size,
            max_steps=steps or self.steps, ranks=ranks,
            cluster_backend=backend,
            dump_interval=self.dump_interval if io else 0,
            dump_dir=outdir,
            checkpoint_interval=self.checkpoint_interval if io else 0,
            checkpoint_dir=outdir, checkpoint_keep=self.checkpoint_keep,
        )
        sim = self._Simulation(config, self.ic)
        try:
            if recorder is None:
                t0 = time.perf_counter()
                result = sim.run()
                wall = time.perf_counter() - t0
            else:
                wall, result = _traced(recorder, sim.run)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return wall, result, _digest(result.final_field)

    def _record(self, out: Outcome, wall, result, digest, label: str) -> None:
        rate = self.cells ** 3 * len(result.records) / wall / 1e6
        ref = out.extra.setdefault("final_sha256", digest)
        out.check(digest == ref and len(result.records) == self.steps,
                  f"{label}: final field {digest[:12]} != {ref[:12]} "
                  f"or {len(result.records)} != {self.steps} steps")
        out.sample(f"{label}.wall_s", wall)
        out.sample(f"{label}.mcells_per_s", rate)
        out.sample(f"{label}.program_mcells_per_s",
                   result.cells_per_second / 1e6)
        rank_wall = max(rr.wall_seconds for rr in result.rank_results)
        out.sample(f"{label}.world_start_s", wall - rank_wall)
        out.sample(f"{label}.comm_wait_s",
                   result.timers.get("COMM_WAIT", 0.0) / self.steps)
        if label != self.backend:
            return
        out.extra["bytes_per_step"] = sum(
            rr.bytes_sent for rr in result.rank_results) / self.steps
        out.extra["messages_per_step"] = sum(
            rr.messages_sent for rr in result.rank_results) / self.steps
        stats = [s for rr in result.rank_results for s in rr.compression_stats]
        if not stats:
            return
        for q in ("p", "Gamma"):
            raw = sum(s["raw_bytes"] for s in stats if s["quantity"] == q)
            comp = sum(s["compressed_bytes"] for s in stats
                       if s["quantity"] == q)
            out.extra[f"ratio_{q}"] = raw / comp
        out.extra["compression_ratio"] = (
            sum(s["raw_bytes"] for s in stats)
            / sum(s["compressed_bytes"] for s in stats))

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        label = self.backend
        timer = _Timed(seconds)
        traced_rows: list[dict] = []
        while timer.more():
            try:
                wall, result, digest = self._run(self.backend, self.ranks,
                                                 self.io)
                self._record(out, wall, result, digest, label)
                if trace:
                    # Spans cannot see into rank processes: the traced
                    # repeats run the same case on the thread backend.
                    if self.backend != "sim":
                        wall, result, digest = self._run("sim", self.ranks,
                                                         self.io)
                        self._record(out, wall, result, digest, "sim")
                    rec = SpanRecorder(f"{self.name}-{timer.count}")
                    wall, result, digest = self._run(
                        "sim", self.ranks, self.io, recorder=rec)
                    self._record(out, wall, result, digest, "traced")
                    out.recorders.append(rec)
                    traced_rows.append(span_layers(rec, self.steps))
            except Exception as exc:  # a failed repeat is counted, not fatal
                out.check(False, f"repeat failed: {exc!r}")
                wall = 0.0
            timer.done(wall)

        if self.backend != "sim" or self.ranks != 1:
            # Cross-workload check: the single-rank thread run of the
            # same case must give the same final field.
            try:
                wall, result, digest = self._run("sim", 1, False)
                self._record(out, wall, result, digest, "serial_ref")
            except Exception as exc:
                out.check(False, f"single-rank reference failed: {exc!r}")

        s = out.samples
        rate = median(s.get(f"{label}.mcells_per_s", []))
        out.end_to_end = {
            "mcells_per_s": rate,
            "latency_p50_s": median(s.get(f"{label}.wall_s", [])),
        }
        out.named["mcells_per_s"] = rate
        if "compression_ratio" in out.extra:
            out.named["compression_ratio"] = out.extra["compression_ratio"]
        program = median(s.get(f"{label}.program_mcells_per_s", []))
        out.extra["program_over_outside"] = {
            "value": program / rate if rate else 0.0,
            "base": "outside-timed mcells_per_s", "program": program,
            "outside": rate}
        if "serial_ref.mcells_per_s" in s:
            ref = median(s["serial_ref.mcells_per_s"])
            out.extra["speedup_vs_serial"] = {
                "value": rate / ref, "base": "single-rank sim run of the "
                "same case in this process (1 sample)", "serial": ref}
        if trace:
            out.layers = median_layers(traced_rows)
            out.layers.update(self._trace_layers(out))
        return out

    def _trace_layers(self, out: Outcome) -> dict[str, float]:
        s = out.samples
        rhs_s = out.layers.get("core.rhs_s", 0.0)
        untraced = median(s.get("sim.wall_s", []))
        traced = median(s.get("traced.wall_s", []))
        label = self.backend
        rate = median(s.get(f"{label}.mcells_per_s", []))
        program = median(s.get(f"{label}.program_mcells_per_s", []))
        return {
            "core.rhs_gflop_s": (self._rhs_flops_per_step / rhs_s / 1e9
                                 if rhs_s else 0.0),
            "node.blocks_per_step": out.layers.get("core.rhs_calls", 0.0) / 3,
            "cluster.world_start_s": median(s.get(f"{label}.world_start_s", [])),
            "cluster.comm_wait_s": median(s.get(f"{label}.comm_wait_s", [])),
            "cluster.bytes_per_step": out.extra.get("bytes_per_step", 0.0),
            "cluster.messages_per_step": out.extra.get("messages_per_step",
                                                       0.0),
            "cluster.program_rate_ratio": program / rate if rate else 0.0,
            "compression.ratio_p": out.extra.get("ratio_p", 0.0),
            "compression.ratio_gamma": out.extra.get("ratio_Gamma", 0.0),
            "trace.overhead_ratio": traced / untraced - 1.0 if untraced else 0.0,
        }


# -- field-io128 --------------------------------------------------------------


class FieldIOWorkload:
    """Dump + checkpoint round trip of a seeded cloud state."""

    name = "field-io128"
    #: guaranteed-mode L-inf bounds of the paper's p and Gamma dumps
    EPS = {"p": 1e-2, "Gamma": 1e-3}
    RANKS = 2

    def __init__(self, why: str, smoke: bool = False):
        self.why = why
        self.n = 32 if smoke else 128
        self.block_size = 16 if smoke else 32

    def definition(self) -> dict:
        return {"workload": self.name, "case": "field-io", "cells": self.n,
                "bubbles": 4, "p_liquid": 1000.0, "eps": self.EPS,
                "ranks": self.RANKS, "compress_block": self.block_size,
                "guaranteed": True}

    def setup(self, seed: int, workdir: str) -> None:
        from repro.cluster import checkpoint
        from repro.cluster.mpi_sim import SimWorld
        from repro.compression import io
        from repro.compression.scheme import WaveletCompressor
        from repro.node.grid import BlockGrid
        from repro.physics.state import GAMMA, STORAGE_DTYPE
        from repro.sim import cloud_collapse
        from repro.sim.cloud import Bubble
        from repro.sim.diagnostics import pressure_field

        # Modules, not functions: calls must resolve at call time so the
        # traced run reaches the span wrappers.
        self._SimWorld, self._ckpt, self._io = SimWorld, checkpoint, io
        self.workdir = workdir
        bubbles = bubble_cloud(np.random.default_rng(seed), 4)
        ic = cloud_collapse([Bubble(center=b[:3], radius=b[3])
                             for b in bubbles],
                            p_liquid=1000.0, smoothing=1.0 / self.n)
        bs = 16  # the cloud workloads' block size
        grid = BlockGrid((self.n // bs,) * 3, bs, 1.0 / self.n)
        grid.fill(ic)
        self.state = grid.to_array()
        self.fields = {
            "p": pressure_field(self.state).astype(STORAGE_DTYPE),
            "Gamma": self.state[..., GAMMA].astype(STORAGE_DTYPE),
        }
        self.compressors = {
            q: WaveletCompressor(eps=eps, block_size=self.block_size,
                                 guaranteed=True)
            for q, eps in self.EPS.items()
        }
        self.raw_bytes = 2 * (sum(f.nbytes for f in self.fields.values())
                              + self.state.nbytes)

    def teardown(self) -> None:
        pass

    def _round_trip(self):
        """Compress+write p and Gamma, write the checkpoint, read all back."""
        ckpt_io, dump_io = self._ckpt, self._io
        paths = {q: os.path.join(self.workdir, f"dump_{q}.rwz")
                 for q in self.fields}
        ckpt = os.path.join(self.workdir, "state.ckpt")
        slab = self.n // self.RANKS

        def rank_main(comm):
            z0 = comm.rank * slab
            sizes = {}
            for q, data in self.fields.items():
                cf = self.compressors[q].compress(data[z0:z0 + slab])
                dump_io.write_compressed_parallel(
                    comm, paths[q], q, cf,
                    rank_meta={"origin_cells": [z0, 0, 0]})
                sizes[q] = len(cf.payload)
            ckpt_io.write_checkpoint(comm, ckpt, self.state[z0:z0 + slab],
                                     (z0, 0, 0), 0.0, 0)
            return sizes

        sizes = self._SimWorld(self.RANKS).run(rank_main)
        back = {q: dump_io.read_field(paths[q], self.compressors[q])
                for q in self.fields}
        restored, _, _ = ckpt_io.read_checkpoint_field(ckpt)
        return sizes, back, restored

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        timer = _Timed(seconds)
        traced_rows: list[dict] = []
        plan = ["untraced", "traced"] if trace else ["untraced"]
        while timer.more():
            for kind in plan:
                rec = SpanRecorder(f"{self.name}-{timer.count}") \
                    if kind == "traced" else None
                try:
                    if rec is None:
                        t0 = time.perf_counter()
                        res = self._round_trip()
                        wall = time.perf_counter() - t0
                    else:
                        wall, res = _traced(rec, self._round_trip)
                        out.recorders.append(rec)
                        traced_rows.append(span_layers(rec, 1.0))
                    self._check(out, kind, wall, *res)
                except Exception as exc:
                    out.check(False, f"round trip failed: {exc!r}")
                    wall = 0.0
            timer.done(wall)

        s = out.samples
        rt = median(s.get("untraced.wall_s", []))
        out.end_to_end = {
            "mcells_per_s": median(s.get("untraced.mcells_per_s", [])),
            "latency_p50_s": rt,
        }
        out.named = {
            "io_mb_s": median(s.get("untraced.io_mb_s", [])),
            "compression_ratio": out.extra.get("compression_ratio", 0.0),
        }
        if trace:
            out.layers = median_layers(traced_rows)
            traced = median(s.get("traced.wall_s", []))
            out.layers.update({
                "compression.ratio_p": out.extra.get("ratio_p", 0.0),
                "compression.ratio_gamma": out.extra.get("ratio_Gamma", 0.0),
                "compression.linf_p": max(s.get("untraced.linf_p", [0.0])),
                "compression.linf_gamma": max(s.get("untraced.linf_Gamma",
                                                    [0.0])),
                "trace.overhead_ratio": traced / rt - 1.0 if rt else 0.0,
            })
        return out

    def _check(self, out: Outcome, kind: str, wall: float, sizes, back,
               restored) -> None:
        ok = True
        problems = []
        compressed = {q: sum(r[q] for r in sizes) for q in self.fields}
        for q, data in self.fields.items():
            linf = float(np.max(np.abs(back[q].astype(np.float64) - data)))
            out.sample(f"{kind}.linf_{q}", linf)
            if not linf <= self.EPS[q]:
                ok = False
                problems.append(f"{q} L-inf {linf:.3g} > {self.EPS[q]}")
            ratio = data.nbytes / compressed[q]
            if out.extra.setdefault(f"ratio_{q}", ratio) != ratio:
                ok = False
                problems.append(f"{q} compressed size changed between repeats")
        if not (restored.dtype == self.state.dtype
                and np.array_equal(restored, self.state)):
            ok = False
            problems.append("checkpoint round trip is not bitwise equal")
        raw = sum(f.nbytes for f in self.fields.values())
        out.extra["compression_ratio"] = raw / sum(compressed.values())
        if out.check(ok, f"{kind}: " + "; ".join(problems)):
            out.sample(f"{kind}.wall_s", wall)
            out.sample(f"{kind}.mcells_per_s", self.n ** 3 / wall / 1e6)
            out.sample(f"{kind}.io_mb_s", self.raw_bytes / wall / 1e6)


# -- serve-mix ----------------------------------------------------------------


class ServeWorkload:
    """Closed-loop clients against a 2-worker ``JobEngine``."""

    name = "serve-mix"
    WORKERS = 2
    CLIENTS = 2
    #: phase-B hit requests gathered at least (passes over every key)
    MIN_HITS = 100

    def __init__(self, why: str, smoke: bool = False):
        self.why = why
        self.cells = 16
        self.block_size = 8
        self.steps = 1 if smoke else 3
        self.keys_per_round = 2 if smoke else 6

    def definition(self) -> dict:
        return {"workload": self.name, "case": "serve", "cells": self.cells,
                "block_size": self.block_size, "steps": self.steps,
                "bubbles": 2, "p_liquid": 1000.0, "workers": self.WORKERS,
                "clients": self.CLIENTS, "keys_per_round": self.keys_per_round,
                "requests_per_key": 2}

    def setup(self, seed: int, workdir: str) -> None:
        from repro.service.engine import JobEngine, ServiceConfig
        from repro.service.request import ICSpec, JobRequest
        from repro.sim import SimulationConfig
        from repro.telemetry.log import configure

        self._ICSpec, self._JobRequest = ICSpec, JobRequest
        self._Config = SimulationConfig
        self.rounds = request_rounds(np.random.default_rng(seed),
                                     self.keys_per_round, 2)
        self._bubbles: dict[int, list] = {}  # key -> bubbles, once handed out
        self.engine = JobEngine(ServiceConfig(
            workers=self.WORKERS, workdir=workdir, seed=seed))
        configure(level="warn")
        self.engine.start()
        # Warm-up: one job per worker so both have imported the solver.
        warm_rng = np.random.default_rng([seed, 1])
        warm = [self.engine.submit(self._request(bubble_cloud(
            warm_rng, 2, cloud_radius=0.3, r_min=0.08, r_max=0.12)))
            for _ in range(self.WORKERS)]
        for h in warm:
            h.result(timeout=120)

    def teardown(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.shutdown(drain=True)
            self.engine = None

    def _request(self, bubbles):
        config = self._Config(cells=self.cells, block_size=self.block_size,
                              max_steps=self.steps)
        return self._JobRequest(config, self._ICSpec("cloud_collapse", {
            "bubbles": [list(b) for b in bubbles], "p_liquid": 1000.0,
            "smoothing": 1.0 / self.cells}))

    @staticmethod
    def _payload_digest(payload: dict) -> str:
        series = payload["series"]
        return _digest(payload["final_field"], payload["steps"],
                       payload["times"], payload["dts"],
                       *(series[k] for k in sorted(series)))

    def _phase_a(self, seconds: float, out: Outcome, label: str) -> dict:
        """Closed-loop clients over whole rounds until the budget is spent.

        Throughput is sampled per round (its requests over the time from
        its first hand-out to the next round's), so ``jobs_per_s`` is a
        median like every other timing.
        """
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds
        pending: list = []
        round_starts: list[float] = []
        log: list[tuple] = []  # (key, submit, done, cached, digest, wall)

        def next_request():
            with lock:
                if not pending:
                    if time.perf_counter() >= deadline and log:
                        return None
                    batch = next(self.rounds)
                    self._bubbles.update(batch)
                    pending.extend(reversed(batch))
                    round_starts.append(time.perf_counter())
                return pending.pop()

        errors: list[BaseException] = []

        def client():
            try:
                serve()
            except BaseException as exc:  # re-raised in the caller
                errors.append(exc)

        def serve():
            while (item := next_request()) is not None:
                key, bubbles = item
                t0 = time.perf_counter()
                try:
                    res = self.engine.submit(self._request(bubbles)).result(
                        timeout=120)
                except Exception as exc:
                    with lock:
                        log.append((key, t0, time.perf_counter(), None,
                                    repr(exc), 0.0))
                    continue
                t1 = time.perf_counter()
                with lock:
                    log.append((key, t0, t1, res.cached,
                                self._payload_digest(res.payload),
                                res.payload["wall_seconds"]))

        threads = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        bounds = round_starts + [max(entry[2] for entry in log)]
        for t0, t1 in zip(bounds, bounds[1:]):
            out.sample(f"{label}.jobs_per_s",
                       2 * self.keys_per_round / (t1 - t0))

        first: dict[int, tuple] = {}
        for entry in sorted(log, key=lambda e: e[1]):
            key, t0, t1, cached, digest, compute = entry
            if not out.check(cached is not None,
                             f"{label}: key {key} failed: {digest}"):
                continue
            if key not in first:
                first[key] = entry
                if cached:
                    out.check(False, f"{label}: first request of key {key} "
                              "was served from cache")
                else:
                    out.sample(f"{label}.miss_s", t1 - t0)
                    out.sample(f"{label}.compute_s", compute)
                    out.sample(f"{label}.overhead_s", t1 - t0 - compute)
                out.extra.setdefault("digests", {})[key] = digest
            else:
                out.check(digest == first[key][4],
                          f"{label}: reused result of key {key} differs")
        return first

    def _phase_b(self, keys, out: Outcome, label: str) -> None:
        """One client re-requests every key from the warm cache."""
        hits = 0
        while keys and hits < self.MIN_HITS:
            for key in keys:
                bubbles = self._bubbles[key]
                t0 = time.perf_counter()
                try:
                    res = self.engine.submit(self._request(bubbles)).result(
                        timeout=120)
                except Exception as exc:
                    out.check(False, f"{label}: hit of key {key} failed: "
                              f"{exc!r}")
                    continue
                t1 = time.perf_counter()
                out.check(res.cached and self._payload_digest(res.payload)
                          == out.extra["digests"][key],
                          f"{label}: cache hit of key {key} missing or "
                          "different")
                out.sample(f"{label}.hit_ms", (t1 - t0) * 1e3)
                hits += 1

    def _phases(self, budget: float, out: Outcome, label: str) -> dict:
        """Phase A then phase B; checks the engine counters of each."""
        c = self.engine.counters
        before = dict(c)
        first = self._phase_a(budget, out, label)
        delta_a = {k: c[k] - before[k] for k in c}
        computed = sum(1 for e in first.values() if not e[3])
        out.check(delta_a["computed"] == computed == len(first),
                  f"{label}: {delta_a['computed']} jobs computed for "
                  f"{len(first)} unique keys")
        before = dict(c)
        self._phase_b(sorted(first), out, label)
        out.check(c["computed"] == before["computed"]
                  and c["retries"] == 0,
                  f"{label}: phase B computed or the engine retried "
                  f"({c['retries']} retries)")
        return delta_a

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        budget = 0.9 * seconds / (2 if trace else 1)
        phase_a = {"untraced": self._phases(budget, out, "untraced")}
        if trace:
            rec = SpanRecorder(f"{self.name}-traced")
            inst = layers.install(rec)
            try:
                with rec.span("bench.run", root=True):
                    phase_a["traced"] = self._phases(budget, out, "traced")
            finally:
                inst.remove()
            out.recorders.append(rec)

        s = out.samples
        miss = median(s.get("untraced.miss_s", []))
        jobs = median(s.get("untraced.jobs_per_s", []))
        out.end_to_end = {
            "mcells_per_s": jobs * self.cells ** 3 * self.steps / 1e6,
            "latency_p50_s": miss,
        }
        out.named = {
            "jobs_per_s": jobs,
            "miss_latency_p50_s": miss,
            "hit_latency_p50_ms": median(s.get("untraced.hit_ms", [])),
        }
        out.extra["phase_a_counters"] = phase_a
        if trace:
            out.layers = self._trace_layers(out, phase_a["traced"])
        return out

    def _trace_layers(self, out: Outcome, phase_a: dict) -> dict[str, float]:
        """Median self seconds per call of each service span, and ratios."""
        rec = out.recorders[-1]
        own = self_times(rec.spans)
        per_call: dict[str, list[float]] = {}
        for sp in rec.spans:
            per_call.setdefault(sp.name, []).append(own[sp.span_id])
        root = per_call.pop("bench.run")
        layer = {SELF_TIME_METRIC[name]: median(v)
                 for name, v in per_call.items()}
        s = out.samples
        untraced_jobs = median(s.get("untraced.jobs_per_s", []))
        traced_jobs = median(s.get("traced.jobs_per_s", []))
        layer.update({
            "service.overhead_s": median(s.get("untraced.overhead_s", [])
                                         + s.get("traced.overhead_s", [])),
            "service.compute_s": median(s.get("untraced.compute_s", [])
                                        + s.get("traced.compute_s", [])),
            "service.reused_ratio": ((phase_a["cache_hits"]
                                      + phase_a["dedup_joined"])
                                     / phase_a["submitted"]),
            "service.retries": float(self.engine.counters["retries"]),
            "service.worker_restarts": float(self.engine.pool.restarts),
            "trace.overhead_ratio": (untraced_jobs / traced_jobs - 1.0
                                     if traced_jobs else 0.0),
            "trace.coverage": sum(sum(v) for v in per_call.values())
            / sum(root),
        })
        return layer


WHY = {
    "cloud32-serial": "plain single-rank baseline: RHS is ~97% of wall "
                      "time, no halo traffic, no I/O",
    "cloud32-procs2": "same case on 2 procs ranks with dumps and rotated "
                      "checkpoints: spawn, shared-memory halos, collectives",
    "field-io128": "128^3 p/Gamma wavelet dump and full-state checkpoint "
                   "round trip: compression and I/O only, no solver",
    "serve-mix": "2-worker job service, closed-loop clients: misses "
                 "compute and fill the cache, repeats dedup or hit it",
}


def make(name: str, smoke: bool = False):
    """The workload called ``name`` (``smoke`` shrinks it for self-tests)."""
    if name == "cloud32-serial":
        return CloudWorkload(name, WHY[name], 1, "sim", False, smoke)
    if name == "cloud32-procs2":
        return CloudWorkload(name, WHY[name], 2, "procs", True, smoke)
    if name == "field-io128":
        return FieldIOWorkload(WHY[name], smoke)
    if name == "serve-mix":
        return ServeWorkload(WHY[name], smoke)
    raise ValueError(f"unknown workload {name!r}")
