"""Paper Section 7 throughput claims.

"On the 96 racks of Sequoia, the simulations operate on 13.2 trillion
points, taking 18.3 seconds to perform a simulation step, reaching a
throughput of 721 billion points per second" -- plus the 20x
time-to-solution improvement over Schmidt et al. projected to BGQ.

Model reproduction alongside the measured Python throughput of this
reproduction (cells advanced per second through the full stack), plus a
seeded fixed-case *kernel microbenchmark* (RHS / WENO5 / HLLE / SOS in
isolation) whose record lands in ``BENCH_kernels.json`` at the repo root
so kernel-level throughput is tracked across PRs::

    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke
    PYTHONPATH=src python benchmarks/bench_throughput.py \\
        --kernels rhs,weno5 --out BENCH_kernels.json
"""

import json
import time
from pathlib import Path

import numpy as np

from _common import write_json_result, write_result

from repro.cluster.driver import Simulation
from repro.core.kernels import rhs_kernel, sos_kernel
from repro.perf.machines import SEQUOIA
from repro.perf.scaling import throughput_cells_per_second, time_per_step
from repro.physics.eos import LIQUID, conserved_to_primitive, total_energy
from repro.physics.riemann import hlle_flux
from repro.physics.state import (
    COMPUTE_DTYPE,
    ENERGY,
    GAMMA,
    NQ,
    PI,
    RHO,
    RHOU,
    RHOV,
    RHOW,
)
from repro.physics.weno import weno5
from repro.sim.cloud import Bubble
from repro.sim.config import SimulationConfig
from repro.sim.ic import cloud_collapse

from repro.telemetry import trend

TOTAL_CELLS = 13.2e12

#: Schema identifier of the kernel microbench record: v2 = v1 plus the
#: mandatory provenance block (host fingerprint, git sha, timestamp,
#: python/numpy versions) defined by :mod:`repro.telemetry.trend`.
KERNEL_BENCH_SCHEMA = trend.KERNEL_SCHEMA_V2

#: Fixed seed of the microbench case (the paper's SC year).
KERNEL_BENCH_SEED = 2013

#: Kernels the microbench times, in report order.
KERNEL_BENCH_CASES = ("rhs", "weno5", "hlle", "sos")

#: Default record path: the repo root.
KERNEL_BENCH_OUT = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"


def render_model() -> str:
    tput = throughput_cells_per_second(96)
    step = time_per_step(TOTAL_CELLS, 96)
    # State-of-the-art baseline (Schmidt et al. 2011) projected on BGQ:
    # the paper claims a 20x throughput/time-to-solution improvement.
    baseline_tput = tput / 20.0
    return (
        "Section 7 throughput (model vs paper):\n"
        f"  grid points            : {TOTAL_CELLS:.3g}   [paper: 13.2e12]\n"
        f"  throughput             : {tput / 1e9:7.0f} Gcells/s  [paper: 721]\n"
        f"  time per step          : {step:7.1f} s        [paper: 18.3]\n"
        f"  projected SoA baseline : {baseline_tput / 1e9:7.0f} Gcells/s "
        "(Schmidt et al. on BGQ)\n"
        f"  improvement            : {tput / baseline_tput:7.1f}x      [paper: 20x]\n"
        f"  cores used             : {SEQUOIA.cores:.3g}   [paper: 1.6e6]"
    )


def measured_python_throughput():
    cfg = SimulationConfig(
        cells=32, block_size=16, max_steps=3, num_workers=4, diag_interval=0,
    )
    ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)], p_liquid=1000.0)
    sim = Simulation(cfg, ic)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    cells_steps = 32**3 * 3
    return cells_steps / elapsed


def test_throughput_model(benchmark):
    text = benchmark(render_model)
    tput = throughput_cells_per_second(96)
    assert abs(tput - 721e9) / 721e9 < 0.1
    write_result("throughput_model", text)


# -- kernel microbenchmark (BENCH_kernels.json) ---------------------------


def _bench_state(n: int, seed: int):
    """Seeded, physically admissible padded AoS liquid state.

    A perturbed liquid at rest: density/pressure/velocity drawn from the
    fixed-seed generator so every run (and every PR) times the exact same
    case.  Returns float32 AoS data of shape ``(n+6, n+6, n+6, NQ)``.
    """
    rng = np.random.default_rng(seed)
    shape = (n + 6, n + 6, n + 6)
    rho = 1000.0 * (1.0 + 0.02 * rng.standard_normal(shape))
    u = 0.1 * rng.standard_normal(shape)
    v = 0.1 * rng.standard_normal(shape)
    w = 0.1 * rng.standard_normal(shape)
    p = 100.0 * (1.0 + 0.05 * rng.standard_normal(shape))
    aos = np.empty(shape + (NQ,), dtype=np.float32)
    aos[..., RHO] = rho
    aos[..., RHOU] = rho * u
    aos[..., RHOV] = rho * v
    aos[..., RHOW] = rho * w
    aos[..., ENERGY] = total_energy(rho, u, v, w, p, LIQUID.G, LIQUID.P)
    aos[..., GAMMA] = LIQUID.G
    aos[..., PI] = LIQUID.P
    return aos


def _bench_callables(n: int, seed: int):
    """(callable, cells-per-call) pairs of the microbench kernels."""
    g = 3
    h = 1.0 / n
    pad = _bench_state(n, seed)
    interior = pad[g:-g, g:-g, g:-g]
    Upad = np.ascontiguousarray(
        np.moveaxis(pad, -1, 0), dtype=COMPUTE_DTYPE
    )
    Wpad = conserved_to_primitive(Upad)
    # One x-sweep's worth of reconstruction input and face states.
    Wline = np.ascontiguousarray(Wpad[:, g:-g, g:-g, :])
    W_minus, W_plus = weno5(Wline)
    return {
        "rhs": (lambda: rhs_kernel(pad, h), n**3),
        "weno5": (lambda: weno5(Wline), n * n * (n + 1)),
        "hlle": (lambda: hlle_flux(W_minus, W_plus, normal=0),
                 n * n * (n + 1)),
        "sos": (lambda: sos_kernel(interior), n**3),
    }


def run_kernel_microbench(
    kernels=KERNEL_BENCH_CASES,
    n: int = 32,
    repeats: int = 3,
    seed: int = KERNEL_BENCH_SEED,
) -> dict:
    """Time the requested kernels on the fixed seeded case.

    Each kernel runs once for warmup, then ``repeats`` timed calls; the
    record keeps the best wall time (least-noise convention).  Returns
    the ``BENCH_kernels.json`` payload, stamped with the schema-v2
    provenance block so it can join the ``BENCH_history.jsonl``
    trajectory and gate regressions (``python -m repro.telemetry trend``).
    """
    cases = _bench_callables(n, seed)
    unknown = [k for k in kernels if k not in cases]
    if unknown:
        raise ValueError(
            f"unknown kernel(s) {unknown}; choose from {sorted(cases)}"
        )
    record: dict = {
        "schema": KERNEL_BENCH_SCHEMA,
        "case": {"n": n, "seed": seed, "repeats": repeats,
                 "dtype": "float32 AoS storage, float64 compute"},
        "kernels": {},
    }
    for name in kernels:
        fn, cells = cases[name]
        fn()  # warmup
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        record["kernels"][name] = {
            "cells_per_call": cells,
            "wall_s": round(best, 6),
            "gcells_per_s": round(cells / best / 1e9, 6),
        }
    return trend.stamp(record)


def render_kernel_bench(record: dict) -> str:
    """Rendered table of a microbench record (the bench artifact)."""
    case = record["case"]
    lines = [
        f"Kernel microbench (n={case['n']}, seed={case['seed']}, "
        f"best of {case['repeats']}):",
        f"  {'kernel':8s} {'cells':>9s} {'wall [ms]':>10s} {'Gcells/s':>9s}",
    ]
    for name, row in record["kernels"].items():
        lines.append(
            f"  {name:8s} {row['cells_per_call']:9d} "
            f"{row['wall_s'] * 1e3:10.3f} {row['gcells_per_s']:9.5f}"
        )
    return "\n".join(lines)


def write_kernel_bench(record: dict, out=KERNEL_BENCH_OUT) -> Path:
    """Write the microbench record; returns the path."""
    path = Path(out)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def test_kernel_microbench(benchmark):
    record = benchmark.pedantic(
        lambda: run_kernel_microbench(n=16, repeats=1),
        rounds=1, iterations=1,
    )
    assert set(record["kernels"]) == set(KERNEL_BENCH_CASES)
    assert record["schema"] == KERNEL_BENCH_SCHEMA
    assert "provenance" in record
    for row in record["kernels"].values():
        assert row["wall_s"] > 0 and row["gcells_per_s"] > 0
    write_result("kernel_microbench", render_kernel_bench(record))
    write_json_result("kernel_microbench", record)


def test_throughput_measured_python(benchmark):
    cps = benchmark.pedantic(measured_python_throughput, rounds=1, iterations=1)
    paper_per_node = 721e9 / SEQUOIA.nodes
    text = (
        "Measured Python end-to-end throughput (32^3, full stack):\n"
        f"  this machine : {cps / 1e6:8.3f} Mcells/s\n"
        f"  paper per BGQ node: {paper_per_node / 1e6:8.3f} Mcells/s\n"
        f"  gap: {paper_per_node / cps:8.1f}x (interpreted-language penalty,\n"
        "  consistent with the repro-band calibration)"
    )
    write_result("throughput_measured_python", text)
    assert cps > 1e4


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(
        description="Seeded fixed-case kernel microbench "
        "(writes BENCH_kernels.json)",
    )
    ap.add_argument(
        "--kernels", default=",".join(KERNEL_BENCH_CASES),
        help="comma-separated subset of " + ",".join(KERNEL_BENCH_CASES),
    )
    ap.add_argument(
        "--smoke", action="store_true",
        help="small case (n=16, 1 repeat) for CI smoke runs",
    )
    ap.add_argument(
        "--out", default=str(KERNEL_BENCH_OUT),
        help="record path (default: BENCH_kernels.json at the repo root)",
    )
    ap.add_argument(
        "--history", metavar="PATH", default=None,
        help="also append the record to this BENCH_history.jsonl "
             "trajectory (see repro.telemetry.trend)",
    )
    cli = ap.parse_args()
    names = tuple(k.strip() for k in cli.kernels.split(",") if k.strip())
    if cli.smoke:
        rec = run_kernel_microbench(names, n=16, repeats=1)
    else:
        rec = run_kernel_microbench(names)
    print(render_kernel_bench(rec))
    print(f"[written to {write_kernel_bench(rec, cli.out)}]")
    if cli.history:
        print(f"[appended to {trend.append_history(rec, cli.history)}]")
