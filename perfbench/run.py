"""Repository benchmark: four seeded workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cloud32-procs2 --seed 2013 \\
        --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  The report goes to standard output; its second-last
line is the full record (provenance, seed, workload-definition hash,
sample summaries, derived ratios) and its last line the result object
``{"correct", "attempted", "failed", "metrics"}``.  Records and spans
are also written under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time

_T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
#: Set-up samples per run: this process plus fresh-process probes.
SETUP_SAMPLES = 3
#: Benchmark definition version, part of every workload-definition hash.
VERSION = 1
WORKLOADS = ("cloud32-serial", "cloud32-procs2", "field-io128", "serve-mix")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=2013)
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="time budget of the timed repeats")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the self-tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _child_args(args, workload: str) -> list[str]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return cmd + (["--smoke"] if args.smoke else [])


def setup_probe(args) -> float:
    """Set-up time of the workload in a fresh interpreter (seconds)."""
    proc = subprocess.run(_child_args(args, args.workload) + ["--setup-probe"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
    return float(_last_json(proc.stdout)["setup_s"])


def run_workload(args) -> int:
    from benchlib import metrics, stats, workloads
    from benchlib.inputs import definition_hash

    wl = workloads.make(args.workload, smoke=args.smoke)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        try:
            wl.setup(args.seed, workdir)
            setup_s = time.perf_counter() - _T_START
            if args.setup_probe:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            outcome = wl.run(args.seconds, bool(args.trace))
        finally:
            wl.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it
    peak_rss = stats.peak_rss_mb()

    setups = [setup_s] + [setup_probe(args)
                          for _ in range(SETUP_SAMPLES - 1)]
    e2e = dict(outcome.end_to_end, setup_s=stats.median(setups),
               peak_rss_mb=peak_rss)
    named = dict(outcome.named, setup_s=e2e["setup_s"],
                 peak_rss_mb=peak_rss,
                 failed_ratio=outcome.failed / max(outcome.attempted, 1))
    if args.trace:
        chosen = {k: (float(outcome.layers.get(k, 0.0)), unit)
                  for k, (unit, _) in metrics.PER_LAYER.items()}
    else:
        chosen = {k: (e2e[k], unit)
                  for k, (unit, _) in metrics.END_TO_END.items()}
    definition = dict(wl.definition(), version=VERSION)
    record = {
        "workload": args.workload,
        "why": wl.why,
        "seed": args.seed,
        "definition": definition,
        "definition_hash": definition_hash(definition),
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": stats.provenance(),
        "end_to_end": e2e,
        "named": named,
        "layers": outcome.layers,
        "setup_samples": setups,
        "samples": {k: stats.summary(v) for k, v in outcome.samples.items()},
        "extra": {k: v for k, v in outcome.extra.items() if k != "digests"},
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".record.json", "w") as f:
        json.dump(record, f, indent=1)
    for rec in outcome.recorders[-1:]:
        rec.write(stem + ".spans.json")

    print_report(record, chosen)
    print(json.dumps(record))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


def print_report(record: dict, chosen: dict) -> None:
    print(f"# {record['workload']}  seed={record['seed']}  "
          f"definition={record['definition_hash']}  "
          f"trace={record['trace']}  host={record['provenance']['host']}")
    print(f"#   {record['why']}")
    for name, (value, unit) in chosen.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print("# named metrics of this workload")
    for name, value in record["named"].items():
        print(f"{name:32s} {value:14.6g}")
    print("# samples (n, median, q1, q3, tail)")
    for name, s in record["samples"].items():
        cols = "  ".join(f"{k}={v:.6g}" for k, v in s.items())
        print(f"  {name:30s} {cols}")
    for name, value in record["extra"].items():
        if isinstance(value, dict) and "base" in value:
            print(f"derived {name}: {value['value']:.4g} (base: {value['base']})")
    print(f"attempted={record['attempted']} failed={record['failed']}")
    for p in record["problems"]:
        print(f"  FAILED: {p}")


def run_all(args) -> int:
    """Every workload in turn (one child process each) plus derived ratios."""
    records, results = {}, {}
    for name in WORKLOADS:
        proc = subprocess.run(_child_args(args, name), cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return proc.returncode or 1
        lines = proc.stdout.strip().splitlines()
        records[name], results[name] = json.loads(lines[-2]), json.loads(lines[-1])

    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    digests = {n: records[n]["extra"].get("final_sha256")
               for n in ("cloud32-serial", "cloud32-procs2")}
    attempted += 1
    if digests["cloud32-serial"] != digests["cloud32-procs2"]:
        failed += 1
        print("FAILED: serial and procs2 final fields differ")
    print("# all workloads")
    if not args.trace:
        serial = records["cloud32-serial"]["end_to_end"]["mcells_per_s"]
        procs = records["cloud32-procs2"]["end_to_end"]["mcells_per_s"]
        print(f"derived procs2/serial speedup: {procs / serial:.4g} "
              f"(base: cloud32-serial {serial:.4g} Mcells/s, outside-timed)")
    for name, rec in records.items():
        for metric, value in rec["named"].items():
            print(f"{name:16s} {metric:24s} {value:14.6g}")
    print(json.dumps({
        "correct": failed == 0 and all(r["correct"] for r in results.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """End the helper process multiprocessing starts for shared memory.

    The procs backend and the service workers use ``shared_memory``, which
    starts a resource-tracker child; stop it and wait for it, so the run
    leaves no process behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
