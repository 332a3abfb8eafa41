"""Self-tests of the benchmark: wrappers, span arithmetic, smoke runs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchlib import layers, metrics  # noqa: E402
from benchlib.inputs import bubble_cloud, definition_hash, request_rounds  # noqa: E402
from benchlib.spans import Span, SpanRecorder, covered, self_times, totals_by_name  # noqa: E402

RUN = os.path.join(BENCH, "run.py")


def _bindings():
    """Every (owner, attr) -> value binding the wrappers may touch."""
    out = {}
    for _, modname, attr in layers.TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            out[(cls, meth)] = cls.__dict__[meth]
        else:
            original = getattr(mod, attr)
            for m in layers._repro_modules():
                for key, value in vars(m).items():
                    if value is original:
                        out[(m, key)] = value
    return out


def test_install_wraps_and_remove_restores_every_binding():
    before = _bindings()
    assert layers.installed_wrappers() == []
    inst = layers.install(SpanRecorder("t"))
    try:
        wrapped = layers.installed_wrappers()
        # every target and every by-name import of it is wrapped
        assert len(wrapped) == len(before)
        from repro.core import kernels
        from repro.node import solver

        assert hasattr(kernels.rhs_kernel, "__perfbench_span__")
        assert hasattr(solver.sos_kernel, "__perfbench_span__")
    finally:
        inst.remove()
    assert layers.installed_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    for (owner, attr), value in before.items():
        bound = (owner.__dict__[attr] if isinstance(owner, type)
                 else getattr(owner, attr))
        assert bound is value, f"{owner!r}.{attr} not restored"


def test_spans_nest_through_wrapped_program_calls():
    from repro.core.kernels import sos_kernel as original_sos
    from repro.node import solver

    from repro.physics.eos import LIQUID, total_energy
    from repro.physics.state import ENERGY, GAMMA, NQ, PI, RHO

    block = np.zeros((8, 8, 8, NQ), dtype=np.float32)
    block[..., RHO] = 1000.0
    block[..., ENERGY] = total_energy(1000.0, 0.0, 0.0, 0.0, 100.0,
                                      LIQUID.G, LIQUID.P)
    block[..., GAMMA] = LIQUID.G
    block[..., PI] = LIQUID.P
    expected = original_sos(block)
    rec = SpanRecorder("t")
    inst = layers.install(rec)
    try:
        with rec.span("bench.run", root=True):
            got = solver.sos_kernel(block)
    finally:
        inst.remove()
    assert got == expected
    by_name = {s.name: s for s in rec.spans}
    assert by_name["core.sos"].parent_id == by_name["bench.run"].span_id
    assert by_name["physics.conv"].parent_id == by_name["core.sos"].span_id
    assert solver.sos_kernel is original_sos


def test_self_time_on_synthetic_tree():
    spans = [
        Span(1, 0, "root", 0.0, 10.0, 1),
        Span(2, 1, "a", 1.0, 4.0, 1),
        Span(3, 1, "b", 3.0, 6.0, 2),  # overlaps a (another thread)
        Span(4, 2, "c", 2.0, 3.0, 1),
        Span(5, 1, "a", 8.0, 9.5, 1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (6.0 - 1.0) - 1.5)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    totals = totals_by_name(spans)
    assert totals["a"] == {"calls": 2, "total": pytest.approx(4.5),
                           "self": pytest.approx(3.5)}
    # self times add up to the root's wall time plus the 1 s in which
    # the concurrent siblings a and b overlap
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)


def test_covered_clips_children_to_parent():
    assert covered((0.0, 5.0), []) == 0.0
    assert covered((0.0, 5.0), [(-1.0, 1.0), (4.0, 7.0)]) == pytest.approx(2.0)
    assert covered((0.0, 5.0), [(1.0, 2.0), (1.5, 3.0), (2.5, 2.7)]) \
        == pytest.approx(2.0)


def test_recorder_parents_other_threads_to_root():
    import threading

    rec = SpanRecorder("t")
    with rec.span("bench.run", root=True) as root:
        t = threading.Thread(target=lambda: rec.wrap("x", lambda: None)())
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    x = [s for s in rec.spans if s.name == "x"][0]
    assert x.parent_id == root


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a = bubble_cloud(np.random.default_rng(7), 4)
    assert a == bubble_cloud(np.random.default_rng(7), 4)
    assert a != bubble_cloud(np.random.default_rng(8), 4)
    for i, b in enumerate(a):
        for c in a[i + 1:]:
            gap = np.linalg.norm(np.subtract(b[:3], c[:3]))
            assert gap > b[3] + c[3]
    r1 = request_rounds(np.random.default_rng(7), 3, 2)
    r2 = request_rounds(np.random.default_rng(7), 3, 2)
    first, again = next(r1), next(r2)
    assert first == again
    keys = [k for k, _ in first]
    assert sorted(keys) == [0, 0, 1, 1, 2, 2]
    assert [k for k, _ in next(r1)] != keys
    assert definition_hash({"a": 1, "b": 2}) == definition_hash({"b": 2, "a": 1})


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert {k: (m["unit"], m["better"]) for k, m in e2e.items()} \
        == metrics.END_TO_END
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"]
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == metrics.PER_LAYER
    sys.path.insert(0, BENCH)
    import run

    gated = [w["name"] for w in doc["workloads"]]
    assert len(gated) >= 2 and set(gated) <= set(run.WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cloud32-serial", "cloud32-procs2",
                                      "field-io128", "serve-mix"])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run("--workload", workload, "--seed", "11", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 1
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == set(catalogue)
    for name, m in result["metrics"].items():
        assert m["unit"] == catalogue[name][0]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["seed"] == 11 and len(record["definition_hash"]) == 12
    assert record["provenance"]["nproc"] >= 1
    if trace and workload == "cloud32-serial":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
        assert result["metrics"]["core.rhs_calls"]["value"] > 0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
