"""Paper Table 9: micro-fused vs baseline WENO kernel.

The paper reports 7.9 -> 9.2 GFLOP/s (1.2x rate, 1.3x cycles) from
micro-fusing the WENO stage.  Here both the *model* reproduction of that
row and a *measured* comparison are produced: the allocating expression
form (:func:`_weno5_minus_raw` on both faces, every temporary a fresh
array) against the production :func:`weno5`, which issues the same
evaluation tree into nine reused scratch buffers -- the same engineering
idea, observable in Python as reduced allocation/memory traffic.  The two
are bitwise equal (``tests/test_hotpath_equivalence.py``).
"""

import time

import numpy as np
import pytest
from _common import write_result

from repro.perf.scaling import table9
from repro.physics.weno import _weno5_minus_raw, weno5


def render_model() -> str:
    t = table9()
    return (
        "Table 9: WENO kernel micro-fusion (model vs paper)\n"
        f"  baseline: {t['baseline_gflops']:.2f} GFLOP/s "
        f"({100 * t['baseline_peak_frac']:.0f} % peak)   [paper: 7.9 / 62 %]\n"
        f"  fused   : {t['fused_gflops']:.2f} GFLOP/s "
        f"({100 * t['fused_peak_frac']:.0f} % peak)   [paper: 9.2 / 72 %]\n"
        f"  GFLOP/s improvement: {t['gflops_improvement']:.2f}x  [paper: 1.2x]\n"
        f"  time improvement   : {t['time_improvement']:.2f}x  [paper: 1.3x]"
    )


@pytest.fixture(scope="module")
def weno_input():
    rng = np.random.default_rng(3)
    # 7 quantities x four blocks' worth of x-sweep lines (where the
    # allocating baseline's temporaries clearly exceed cache).
    return rng.normal(size=(7, 4 * 32 * 32, 38))


def weno5_expression_form(v):
    """Allocating baseline: the readable expression form on both faces."""
    nfaces = v.shape[-1] - 5
    a, b, c, d, e, f = (v[..., k : k + nfaces] for k in range(6))
    return _weno5_minus_raw(a, b, c, d, e), _weno5_minus_raw(f, e, d, c, b)


def test_table9_model(benchmark):
    text = benchmark(render_model)
    write_result("table9_weno_fusion_model", text)


def test_table9_baseline_weno(benchmark, weno_input):
    benchmark(weno5_expression_form, weno_input)


def test_table9_microfused_weno5(benchmark, weno_input):
    benchmark(weno5, weno_input)


def test_table9_measured_comparison(benchmark, weno_input):
    """Direct timing comparison written to the results file."""

    def compare():
        reps = 10
        weno5_expression_form(weno_input)  # warm
        t0 = time.perf_counter()
        for _ in range(reps):
            weno5_expression_form(weno_input)
        t_base = (time.perf_counter() - t0) / reps

        weno5(weno_input)
        t0 = time.perf_counter()
        for _ in range(reps):
            weno5(weno_input)
        t_fused = (time.perf_counter() - t0) / reps
        return t_base, t_fused

    t_base, t_fused = benchmark.pedantic(compare, rounds=1, iterations=1)

    gain = t_base / t_fused
    text = (
        "Measured Python WENO fusion gain:\n"
        f"  baseline (expression form): {t_base * 1e3:7.2f} ms\n"
        f"  fused (weno5, out=)       : {t_fused * 1e3:7.2f} ms\n"
        f"  time improvement          : {gain:7.2f}x   [paper: 1.3x]"
    )
    write_result("table9_weno_fusion_measured", text)
    # The fused kernel must win, as in the paper (paper: 1.3x).
    assert gain > 1.05
