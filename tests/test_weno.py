"""Unit tests for the WENO5 reconstruction (repro.physics.weno)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.physics.weno as weno_mod
from repro.physics.weno import _weno5_minus_raw, weno5, weno5_faces_scalar

from .conftest import make_rng


def _faces_count(m):
    return m - 5


def _expression_form(v):
    """Both face states from the readable :func:`_weno5_minus_raw`."""
    nfaces = _faces_count(v.shape[-1])
    a, b, c, d, e, f = (v[..., k : k + nfaces] for k in range(6))
    return _weno5_minus_raw(a, b, c, d, e), _weno5_minus_raw(f, e, d, c, b)


class TestBasics:
    def test_output_shape(self, rng):
        v = rng.normal(size=(3, 4, 20))
        minus, plus = weno5(v)
        assert minus.shape == (3, 4, 15)
        assert plus.shape == (3, 4, 15)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="at least 6"):
            weno5(np.zeros(5))

    def test_constant_reproduced_exactly(self):
        v = np.full(20, 3.7)
        minus, plus = weno5(v)
        np.testing.assert_allclose(minus, 3.7, rtol=1e-14)
        np.testing.assert_allclose(plus, 3.7, rtol=1e-14)

    def test_scalar_crosscheck(self, rng):
        v = rng.normal(size=11)
        minus, _ = weno5(v)
        for j in range(_faces_count(11)):
            assert minus[j] == pytest.approx(weno5_faces_scalar(v[j : j + 5]))

    def test_minus_plus_mirror_symmetry(self, rng):
        """Reversing the data swaps the roles of minus and plus."""
        v = rng.normal(size=16)
        minus, plus = weno5(v)
        minus_r, plus_r = weno5(v[::-1].copy())
        np.testing.assert_allclose(minus, plus_r[::-1], rtol=1e-13)
        np.testing.assert_allclose(plus, minus_r[::-1], rtol=1e-13)


    @pytest.mark.parametrize(
        "shape", [(11,), (4, 11), (3, 4, 11), (2, 3, 4, 11)]
    )
    def test_shape_contract_any_rank(self, shape):
        v = make_rng(len(shape)).normal(size=shape)
        minus, plus = weno5(v)
        assert minus.shape == plus.shape == shape[:-1] + (6,)
        ref_minus, ref_plus = _expression_form(v)
        assert np.array_equal(minus, ref_minus)
        assert np.array_equal(plus, ref_plus)

    def test_input_untouched_and_outputs_distinct(self, rng):
        v = rng.normal(size=(3, 14))
        before = v.copy()
        minus, plus = weno5(v)
        assert np.array_equal(v, before)
        assert not np.shares_memory(minus, plus)
        assert not np.shares_memory(minus, v)
        again, _ = weno5(v)
        assert again is not minus
        assert np.array_equal(again, minus)


class TestCacheBlocking:
    """Sweeping lines in cache blocks must not change a single bit."""

    # 15 faces per line of 20 cells: a full cache block holds
    # _CACHE_BLOCK_FACES // 15 lines.  Sweep counts just below, at and
    # above one and two full blocks.
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_block_boundaries(self, blocks, offset):
        per_block = weno_mod._CACHE_BLOCK_FACES // 15
        nlines = blocks * per_block + offset
        v = make_rng(nlines).normal(size=(nlines, 20)) * 5.0
        minus, plus = weno5(v)
        ref_minus, ref_plus = _expression_form(v)
        assert np.array_equal(minus, ref_minus)
        assert np.array_equal(plus, ref_plus)

    def test_single_line_longer_than_a_block(self):
        # More faces than one block holds: one line per chunk.
        m = weno_mod._CACHE_BLOCK_FACES + 40
        v = make_rng(5).normal(size=(2, m))
        minus, plus = weno5(v)
        ref_minus, ref_plus = _expression_form(v)
        assert np.array_equal(minus, ref_minus)
        assert np.array_equal(plus, ref_plus)

    @pytest.mark.parametrize("block_faces", [1, 7, 64, 1000])
    def test_small_blocks_bit_identical(self, monkeypatch, block_faces):
        monkeypatch.setattr(weno_mod, "_CACHE_BLOCK_FACES", block_faces)
        v = make_rng(block_faces).normal(size=(7, 9, 17)) * 3.0
        minus, plus = weno5(v)
        ref_minus, ref_plus = _expression_form(v)
        assert np.array_equal(minus, ref_minus)
        assert np.array_equal(plus, ref_plus)


class TestAccuracy:
    def test_smooth_fifth_order(self):
        """Face reconstruction error of sin(x) shrinks ~2^5 per refinement."""
        errs = []
        for n in (16, 32, 64):
            x = np.linspace(0.0, 1.0, n, endpoint=False)
            h = x[1] - x[0]
            # cell averages of sin(2 pi x) over [x, x+h]
            a = (np.cos(2 * np.pi * x) - np.cos(2 * np.pi * (x + h))) / (2 * np.pi * h)
            minus, _ = weno5(a)
            faces = x[2:-3] + h  # face right of cell j+2
            exact = np.sin(2 * np.pi * faces)
            errs.append(np.abs(minus - exact).max())
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 > 4.0
        assert order2 > 4.0

    def test_essentially_non_oscillatory(self):
        """Across a step, reconstructed values stay within data bounds."""
        v = np.where(np.arange(30) < 15, 1.0, 10.0)
        minus, plus = weno5(v.astype(float))
        eps = 1e-6
        assert minus.min() >= 1.0 - eps and minus.max() <= 10.0 + eps
        assert plus.min() >= 1.0 - eps and plus.max() <= 10.0 + eps


class TestBoundsProperty:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction_bounded_by_data_range(self, seed):
        """WENO5 face values stay within a modest inflation of the local
        stencil range (convex combination of three parabolas)."""
        v = make_rng(seed).uniform(-5, 5, size=20)
        minus, plus = weno5(v)
        # Candidate polynomials can overshoot the cell range by at most
        # the extrapolation factor of the parabola coefficients (~2.4x).
        span = v.max() - v.min()
        lo, hi = v.min() - 2.5 * span, v.max() + 2.5 * span
        assert (minus >= lo).all() and (minus <= hi).all()
        assert (plus >= lo).all() and (plus <= hi).all()
