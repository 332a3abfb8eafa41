"""Bit-identity and dtype-contract tests of the workspace-threaded hot path.

The production WENO5/HLLE kernels thread ``out=``/scratch buffers through
the hot expression chains (rule CP003).  These tests pin two contracts:

* **bit identity** -- the ``out=``-threaded evaluation issues the exact
  ufunc tree of the readable expression form, so results must be
  *bitwise* equal (``np.array_equal``), not merely close -- per kernel
  and for the whole block RHS with both kernels swapped for their
  expression-form references;
* **dtype preservation** -- float32 face states stay float32 end to end
  (rules CP001/CP002: no silent promotion, no strong scalars).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.physics.equations as equations
from repro.core.kernels import rhs_kernel
from repro.physics.eos import (
    LIQUID,
    conserved_to_primitive,
    pressure,
    primitive_to_conserved,
    sound_speed,
    total_energy,
)
from repro.physics.riemann import einfeldt_wave_speeds, hlle_flux
from repro.physics.state import ENERGY, GAMMA, NQ, PI, RHO, RHOU, RHOV, RHOW
from repro.physics.weno import _weno5_minus_raw, weno5

from .conftest import make_interface_aos, make_rng, make_smooth_aos


def _face_states(rng, shape=(4, 9), dtype=np.float64):
    """A pair of physically admissible primitive face-state batches."""
    W_l = np.empty((NQ,) + shape, dtype=dtype)
    W_r = np.empty((NQ,) + shape, dtype=dtype)
    for W in (W_l, W_r):
        W[RHO] = rng.uniform(500.0, 1500.0, shape)
        W[RHOU] = rng.uniform(-5.0, 5.0, shape)
        W[RHOV] = rng.uniform(-5.0, 5.0, shape)
        W[RHOW] = rng.uniform(-5.0, 5.0, shape)
        W[ENERGY] = rng.uniform(10.0, 200.0, shape)
        W[GAMMA] = LIQUID.G
        W[PI] = LIQUID.P
    return W_l, W_r


def _ref_hlle_combine(s_l, s_r, F_l, F_r, U_l, U_r):
    """Expression-form HLLE combination, the pre-refactor reference.

    Mirrors ``_hlle_combine`` / ``_hlle_wave_bounds`` operation for
    operation so the workspace path must match it bit for bit.
    """
    s_l_m = np.minimum(s_l, 0.0)
    s_r_p = np.maximum(s_r, 0.0)
    span = s_r_p - s_l_m
    safe = np.where(span > 0.0, span, 1.0)
    prod = s_l_m * s_r_p
    hll = (s_r_p * F_l - s_l_m * F_r + prod * (U_r - U_l)) / safe
    avg = 0.5 * (F_l + F_r)
    return np.where(span > 0.0, hll, avg)


def _ref_hlle_flux(W_l, W_r, normal):
    """Expression-form HLLE flux, component by component."""
    mom_n = RHOU + normal
    rho_l, p_l, G_l, P_l = W_l[RHO], W_l[ENERGY], W_l[GAMMA], W_l[PI]
    rho_r, p_r, G_r, P_r = W_r[RHO], W_r[ENERGY], W_r[GAMMA], W_r[PI]
    un_l, un_r = W_l[mom_n], W_r[mom_n]
    s_l, s_r = einfeldt_wave_speeds(
        rho_l, un_l, p_l, G_l, P_l, rho_r, un_r, p_r, G_r, P_r
    )
    E_l = total_energy(rho_l, W_l[RHOU], W_l[RHOV], W_l[RHOW], p_l, G_l, P_l)
    E_r = total_energy(rho_r, W_r[RHOU], W_r[RHOV], W_r[RHOW], p_r, G_r, P_r)

    flux = np.empty_like(W_l)
    flux[RHO] = _ref_hlle_combine(
        s_l, s_r, rho_l * un_l, rho_r * un_r, rho_l, rho_r
    )
    for comp in (RHOU, RHOV, RHOW):
        u_l_c, u_r_c = W_l[comp], W_r[comp]
        F_l = rho_l * un_l * u_l_c
        F_r = rho_r * un_r * u_r_c
        if comp == mom_n:
            F_l = F_l + p_l
            F_r = F_r + p_r
        flux[comp] = _ref_hlle_combine(
            s_l, s_r, F_l, F_r, rho_l * u_l_c, rho_r * u_r_c
        )
    flux[ENERGY] = _ref_hlle_combine(
        s_l, s_r, (E_l + p_l) * un_l, (E_r + p_r) * un_r, E_l, E_r
    )
    flux[GAMMA] = _ref_hlle_combine(s_l, s_r, G_l * un_l, G_r * un_r, G_l, G_r)
    flux[PI] = _ref_hlle_combine(s_l, s_r, P_l * un_l, P_r * un_r, P_l, P_r)
    ones = np.ones_like(un_l)
    ustar = _ref_hlle_combine(s_l, s_r, un_l, un_r, ones, ones)
    return flux, ustar


def _ref_weno5(v):
    """Expression-form WENO5: :func:`_weno5_minus_raw` on both faces."""
    nfaces = v.shape[-1] - 5
    a, b, c, d, e, f = (v[..., k : k + nfaces] for k in range(6))
    return _weno5_minus_raw(a, b, c, d, e), _weno5_minus_raw(f, e, d, c, b)


class TestWeno5BitIdentity:
    def test_matches_raw_expression_form(self):
        v = make_rng().normal(size=(NQ, 7, 20)) * 5.0
        nfaces = v.shape[-1] - 5
        a, b, c, d, e, f = (
            v[..., k : k + nfaces] for k in range(6)
        )
        minus, plus = weno5(v)
        assert np.array_equal(minus, _weno5_minus_raw(a, b, c, d, e))
        assert np.array_equal(plus, _weno5_minus_raw(f, e, d, c, b))

    def test_cache_blocks_match_raw_expression_form(self):
        # 7 x 700 lines of 15 faces span three cache blocks, the last
        # one partial: chunking must not change a single bit.
        v = make_rng(13).normal(size=(NQ, 700, 20)) * 5.0
        minus, plus = weno5(v)
        ref_minus, ref_plus = _ref_weno5(v)
        assert np.array_equal(minus, ref_minus)
        assert np.array_equal(plus, ref_plus)


class TestHlleBitIdentity:
    @pytest.mark.parametrize("normal", [0, 1, 2])
    def test_matches_expression_reference(self, normal):
        W_l, W_r = _face_states(make_rng(normal + 1))
        flux, ustar = hlle_flux(W_l, W_r, normal)
        ref_flux, ref_ustar = _ref_hlle_flux(W_l, W_r, normal)
        assert np.array_equal(flux, ref_flux)
        assert np.array_equal(ustar, ref_ustar)

    def test_scalar_face_states(self):
        # 1-d (NQ,) states exercise the 0-d ``flux[RHO, ...]`` out= views.
        W_l, W_r = _face_states(make_rng(9), shape=())
        flux, ustar = hlle_flux(W_l, W_r, 0)
        ref_flux, ref_ustar = _ref_hlle_flux(W_l, W_r, 0)
        assert flux.shape == (NQ,)
        assert np.array_equal(flux, ref_flux)
        assert float(ustar) == float(ref_ustar)

    def test_supersonic_faces_upwind_bit_identically(self):
        # Fully supersonic faces (s_l > 0) reduce HLLE to the upwind
        # flux; the clipped-bounds path must still match the reference.
        W_l, W_r = _face_states(make_rng(5), shape=(3,))
        for W in (W_l, W_r):
            W[RHOU] += 50.0  # far above the liquid sound speed
        flux, ustar = hlle_flux(W_l, W_r, 0)
        ref_flux, ref_ustar = _ref_hlle_flux(W_l, W_r, 0)
        assert np.array_equal(flux, ref_flux)
        assert np.array_equal(ustar, ref_ustar)


class TestRhsKernelBitIdentity:
    """The block RHS equals its readable reference bit for bit.

    With the production WENO5 and HLLE kernels swapped for their
    expression forms, :func:`rhs_kernel` must not change by a single
    ulp.  Any replacement kernel (compiled or hand-fused) has to pass
    this same check.
    """

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_expression_form_kernels(self, monkeypatch, axis):
        pad = make_interface_aos((22, 22, 22), axis=axis).astype(np.float32)
        pad[..., RHOU] += 0.5 * make_rng(axis).normal(size=pad.shape[:-1])
        fast = rhs_kernel(pad, 0.05)
        monkeypatch.setattr(equations, "weno5", _ref_weno5)
        monkeypatch.setattr(equations, "hlle_flux", _ref_hlle_flux)
        ref = rhs_kernel(pad, 0.05)
        assert fast.shape == (16, 16, 16, NQ)
        assert np.array_equal(fast, ref)


    @pytest.mark.parametrize("n", [8, 32])
    def test_block_sizes_match_expression_form(self, monkeypatch, n):
        # 8^3 is the CLI's small-grid block; 32^3 sweeps span several
        # WENO cache blocks.
        pad = make_smooth_aos((n + 6,) * 3, make_rng(n)).astype(np.float32)
        fast = rhs_kernel(pad, 1.0 / n)
        monkeypatch.setattr(equations, "weno5", _ref_weno5)
        monkeypatch.setattr(equations, "hlle_flux", _ref_hlle_flux)
        ref = rhs_kernel(pad, 1.0 / n)
        assert fast.shape == (n, n, n, NQ)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_storage_dtype_matches_expression_form(self, monkeypatch, dtype):
        pad = make_interface_aos((22, 22, 22), axis=1, dtype=dtype)
        fast = rhs_kernel(pad, 0.05)
        monkeypatch.setattr(equations, "weno5", _ref_weno5)
        monkeypatch.setattr(equations, "hlle_flux", _ref_hlle_flux)
        assert np.array_equal(fast, rhs_kernel(pad, 0.05))


class TestDtypeContracts:
    """float32 in -> float32 out (rules CP001/CP002 at runtime)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hlle_flux_preserves_dtype(self, dtype):
        W_l, W_r = _face_states(make_rng(2), dtype=dtype)
        flux, ustar = hlle_flux(W_l, W_r, 1)
        assert flux.dtype == dtype
        assert ustar.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weno5_preserves_dtype(self, dtype):
        v = (make_rng(4).normal(size=(NQ, 3, 11)) * 2.0).astype(dtype)
        minus, plus = weno5(v)
        assert minus.dtype == dtype
        assert plus.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eos_chain_preserves_dtype(self, dtype):
        W, _ = _face_states(make_rng(6), shape=(5, 5), dtype=dtype)
        U = primitive_to_conserved(W)
        assert U.dtype == dtype
        assert conserved_to_primitive(U).dtype == dtype
        p = pressure(U[RHO], U[RHOU], U[RHOV], U[RHOW], U[ENERGY],
                     U[GAMMA], U[PI])
        assert p.dtype == dtype
        E = total_energy(W[RHO], W[RHOU], W[RHOV], W[RHOW], W[ENERGY],
                         W[GAMMA], W[PI])
        assert E.dtype == dtype
        c = sound_speed(W[RHO], W[ENERGY], W[GAMMA], W[PI])
        assert c.dtype == dtype
