"""Tests for the core compute kernels (repro.core.kernels)."""

import numpy as np
import pytest

from repro.core.kernels import (
    dt_from_sos,
    rhs_kernel,
    sos_kernel,
    update_stage,
)
from repro.physics.equations import compute_rhs
from repro.physics.eos import LIQUID, sound_speed
from repro.physics.state import NQ, aos_to_soa

from .conftest import make_interface_aos, make_smooth_aos, make_uniform_aos


class TestRhsKernel:
    def test_output_shape(self, rng):
        pad = make_smooth_aos((12, 12, 12), rng)
        r = rhs_kernel(pad, 0.1)
        assert r.shape == (6, 6, 6, NQ)
        assert r.dtype == np.float64

    def test_float32_storage_computed_in_double(self, rng):
        pad = make_smooth_aos((12, 12, 12), rng)
        r32 = rhs_kernel(pad.astype(np.float32), 0.1)
        assert r32.dtype == np.float64
        assert r32.flags.c_contiguous
        # Same stored values in double precision give the same RHS.
        r64 = rhs_kernel(pad.astype(np.float32).astype(np.float64), 0.1)
        assert np.array_equal(r32, r64)

    @pytest.mark.parametrize("solver", ["hlle", "hllc"])
    @pytest.mark.parametrize("order", [3, 5])
    def test_matches_compute_rhs_on_soa(self, order, solver):
        # rhs_kernel is compute_rhs behind the AoS <-> SoA conversion.
        pad = make_interface_aos((14, 14, 14), axis=2)
        r = rhs_kernel(pad, 0.05, order=order, solver=solver)
        ref = compute_rhs(aos_to_soa(pad, dtype=np.float64), 0.05,
                          order=order, solver=solver)
        assert np.array_equal(r, np.moveaxis(ref, 0, -1))

    @pytest.mark.parametrize("solver", ["hlle", "hllc"])
    @pytest.mark.parametrize("order", [3, 5])
    def test_uniform_flow_zero_rhs(self, order, solver):
        pad = make_uniform_aos((14, 14, 14), u=(1.0, -2.0, 3.0))
        r = rhs_kernel(pad, 0.01, order=order, solver=solver)
        assert np.abs(r).max() == 0.0


class TestSosKernel:
    def test_uniform_at_rest(self):
        aos = make_uniform_aos((8, 8, 8)).astype(np.float32)
        c = float(sound_speed(1000.0, 100.0, LIQUID.G, LIQUID.P))
        assert sos_kernel(aos) == pytest.approx(c, rel=1e-5)

    def test_moving_flow(self):
        aos = make_uniform_aos((8, 8, 8), u=(0.0, 0.0, 10.0)).astype(np.float32)
        c = float(sound_speed(1000.0, 100.0, LIQUID.G, LIQUID.P))
        assert sos_kernel(aos) == pytest.approx(c + 10.0, rel=1e-5)

    def test_local_hotspot_found(self, rng):
        aos = make_uniform_aos((8, 8, 8)).astype(np.float32)
        hot = make_uniform_aos((1, 1, 1), u=(0.0, 0.0, 50.0)).astype(np.float32)
        aos[4, 4, 4] = hot[0, 0, 0]
        c = float(sound_speed(1000.0, 100.0, LIQUID.G, LIQUID.P))
        assert sos_kernel(aos) == pytest.approx(c + 50.0, rel=1e-5)


class TestDtKernel:
    def test_formula(self):
        assert dt_from_sos(10.0, h=0.1, cfl=0.3) == pytest.approx(0.003)

    def test_invalid_sos(self):
        with pytest.raises(ValueError):
            dt_from_sos(0.0, 0.1, 0.3)


class TestUpdateStage:
    def test_first_stage_forward_euler_like(self, rng):
        """With a=0, b=1 the stage is exactly U += dt * RHS."""
        u = rng.normal(size=(4, 4, 4, NQ)).astype(np.float32)
        u0 = u.copy()
        res = np.zeros_like(u)
        rhs = rng.normal(size=u.shape)
        update_stage(u, res, rhs, a=0.0, b=1.0, dt=0.5)
        np.testing.assert_allclose(
            u, (u0.astype(np.float64) + 0.5 * rhs).astype(np.float32), rtol=1e-6
        )
        np.testing.assert_allclose(res, (0.5 * rhs).astype(np.float32), rtol=1e-6)

    def test_register_accumulation(self, rng):
        """S <- a S + dt RHS must accumulate across stages."""
        u = np.zeros((2, 2, 2, NQ), dtype=np.float32)
        res = np.ones_like(u)
        rhs = np.ones((2, 2, 2, NQ))
        update_stage(u, res, rhs, a=-0.5, b=2.0, dt=1.0)
        # S = -0.5 * 1 + 1 = 0.5; U = 0 + 2 * 0.5 = 1.
        np.testing.assert_allclose(res, 0.5)
        np.testing.assert_allclose(u, 1.0)

    def test_inplace(self, rng):
        u = rng.normal(size=(2, 2, 2, NQ)).astype(np.float32)
        res = np.zeros_like(u)
        rhs = rng.normal(size=u.shape)
        u_id, res_id = id(u), id(res)
        update_stage(u, res, rhs, 0.0, 1.0, 0.1)
        assert id(u) == u_id and id(res) == res_id
