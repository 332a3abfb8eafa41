"""Property-based kernel tests: seeded-random sweeps over the numerics.

Three kernel-level properties backing the V&V suite
(``docs/validation.md``):

* WENO5 is exact on cell averages of polynomials up to degree 2 (its
  candidate stencils are parabolas, so the nonlinear weights cannot
  break the reproduction of any quadratic);
* on monotone data the reconstruction stays within the local stencil
  data range (no spurious overshoots at the faces);
* the HLLE flux is consistent: ``flux(q, q)`` equals the analytic Euler
  flux for both materials of the paper's two-phase setup.
"""

import numpy as np
import pytest

from repro.physics.eos import LIQUID, VAPOR, conserved_to_primitive
from repro.physics.riemann import hlle_flux
from repro.physics.state import RHOU
from repro.physics.weno import _weno5_minus_raw, weno5

from .conftest import (
    exact_flux,
    make_primitive_soa,
    make_rng,
    make_smooth_aos,
)

#: Seeds of the random sweeps (deterministic, via conftest.make_rng).
SWEEP_SEEDS = list(range(25))


def quadratic_cell_averages(a, b, c, n):
    """Cell averages of ``a + b x + c x^2`` over unit cells at 0..n-1.

    The average of ``x^2`` over a unit cell centered at ``i`` is
    ``i^2 + 1/12``.
    """
    i = np.arange(n, dtype=np.float64)
    return a + b * i + c * (i**2 + 1.0 / 12.0)


class TestWeno5PolynomialExactness:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_quadratics_reconstruct_exactly(self, seed):
        """Face values of random degree-<=2 polynomials are exact."""
        rng = make_rng(seed)
        a, b, c = rng.uniform(-5.0, 5.0, size=3)
        n = 20
        avg = quadratic_cell_averages(a, b, c, n)
        minus, plus = weno5(avg)
        # minus[j] / plus[j] are collocated at the face between cells
        # j+2 and j+3, i.e. at x = j + 2.5.
        xf = np.arange(minus.size) + 2.5
        exact = a + b * xf + c * xf**2
        scale = max(1.0, float(np.abs(exact).max()))
        np.testing.assert_allclose(minus, exact, atol=1e-10 * scale)
        np.testing.assert_allclose(plus, exact, atol=1e-10 * scale)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS[:8])
    def test_expression_form_equally_exact(self, seed):
        """The readable reference kernel is exact on quadratics too."""
        rng = make_rng(seed)
        a, b, c = rng.uniform(-5.0, 5.0, size=3)
        avg = quadratic_cell_averages(a, b, c, 20)
        nf = avg.size - 5
        s = [avg[k : k + nf] for k in range(6)]
        minus = _weno5_minus_raw(s[0], s[1], s[2], s[3], s[4])
        plus = _weno5_minus_raw(s[5], s[4], s[3], s[2], s[1])
        xf = np.arange(nf) + 2.5
        exact = a + b * xf + c * xf**2
        scale = max(1.0, float(np.abs(exact).max()))
        np.testing.assert_allclose(minus, exact, atol=1e-10 * scale)
        np.testing.assert_allclose(plus, exact, atol=1e-10 * scale)

    def test_constant_state_is_reproduced_to_roundoff(self):
        minus, plus = weno5(np.full(16, 7.25))
        np.testing.assert_allclose(minus, 7.25, rtol=1e-14)
        np.testing.assert_allclose(plus, 7.25, rtol=1e-14)


class TestWeno5MonotoneBoundedness:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    @pytest.mark.parametrize("direction", [1.0, -1.0],
                             ids=["increasing", "decreasing"])
    def test_reconstruction_within_stencil_range(self, seed, direction):
        """On monotone data every face value stays inside the data range
        of its 6-cell stencil window (ENO property: no overshoot)."""
        rng = make_rng(seed)
        v = direction * np.cumsum(rng.uniform(0.0, 1.0, size=24))
        v += rng.uniform(-5.0, 5.0)
        minus, plus = weno5(v)
        for j in range(minus.size):
            window = v[j:j + 6]
            lo, hi = float(window.min()), float(window.max())
            slack = 1e-12 * max(1.0, float(np.abs(window).max()))
            assert lo - slack <= minus[j] <= hi + slack
            assert lo - slack <= plus[j] <= hi + slack


class TestHlleConsistency:
    #: Physically representative sampling ranges per material.
    RANGES = {
        "liquid": dict(mat=LIQUID, rho=(500.0, 1500.0), p=(1.0, 500.0)),
        "vapor": dict(mat=VAPOR, rho=(0.05, 5.0), p=(0.05, 5.0)),
    }

    @pytest.mark.parametrize("material", sorted(RANGES))
    @pytest.mark.parametrize("seed", SWEEP_SEEDS[:10])
    def test_flux_of_equal_states_is_analytic(self, material, seed):
        """flux(q, q) == analytic flux, vectorized, every normal."""
        spec = self.RANGES[material]
        rng = make_rng(seed)
        n = 16
        W = make_primitive_soa(
            rng.uniform(*spec["rho"], size=n),
            rng.uniform(-20.0, 20.0, size=n),
            rng.uniform(-20.0, 20.0, size=n),
            rng.uniform(-20.0, 20.0, size=n),
            rng.uniform(*spec["p"], size=n),
            mat=spec["mat"], shape=(n,),
        )
        for normal in range(3):
            flux, ustar = hlle_flux(W.copy(), W.copy(), normal)
            np.testing.assert_allclose(
                flux, exact_flux(W, normal), rtol=1e-10, atol=1e-10
            )
            np.testing.assert_allclose(ustar, W[RHOU + normal], rtol=1e-12)

    def test_consistency_on_smooth_physical_states(self, rng):
        """Same consistency property on a smooth admissible AoS state
        (the shared conftest fixture used by the kernel tests)."""
        aos = make_smooth_aos((6, 6, 6), rng)
        W = conserved_to_primitive(np.moveaxis(aos, -1, 0))
        pencil = np.ascontiguousarray(W[:, 3, 3, :])
        flux, ustar = hlle_flux(pencil.copy(), pencil.copy(), 2)
        np.testing.assert_allclose(
            flux, exact_flux(pencil, 2), rtol=1e-10, atol=1e-8
        )
        np.testing.assert_allclose(ustar, pencil[RHOU + 2], rtol=1e-12)
