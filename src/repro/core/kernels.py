"""Core-layer compute kernels: RHS, UP and SOS (DT).

These are the paper's performance-critical kernels (Fig. 1):

* **RHS** -- evaluation of the right-hand side of the governing equations
  for every cell average of a block (:func:`rhs_kernel`, whole-block
  vectorized directional sweeps).  The paper's streaming z-sweep over a
  ring buffer of six 2D slices is modeled analytically in
  :mod:`repro.perf.traffic`; here the cache-blocked
  :func:`repro.physics.weno.weno5` keeps the WENO working set
  cache-resident instead.
* **UP** -- the low-storage TVD Runge-Kutta update (:func:`update_stage`).
  Deliberately trivial arithmetic on large arrays: the paper reports it at
  0.2 FLOP/B and ~2 % of peak, i.e. purely memory-bound.
* **SOS** -- "speed of sound" reduction feeding the DT kernel: the maximum
  characteristic velocity of a block (:func:`sos_kernel`); the cluster
  layer allreduces it.

All kernels take AoS block data (the storage layout) and convert to
double-precision SoA internally (the paper's AoS/SoA conversion and mixed
precision).
"""

from __future__ import annotations

import numpy as np

from ..physics.eos import conserved_to_primitive, max_characteristic_velocity
from ..physics.equations import compute_rhs
from ..physics.state import COMPUTE_DTYPE


def rhs_kernel(pad_aos: np.ndarray, h: float, order: int = 5,
               solver: str = "hlle") -> np.ndarray:
    """Whole-block vectorized RHS.

    Parameters
    ----------
    pad_aos:
        Ghost-padded AoS block data, shape ``(n+6, n+6, n+6, NQ)``.
    h:
        Grid spacing.
    order, solver:
        WENO order and Riemann solver, as in
        :func:`repro.physics.equations.compute_rhs`.

    Returns
    -------
    AoS time derivative of the conserved state, shape ``(n, n, n, NQ)``,
    in compute precision.
    """
    Upad = np.ascontiguousarray(
        np.moveaxis(pad_aos, -1, 0), dtype=COMPUTE_DTYPE
    )
    rhs_soa = compute_rhs(Upad, h, order=order, solver=solver)
    return np.ascontiguousarray(np.moveaxis(rhs_soa, 0, -1))


def sos_kernel(block_aos: np.ndarray) -> float:
    """SOS kernel: maximum characteristic velocity ``max(|u_i| + c)``.

    Input is un-padded AoS block data ``(n, n, n, NQ)``.  Returns the
    block maximum as a python float; the cluster layer reduces it
    globally and the DT kernel converts it into the CFL-limited step.
    """
    U = np.ascontiguousarray(np.moveaxis(block_aos, -1, 0), dtype=COMPUTE_DTYPE)
    W = conserved_to_primitive(U)
    return max_characteristic_velocity(W)


def dt_from_sos(sos_max: float, h: float, cfl: float) -> float:
    """DT kernel: CFL-limited time step from the global SOS reduction.

    Returns ``cfl * h / sos_max`` as a python float.
    """
    if sos_max <= 0:
        raise ValueError("maximum characteristic velocity must be positive")
    return cfl * h / sos_max


def update_stage(
    u_aos: np.ndarray,
    residual_aos: np.ndarray,
    rhs_aos: np.ndarray,
    a: float,
    b: float,
    dt: float,
    sanitizer=None,
    block: tuple[int, int, int] | None = None,
) -> None:
    """UP kernel: one low-storage Runge-Kutta stage, in place.

    Implements Williamson's 2N-storage update

        S <- a * S + dt * RHS(U)
        U <- U + b * S

    on AoS block data.  ``u_aos`` and ``residual_aos`` are storage
    precision and updated in place; the arithmetic runs in compute
    precision (mixed-precision scheme).

    ``sanitizer`` is an optional
    :class:`repro.analysis.sanitizer.NumericsSanitizer`; when given, the
    post-stage block state is checked for NaN/Inf, negative density /
    Gamma / pressure and the storage-dtype contract (``block`` labels
    the findings with the block index).  ``None`` -- the production
    default -- adds no checking work to this memory-bound kernel.
    """
    res64 = residual_aos.astype(COMPUTE_DTYPE)
    res64 *= a
    res64 += dt * rhs_aos
    u64 = u_aos.astype(COMPUTE_DTYPE)
    u64 += b * res64
    residual_aos[...] = res64
    u_aos[...] = u64
    if sanitizer is not None:
        sanitizer.check_block_write(u_aos, block=block)
        sanitizer.check_state(u_aos, block=block)
