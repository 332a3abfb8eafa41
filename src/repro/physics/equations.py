"""Right-hand-side assembly for the two-phase Euler system.

Combines the stages of the paper's RHS pipeline (Fig. 1, right) on SoA
data:

    CONV -> WENO -> HLLE -> SUM

``compute_rhs`` performs the three directional sweeps over a ghost-padded
primitive field and returns the time derivative of the conserved state.
The core layer wraps this with block storage and AoS/SoA conversion; this
module is pure array mathematics and is what integration and property
tests validate directly.
"""

from __future__ import annotations

import numpy as np

from .eos import conserved_to_primitive
from .riemann import hllc_flux, hlle_flux
from .state import GAMMA, NQ, PI
from .weno import weno3, weno5

#: Ghost cells required per side by the WENO5 stencil.
STENCIL_WIDTH = 3


#: Available numerical-flux functions keyed by name.
RIEMANN_SOLVERS = {"hlle": hlle_flux, "hllc": hllc_flux}


def directional_rhs(
    Wpad: np.ndarray,
    axis: int,
    h: float,
    order: int = 5,
    solver: str = "hlle",
):
    """Flux divergence contribution of one directional sweep.

    Parameters
    ----------
    Wpad:
        Primitive SoA field ``(NQ, nz+6, ny+6, nx+6)`` (ghost-padded in all
        directions).
    axis:
        Sweep direction: 0 = z (array axis 1), 1 = y (axis 2), 2 = x
        (axis 3).  The *normal velocity* passed to HLLE is ``w``, ``v``,
        ``u`` respectively.
    h:
        Grid spacing.
    order, solver:
        As in :func:`compute_rhs`.

    Returns
    -------
    (div, phi_corr):
        ``div`` -- shape ``(NQ, nz, ny, nx)`` flux divergence (to be
        subtracted from the state's time derivative); ``phi_corr`` -- the
        non-conservative correction ``phi * div(u)`` for the ``Gamma`` and
        ``Pi`` rows (zero elsewhere), to be *added*.
    """
    g = STENCIL_WIDTH
    inner = slice(g, -g)
    if axis == 0:  # z sweep
        Wd = Wpad[:, :, inner, inner]
        sweep_axis = 1
        normal = 2
    elif axis == 1:  # y sweep
        Wd = Wpad[:, inner, :, inner]
        sweep_axis = 2
        normal = 1
    elif axis == 2:  # x sweep
        Wd = Wpad[:, inner, inner, :]
        sweep_axis = 3
        normal = 0
    else:
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")

    # Put the sweep direction last so WENO/HLLE vectorize over contiguous
    # lines (the "directional sweeps" of the paper's computation
    # reordering).
    Wd = np.ascontiguousarray(np.swapaxes(Wd, sweep_axis, 3))
    if order == 5:
        W_minus, W_plus = weno5(Wd)
    elif order == 3:
        W_minus, W_plus = weno3(Wd)
    else:
        raise ValueError(f"unsupported WENO order {order}")
    # Explicit branch (not the RIEMANN_SOLVERS table): dict-of-functions
    # dispatch does not lower to compiled backends (perfcheck CP004).
    if solver == "hlle":
        flux_fn = hlle_flux
    elif solver == "hllc":
        flux_fn = hllc_flux
    else:
        raise ValueError(
            f"unknown Riemann solver {solver!r}; choose from "
            f"{sorted(RIEMANN_SOLVERS)}"
        )
    flux, ustar = flux_fn(W_minus, W_plus, normal)

    inv_h = 1.0 / h
    div = np.subtract(flux[..., 1:], flux[..., :-1])
    div *= inv_h
    du = np.subtract(ustar[..., 1:], ustar[..., :-1])
    du *= inv_h

    phi_corr = np.zeros_like(div)
    Wc = Wd[..., g:-g]
    np.multiply(Wc[GAMMA], du, out=phi_corr[GAMMA])
    np.multiply(Wc[PI], du, out=phi_corr[PI])

    if sweep_axis != 3:
        div = np.swapaxes(div, sweep_axis, 3)
        phi_corr = np.swapaxes(phi_corr, sweep_axis, 3)
    return div, phi_corr


def compute_rhs(
    Upad: np.ndarray,
    h: float,
    order: int = 5,
    solver: str = "hlle",
) -> np.ndarray:
    """Full RHS of the semi-discrete system from padded conserved data.

    Parameters
    ----------
    Upad:
        Conserved SoA field ``(NQ, n+6, n+6, n+6)`` (or anisotropic interior
        extents), ghost cells filled by the node/cluster layers.
    h:
        Uniform grid spacing.
    order:
        Spatial reconstruction order: 5 (production) or 3 (ablation).
    solver:
        Numerical flux: "hlle" (production) or "hllc" (contact-sharp
        alternative).

    Returns
    -------
    Time derivative ``dU/dt`` of shape ``(NQ, nz, ny, nx)``.
    """
    if Upad.shape[0] != NQ:
        raise ValueError(f"expected leading axis {NQ}, got {Upad.shape}")
    Wpad = conserved_to_primitive(Upad)  # CONV stage
    rhs = None
    for axis in range(3):
        div, phi_corr = directional_rhs(
            Wpad, axis, h, order=order, solver=solver
        )
        contrib = phi_corr - div
        rhs = contrib if rhs is None else rhs + contrib
    return rhs
