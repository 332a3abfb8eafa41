"""Fifth-order WENO reconstruction (Jiang & Shu 1996).

The RHS kernel reconstructs primitive quantities at cell faces with a
fifth-order Weighted Essentially Non-Oscillatory scheme -- a non-linear,
data-dependent spatial stencil (paper Section 3).  There is one production
kernel and one reference:

* :func:`weno5` -- the production kernel: the Jiang-Shu evaluation tree
  issued as ``out=``-threaded ufunc calls into nine scratch buffers and
  swept in cache-sized chunks, the NumPy analogue of the paper's
  "micro-fused" WENO kernel (Table 9);
* :func:`_weno5_minus_raw` -- the readable expression form of the same
  arithmetic.  Tests assert the two are bitwise equal; the Table 9
  benchmark measures the gain of the former over the latter.

Conventions
-----------
All functions reconstruct along the **last axis**.  For an input of length
``M`` along that axis they return reconstructions at the ``M - 5`` faces
that have a full five-point stencil on the corresponding side:

* ``minus`` (left-biased) face value at ``x_{i+1/2}`` uses cells
  ``i-2 .. i+2``;
* ``plus`` (right-biased) face value at ``x_{i+1/2}`` uses cells
  ``i-1 .. i+3``.

With three ghost cells on each side of an ``n``-cell line (padded length
``n + 6``) this yields exactly the ``n + 1`` faces the flux summation needs,
with ``minus[j]`` and ``plus[j]`` collocated at the same face.
"""

from __future__ import annotations

import numpy as np

#: Smoothness-indicator regularization of Jiang & Shu.
WENO_EPS = 1.0e-6

# Optimal (linear) weights of the three candidate stencils.
_D0, _D1, _D2 = 0.1, 0.6, 0.3

# Smoothness-indicator coefficients.
_C13 = 13.0 / 12.0

# Faces per cache block of weno5: with float64 data the nine scratch
# buffers then total ~2.4 MB, about one core's L2.  A 16^3 block sweep
# (7 x 16 x 16 x 17 faces) fits in a single chunk.
_CACHE_BLOCK_FACES = 1 << 15


def _weno5_minus_raw(a, b, c, d, e, out=None):
    """Left-biased reconstruction at the right face of the ``c`` cell.

    ``a..e`` are the five cell averages ``v_{i-2} .. v_{i+2}``; returns the
    WENO5 approximation of ``v_{i+1/2}^-``.
    """
    is0 = _C13 * (a - 2.0 * b + c) ** 2 + 0.25 * (a - 4.0 * b + 3.0 * c) ** 2
    is1 = _C13 * (b - 2.0 * c + d) ** 2 + 0.25 * (b - d) ** 2
    is2 = _C13 * (c - 2.0 * d + e) ** 2 + 0.25 * (3.0 * c - 4.0 * d + e) ** 2

    alpha0 = _D0 / (WENO_EPS + is0) ** 2
    alpha1 = _D1 / (WENO_EPS + is1) ** 2
    alpha2 = _D2 / (WENO_EPS + is2) ** 2
    inv_sum = 1.0 / (alpha0 + alpha1 + alpha2)

    p0 = (2.0 * a - 7.0 * b + 11.0 * c) * (1.0 / 6.0)
    p1 = (-b + 5.0 * c + 2.0 * d) * (1.0 / 6.0)
    p2 = (2.0 * c + 5.0 * d - e) * (1.0 / 6.0)

    res = (alpha0 * p0 + alpha1 * p1 + alpha2 * p2) * inv_sum
    if out is not None:
        out[...] = res
        return out
    return res


def _weno5_minus_ws(a, b, c, d, e, ws, out):
    """Left-biased reconstruction into ``out`` using nine scratch buffers.

    Issues the *exact* evaluation tree of :func:`_weno5_minus_raw` as
    ``out=``-threaded ufunc calls, so the result is bit-identical to the
    expression form while every temporary lives in ``ws``.
    """
    t0, t1, t2, is0, is1, is2, acc, num, _ = ws

    # is0 = 13/12 (a - 2b + c)^2 + 1/4 (a - 4b + 3c)^2
    np.multiply(2.0, b, out=t0)
    np.subtract(a, t0, out=t0)
    np.add(t0, c, out=t0)
    np.power(t0, 2, out=t0)
    np.multiply(_C13, t0, out=t0)
    np.multiply(4.0, b, out=t1)
    np.subtract(a, t1, out=t1)
    np.multiply(3.0, c, out=t2)
    np.add(t1, t2, out=t1)
    np.power(t1, 2, out=t1)
    np.multiply(0.25, t1, out=t1)
    np.add(t0, t1, out=is0)

    # is1 = 13/12 (b - 2c + d)^2 + 1/4 (b - d)^2
    np.multiply(2.0, c, out=t0)
    np.subtract(b, t0, out=t0)
    np.add(t0, d, out=t0)
    np.power(t0, 2, out=t0)
    np.multiply(_C13, t0, out=t0)
    np.subtract(b, d, out=t1)
    np.power(t1, 2, out=t1)
    np.multiply(0.25, t1, out=t1)
    np.add(t0, t1, out=is1)

    # is2 = 13/12 (c - 2d + e)^2 + 1/4 (3c - 4d + e)^2
    np.multiply(2.0, d, out=t0)
    np.subtract(c, t0, out=t0)
    np.add(t0, e, out=t0)
    np.power(t0, 2, out=t0)
    np.multiply(_C13, t0, out=t0)
    np.multiply(3.0, c, out=t1)
    np.multiply(4.0, d, out=t2)
    np.subtract(t1, t2, out=t1)
    np.add(t1, e, out=t1)
    np.power(t1, 2, out=t1)
    np.multiply(0.25, t1, out=t1)
    np.add(t0, t1, out=is2)

    # alpha_k = d_k / (eps + is_k)^2, stored back into is0..is2
    np.add(WENO_EPS, is0, out=is0)
    np.power(is0, 2, out=is0)
    np.divide(_D0, is0, out=is0)
    np.add(WENO_EPS, is1, out=is1)
    np.power(is1, 2, out=is1)
    np.divide(_D1, is1, out=is1)
    np.add(WENO_EPS, is2, out=is2)
    np.power(is2, 2, out=is2)
    np.divide(_D2, is2, out=is2)

    # inv_sum = 1 / (alpha0 + alpha1 + alpha2), in t0
    np.add(is0, is1, out=t0)
    np.add(t0, is2, out=t0)
    np.divide(1.0, t0, out=t0)

    # candidate polynomials p0, p1, p2 in t1, t2, acc
    np.multiply(2.0, a, out=t1)
    np.multiply(7.0, b, out=t2)
    np.subtract(t1, t2, out=t1)
    np.multiply(11.0, c, out=t2)
    np.add(t1, t2, out=t1)
    np.multiply(t1, 1.0 / 6.0, out=t1)

    np.negative(b, out=t2)
    np.multiply(5.0, c, out=num)
    np.add(t2, num, out=t2)
    np.multiply(2.0, d, out=num)
    np.add(t2, num, out=t2)
    np.multiply(t2, 1.0 / 6.0, out=t2)

    np.multiply(2.0, c, out=acc)
    np.multiply(5.0, d, out=num)
    np.add(acc, num, out=acc)
    np.subtract(acc, e, out=acc)
    np.multiply(acc, 1.0 / 6.0, out=acc)

    # res = (alpha0 p0 + alpha1 p1 + alpha2 p2) * inv_sum
    np.multiply(is0, t1, out=t1)
    np.multiply(is1, t2, out=t2)
    np.add(t1, t2, out=t1)
    np.multiply(is2, acc, out=acc)
    np.add(t1, acc, out=t1)
    np.multiply(t1, t0, out=out)
    return out


def weno5(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct both face states along the last axis.

    Parameters
    ----------
    v:
        Array whose last axis holds ``M >= 6`` cell averages (including
        ghosts).

    Returns
    -------
    (minus, plus):
        Arrays of shape ``v.shape[:-1] + (M - 5,)``.  ``minus[..., j]`` and
        ``plus[..., j]`` are the left/right-biased states at the face
        between cells ``j + 2`` and ``j + 3`` of the padded line.
    """
    if v.shape[-1] < 6:
        raise ValueError(f"need at least 6 cells along last axis, got {v.shape[-1]}")
    nfaces = v.shape[-1] - 5
    lines = v.reshape(-1, v.shape[-1])
    minus = np.empty((lines.shape[0], nfaces), dtype=v.dtype)
    plus = np.empty_like(minus)
    _weno5_blocked(lines, minus, plus)
    out_shape = v.shape[:-1] + (nfaces,)
    return minus.reshape(out_shape), plus.reshape(out_shape)


def _weno5_blocked(lines, minus, plus):
    """Reconstruct ``lines`` into ``minus``/``plus`` block by block.

    Cache blocking: the lines are swept in chunks of at most
    ``_CACHE_BLOCK_FACES`` faces, so the nine scratch buffers that hold
    every in-flight temporary stay cache-resident.  The arithmetic is
    elementwise, so chunking leaves the result bitwise unchanged.
    """
    nlines, nfaces = minus.shape
    step = max(1, _CACHE_BLOCK_FACES // nfaces)
    for start in range(0, nlines, step):
        chunk = lines[start : start + step]
        a = chunk[:, 0:nfaces]
        b = chunk[:, 1 : 1 + nfaces]
        c = chunk[:, 2 : 2 + nfaces]
        d = chunk[:, 3 : 3 + nfaces]
        e = chunk[:, 4 : 4 + nfaces]
        f = chunk[:, 5 : 5 + nfaces]
        ws = np.empty((9,) + a.shape, dtype=lines.dtype)
        _weno5_minus_ws(a, b, c, d, e, ws, minus[start : start + step])
        # The right-biased stencil is the mirror image of the left-biased
        # one.
        _weno5_minus_ws(f, e, d, c, b, ws, plus[start : start + step])


def weno3(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Third-order WENO reconstruction (ablation baseline).

    Same calling convention as :func:`weno5` -- input of length ``M``
    along the last axis, returning ``(minus, plus)`` of shape
    ``v.shape[:-1] + (M - 5,)`` collocated face pairs -- so the RHS
    pipeline can swap reconstruction orders without re-plumbing ghosts.
    Used by the spatial-order ablation bench: the paper picks 5th order
    to cut the step count, at a stencil-size (ghost traffic) cost.
    """
    if v.shape[-1] < 6:
        raise ValueError(f"need at least 6 cells along last axis, got {v.shape[-1]}")
    nfaces = v.shape[-1] - 5
    # Minus state at the face between padded cells j+2 and j+3 uses cells
    # j+1 .. j+3; plus uses j+2 .. j+4 mirrored.
    a = v[..., 1 : 1 + nfaces]
    b = v[..., 2 : 2 + nfaces]
    c = v[..., 3 : 3 + nfaces]
    d = v[..., 4 : 4 + nfaces]
    minus = _weno3_biased(a, b, c)
    plus = _weno3_biased(d, c, b)
    return minus, plus


# Expression-form on purpose: the ablation baseline is read against the
# Jiang-Shu formulas, and WENO3 is never the production reconstruction.
def _weno3_biased(a, b, c):  # lint: disable=CP003
    """WENO3 reconstruction of the right face of cell ``b`` from
    ``(a, b, c) = (v_{i-1}, v_i, v_{i+1})``."""
    is0 = (b - a) ** 2
    is1 = (c - b) ** 2
    alpha0 = (1.0 / 3.0) / (WENO_EPS + is0) ** 2
    alpha1 = (2.0 / 3.0) / (WENO_EPS + is1) ** 2
    w0 = alpha0 / (alpha0 + alpha1)
    p0 = 1.5 * b - 0.5 * a
    p1 = 0.5 * (b + c)
    return w0 * p0 + (1.0 - w0) * p1


def weno5_faces_scalar(stencil: np.ndarray) -> float:
    """Reference scalar WENO5 minus-reconstruction of a single 5-stencil.

    Used by property tests to cross-check the vectorized kernels.
    Returns the reconstructed face value as a python float.
    """
    a, b, c, d, e = (float(x) for x in stencil)
    return float(_weno5_minus_raw(a, b, c, d, e))
