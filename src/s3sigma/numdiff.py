"""Derivatives: the complex step and the one stencil engine.

A first derivative of one of the package's own analytic kernels (the
group frames and Theta, the metric, the basic Darboux functions, the
gradient of criterion 10's bump) is taken by `complex_step_gradient`:
exact to rounding, with no step to choose.  The 4th-order stencils
serve only where the complex step does not apply: user-supplied
functions (`classical.poisson_bracket`, `geometry.killing_residual`),
criterion 6's bracket matrix, which matches that scalar reference, the
outer derivative of its Jacobi sums, whose inner brackets are complex
steps already, and the second derivatives of the quantum FD oracles.  Their weights come from the
two tables below, at a default step of 1e-5 times the coordinate scale.
`stencil_gradient`, `stencil_second` and `complex_step_gradient` each
call their function once, on every point of every stencil or step.
`partial` and `jacobian` have no caller in the package; they stay only
because the benchmark tracer (`perfbench/tracer.py`) reads them by name.
"""

from __future__ import annotations

import numpy as np

DEFAULT_REL_STEP = 1e-5

# f'(x) ~ sum w_k f(x + o_k h) / (12 h)
_D1_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_D1_WEIGHTS = (1.0, -8.0, 8.0, -1.0)

# f''(x) ~ sum w_k f(x + o_k h) / (12 h^2)
_D2_OFFSETS = (-2.0, -1.0, 0.0, 1.0, 2.0)
_D2_WEIGHTS = (-1.0, 16.0, -30.0, 16.0, -1.0)

# The second-derivative points are the first-derivative ones plus the centre.
_D2_CENTRE = _D2_WEIGHTS[_D2_OFFSETS.index(0.0)]
_D2_AT_D1 = tuple(_D2_WEIGHTS[_D2_OFFSETS.index(o)] for o in _D1_OFFSETS)

# Im f(x + i h) / h carries no difference, so h can sit far below roundoff.
_COMPLEX_STEP = 1e-20


def partial(f, x: np.ndarray, i: int, h: float):
    """Partial derivative of f along coordinate i at the point x."""
    x = np.asarray(x, dtype=float)
    acc = 0.0
    for o, w in zip(_D1_OFFSETS, _D1_WEIGHTS):
        xs = x.copy()
        xs[i] += o * h
        acc = acc + w * np.asarray(f(xs))
    return acc / (12.0 * h)


def stencil_gradient(F, x: np.ndarray, h) -> np.ndarray:
    """Jacobians J[..., k, i] = d F^k / d x^i at a batch of points x (..., n).

    h is the step of each coordinate, broadcastable to x.  F maps
    (..., n) arrays to (..., m) arrays and is called once, on the 4n
    points of each point's stencils as one (..., 4, n, n) array whose
    entry [..., o, i] is the point moved by offset o along coordinate i.
    Each column is the same arithmetic as `partial` along that
    coordinate, so it gives the same bits.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    hs = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    shifts = np.asarray(_D1_OFFSETS)[:, None, None] * (hs[..., None, :, None] * np.eye(n))
    values = np.asarray(F(x[..., None, None, :] + shifts))
    acc = 0.0
    for k, w in enumerate(_D1_WEIGHTS):
        acc = acc + w * values[..., k, :, :]
    return np.swapaxes(acc / (12.0 * hs[..., :, None]), -1, -2)


def stencil_second(F, x: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """Second derivatives along each axis at a batch of points x (N, n), points last.

    h is the step of each point, broadcastable to (N,).  F is called once,
    on the (1 + 4n, N, n) array of every point's stencil points (itself,
    then 4 shifts along each axis), and returns values (..., 1 + 4n, N);
    leading axes such as a family of functions are kept.  Returns
    d2[..., i, p] = d^2 F / (d x^i)^2 at x[p], and the centre values
    F(x)[..., p], a view into all the stencil's values.  The stencil sums run
    elementwise in table order, so each function in a stacked F gets the
    bits of its own call.
    """
    x = np.asarray(x, dtype=float)
    npts, n = x.shape
    hs = np.broadcast_to(np.asarray(h, dtype=float), (npts,))
    # unit shifts: the centre, then [offset, axis]
    unit = np.concatenate([np.zeros((1, n)),
                           (np.asarray(_D1_OFFSETS)[:, None, None] * np.eye(n)).reshape(-1, n)])
    values = np.asarray(F(x + unit[:, None, :] * hs[:, None]))
    along = values[..., 1:, :].reshape(values.shape[:-2] + (4, n, npts))
    acc = np.broadcast_to(_D2_CENTRE * values[..., :1, :], along.shape[:-3] + (n, npts)).copy()
    tmp = np.empty_like(acc)
    for k, w in enumerate(_D2_AT_D1):
        acc += np.multiply(w, along[..., k, :, :], out=tmp)
    acc /= 12.0 * hs * hs
    return acc, values[..., 0, :]


def complex_step_gradient(F, x: np.ndarray) -> np.ndarray:
    """Jacobians J[..., k, i] = Im F^k(x + i h e_i) / h at a batch of points x (..., n).

    F must be analytic: real on real input and built from operations
    that extend to complex arguments (no abs, no conjugate).  It is
    called once, on the (..., n, n) array of all complex steps.  No
    difference is taken, so the result is exact to rounding (Squire and
    Trapp, SIAM Rev. 40(1), 1998).
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(F(x[..., None, :] + (1j * _COMPLEX_STEP) * np.eye(x.shape[-1])))
    return np.swapaxes(values.imag / _COMPLEX_STEP, -1, -2)


def jacobian(F, x: np.ndarray, h) -> np.ndarray:
    """Jacobian J[k, i] = d F^k / d x^i of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    hs = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    cols = [partial(F, x, i, hs[i]) for i in range(x.size)]
    return np.stack([np.asarray(c, dtype=float) for c in cols], axis=-1)
