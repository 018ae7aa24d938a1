"""Fourth-order central-difference helpers for the verification oracles.

All stencils are the classic 4th-order ones; the default relative step
is 1e-5 times the coordinate scale, which balances truncation against
roundoff at double precision for the smooth fields handled here.
`stencil_gradient` and `complex_step_gradient` are the batched forms:
each calls its function once, on every point of every stencil.
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

# Im f(x + i h) / h carries no difference, so h can sit far below roundoff.
_COMPLEX_STEP = 1e-20


def derivative(f, x: float, h: float):
    """d f / d x at a scalar point."""
    acc = 0.0
    for o, w in zip(_D1_OFFSETS, _D1_WEIGHTS):
        acc = acc + w * np.asarray(f(x + o * h))
    return acc / (12.0 * h)


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


def gradient(f, x: np.ndarray, h) -> np.ndarray:
    """Gradient of a scalar function; h may be scalar or per-coordinate."""
    x = np.asarray(x, dtype=float)
    hs = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    return np.array([partial(f, x, i, hs[i]) for i in range(x.size)])


def jacobian(F, x: np.ndarray, h) -> np.ndarray:
    """Jacobian J[k, i] = d F^k / d x^i of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    hs = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    cols = [partial(F, x, i, hs[i]) for i in range(x.size)]
    return np.stack([np.asarray(c, dtype=float) for c in cols], axis=-1)


def second_partial(f, x: np.ndarray, i: int, j: int, h: float):
    """Second partial d^2 f / dx^i dx^j at x."""
    x = np.asarray(x, dtype=float)
    if i == j:
        acc = 0.0
        for o, w in zip(_D2_OFFSETS, _D2_WEIGHTS):
            xs = x.copy()
            xs[i] += o * h
            acc = acc + w * np.asarray(f(xs))
        return acc / (12.0 * h * h)
    acc = 0.0
    for oi, wi in zip(_D1_OFFSETS, _D1_WEIGHTS):
        for oj, wj in zip(_D1_OFFSETS, _D1_WEIGHTS):
            xs = x.copy()
            xs[i] += oi * h
            xs[j] += oj * h
            acc = acc + wi * wj * np.asarray(f(xs))
    return acc / (144.0 * h * h)


def vector_field_bracket(X, Y, x: np.ndarray, h) -> np.ndarray:
    """Lie bracket [X, Y]^k = X^j d_j Y^k - Y^j d_j X^k at x."""
    jx = jacobian(X, x, h)
    jy = jacobian(Y, x, h)
    return jy @ np.asarray(X(x), dtype=float) - jx @ np.asarray(Y(x), dtype=float)


def metric_lie_derivative(field, metric_fn, x: np.ndarray, h) -> np.ndarray:
    """(L_X g)_ij = X^k d_k g_ij + d_i X^k g_kj + d_j X^k g_ik at x."""
    x = np.asarray(x, dtype=float)
    hs = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    g = np.asarray(metric_fn(x), dtype=float)
    xval = np.asarray(field(x), dtype=float)
    dg = np.stack([partial(metric_fn, x, k, hs[k]) for k in range(x.size)], axis=0)
    jx = jacobian(field, x, hs)  # jx[k, i] = d X^k / d x^i
    lie = np.einsum("k,kij->ij", xval, dg)
    lie += jx.T @ g + g @ jx
    return lie
