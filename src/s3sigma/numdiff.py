"""Fourth-order central differences: the one stencil engine of the package.

Every stencil is the classic 4th-order one, with weights from the two
tables below; the default relative step is 1e-5 times the coordinate
scale, which balances truncation against roundoff at double precision
for the smooth fields handled here.  The batched engine is
`stencil_gradient`, `stencil_hessian` and `complex_step_gradient`: each
calls its function once, on every point of every stencil, and every
stencil of the package goes through it.  Two scalar routines remain:
`partial`, with which `classical.poisson_bracket` differentiates its two
user-supplied scalar functions, and `jacobian`, which the package no
longer calls.  The benchmark tracer (`perfbench/tracer.py`) reads both
by name.
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


def stencil_hessian(F, x: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """Gradients and Hessians at a batch of points x (N, n), points last.

    h is the step of each point, broadcastable to (N,).  F is called once,
    on the (S, N, n) array of the S = 1 + 4n + 8n(n-1) stencil points of
    every point (itself, 4 shifts along each axis, 16 in each coordinate
    plane), and returns values (..., S, N); leading axes such as a family
    of functions are kept.  Returns d1[..., i, p] = d F / d x^i and
    d2[..., i, j, p] = d^2 F / d x^i d x^j at x[p].  The stencil sums run
    elementwise in table order, so each function in a stacked F gets the
    bits of its own call.
    """
    x = np.asarray(x, dtype=float)
    npts, n = x.shape
    hs = np.broadcast_to(np.asarray(h, dtype=float), (npts,))
    eye, o = np.eye(n), np.asarray(_D1_OFFSETS)
    ia, ib = np.triu_indices(n, 1)
    # unit shifts: the centre, [offset, axis], then [offset a, offset b, pair (a, b)]
    unit = np.concatenate([np.zeros((1, n)), (o[:, None, None] * eye).reshape(-1, n),
                           (o[:, None, None, None] * eye[ia] + o[:, None, None] * eye[ib]
                            ).reshape(-1, n)])
    values = np.asarray(F(x + unit[:, None, :] * hs[:, None]))
    lead = values.shape[:-2]
    along = values[..., 1:1 + 4 * n, :].reshape(lead + (4, n, npts))
    across = values[..., 1 + 4 * n:, :].reshape(lead + (4, 4, ia.size, npts))

    acc1 = 0.0
    acc2 = _D2_CENTRE * values[..., :1, :]
    for k, (w1, w2) in enumerate(zip(_D1_WEIGHTS, _D2_AT_D1)):
        acc1 = acc1 + w1 * along[..., k, :, :]
        acc2 = acc2 + w2 * along[..., k, :, :]
    acc12 = 0.0
    for ka, wa in enumerate(_D1_WEIGHTS):
        for kb, wb in enumerate(_D1_WEIGHTS):
            acc12 = acc12 + wa * wb * across[..., ka, kb, :, :]

    d2 = np.empty(lead + (n, n, npts), dtype=np.result_type(values, float))
    d2[..., range(n), range(n), :] = acc2 / (12.0 * hs * hs)
    d2[..., ia, ib, :] = d2[..., ib, ia, :] = acc12 / (144.0 * hs * hs)
    return acc1 / (12.0 * hs), d2


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
