"""Chart and chart-free geometry of the 3-sphere as a group manifold.

Points are stored globally as unit quaternions (4-vectors q with
|q| = 1); the chart uses the first three embedded Cartesian coordinates
eps_i = R q_i together with the hemisphere label rho_sign = sign(q_0).
Every tensor below is expressed in that chart.

Matrix layout convention, used consistently by the chart tensors:
rows index the frame label (i), columns index the chart coordinate.
With that layout the invariant-frame matrices satisfy the literal
matrix identities

    one_form(side) @ dual_field(side) = identity
    one_form(side).T @ one_form(side) = metric

at every chart-interior point, for both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .config import SpaceConfig
from .errors import ChartBoundaryError, DomainError, StencilError
from .sampling import Draws

#: Levi-Civita symbol, LEVI_CIVITA[i, j, k] = +1 for (0,1,2) and cyclic.
LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                       (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0)):
    LEVI_CIVITA[_i, _j, _k] = _s

#: |rho| below this floor counts as "on the equator" for 1/rho formulas.
RHO_FLOOR = 1e-10

_UNIT_TOL = 1e-12


def cross_matrix(v: np.ndarray) -> np.ndarray:
    """Matrices M[..., i, j] = sum_k eps_{ijk} v[..., k], so that M @ w = w x v."""
    v = np.asarray(v)
    out = np.zeros(v.shape[:-1] + (3, 3), dtype=np.result_type(v, float))
    out[..., 0, 1], out[..., 0, 2] = v[..., 2], -v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = -v[..., 2], v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = v[..., 1], -v[..., 0]
    return out


@dataclass(frozen=True, eq=False)
class ChartCoords:
    """Chart point: eps in the closed ball |eps| <= R plus hemisphere sign."""

    eps: np.ndarray
    rho_sign: int = +1

    def __post_init__(self) -> None:
        e = np.array(self.eps, dtype=float).reshape(3)
        object.__setattr__(self, "eps", e)
        if self.rho_sign not in (-1, +1):
            raise DomainError(f"rho_sign must be +1 or -1, got {self.rho_sign!r}")
        if not np.all(np.isfinite(e)):
            raise DomainError("chart coordinates must be finite")

    def validate(self, cfg: SpaceConfig) -> None:
        _heights(self.eps, self.rho_sign, cfg)


@dataclass(frozen=True, eq=False)
class S3Point:
    """Global point of the sphere held as a unit quaternion (q0, q1, q2, q3)."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float).reshape(4)
        n = float(np.linalg.norm(q))
        if not np.isfinite(n) or n == 0.0:
            raise DomainError("quaternion must be finite and nonzero")
        # Renormalize after arithmetic; reject inputs that are badly off the sphere.
        if abs(n - 1.0) > 1e-6:
            raise DomainError(f"|q| = {n} is too far from 1 to renormalize safely")
        object.__setattr__(self, "q", q / n)

    @classmethod
    def from_chart(cls, c: ChartCoords, cfg: SpaceConfig) -> "S3Point":
        r = rho(c, cfg)
        return cls(np.concatenate(([r], c.eps / cfg.R)))

    def to_chart(self, cfg: SpaceConfig) -> ChartCoords:
        sign = +1 if self.q[0] >= 0.0 else -1
        return ChartCoords(cfg.R * self.q[1:], sign)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions held as (..., 4) arrays (q0, q1, q2, q3);
    the vector part (a0 b_i + b0 a_i) + (a_j b_k - a_k b_j) is written by components."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)))
    out[..., 0] = a[..., 0] * b[..., 0] - np.sum(a[..., 1:] * b[..., 1:], axis=-1)
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        out[..., i] = ((a[..., 0] * b[..., i] + b[..., 0] * a[..., i])
                       + (a[..., j] * b[..., k] - a[..., k] * b[..., j]))
    return out


def rho(c: ChartCoords, cfg: SpaceConfig) -> float:
    """Signed height rho = rho_sign * sqrt(1 - |eps|^2 / R^2)."""
    return float(_heights(c.eps, c.rho_sign, cfg))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of (..., 3) arrays, each rounded as np.dot rounds it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _heights(eps: np.ndarray, rho_sign, cfg: SpaceConfig) -> np.ndarray:
    """Signed heights rho of chart points eps (..., 3): rho batched.

    rho_sign broadcasts against eps[..., 0].  DomainError when an eps
    leaves the chart ball, |eps|^2 / R^2 > 1 + 1e-12, or is not finite.
    A real height is clamped at the boundary; a complex eps (a complex
    step) is checked by its real part and not clamped, so rho is analytic.
    """
    s2 = _dot(eps, eps) / (cfg.R * cfg.R)
    if not (s2.real <= 1.0 + _UNIT_TOL).all():
        raise DomainError(f"|eps| = {cfg.R * math.sqrt(np.max(s2.real))} exceeds "
                          f"the chart radius R = {cfg.R}")
    if np.iscomplexobj(s2):
        return rho_sign * np.sqrt(1.0 - s2)
    return rho_sign * np.sqrt(np.maximum(0.0, 1.0 - s2))


def _off_equator(r):
    if np.any(np.abs(r) < RHO_FLOOR):
        raise ChartBoundaryError(
            "point sits on the chart equator (|rho| < 1e-10); "
            "use the opposite-hemisphere chart")
    return r


def _metric(eps: np.ndarray, rho_sign, cfg: SpaceConfig) -> np.ndarray:
    """The metric at chart points eps (..., 3), as (..., 3, 3)."""
    r = _off_equator(_heights(eps, rho_sign, cfg))
    den = cfg.R * cfg.R * r * r
    return np.eye(3) + eps[..., :, None] * eps[..., None, :] / den[..., None, None]


def _metric_inverse_deviation(eps: np.ndarray, cfg: SpaceConfig) -> np.ndarray:
    """g^ij - delta^ij = -eps^i eps^j / R^2 at chart points eps (..., 3), as (..., 3, 3)."""
    return -(eps[..., :, None] * eps[..., None, :]) / (cfg.R * cfg.R)


def _metric_inverse(eps: np.ndarray, cfg: SpaceConfig) -> np.ndarray:
    """The inverse metric at chart points eps (..., 3), as (..., 3, 3)."""
    return np.eye(3) + _metric_inverse_deviation(eps, cfg)


def metric(c: ChartCoords, cfg: SpaceConfig) -> np.ndarray:
    """Induced metric g_ij = delta_ij + eps_i eps_j / (R^2 rho^2)."""
    return _metric(c.eps, c.rho_sign, cfg)


def metric_inverse(c: ChartCoords, cfg: SpaceConfig) -> np.ndarray:
    """Inverse metric g^ij = delta^ij - eps^i eps^j / R^2 (regular everywhere)."""
    return _metric_inverse(c.eps, cfg)


def _side_sign(side: str) -> float:
    s = side.lower()
    if s in ("right", "r"):
        return +1.0
    if s in ("left", "l"):
        return -1.0
    raise DomainError(f"side must be 'left' or 'right', got {side!r}")


def canonical_one_form(c: ChartCoords, side: str, cfg: SpaceConfig) -> np.ndarray:
    """Invariant frame of 1-forms, T[i, j] = rho d^i_j + eps^i eps_j/(R^2 rho) +- eps_{ijk} eps^k / R.

    The right frame carries the + antisymmetric term, the left frame
    the - term.  Rows are frame labels, columns chart coordinates.
    """
    s = _side_sign(side)
    r = _off_equator(rho(c, cfg))
    e = c.eps
    R = cfg.R
    return r * np.eye(3) + np.outer(e, e) / (R * R * r) + (s / R) * cross_matrix(e)


def dual_field(c: ChartCoords, side: str, cfg: SpaceConfig) -> np.ndarray:
    """Invariant frame of vector fields, Z[i, k] = rho d^k_i +- eps_{kij} eps^j / R.

    Rows are frame labels, columns chart coordinates, so Z[i] is the
    component vector of the i-th field.  Polynomial in eps and rho, so
    no chart-boundary error is possible.
    """
    return _dual(c.eps, np.asarray(rho(c, cfg)), _side_sign(side), cfg.R)


def _dual(eps: np.ndarray, r: np.ndarray, s: float, R: float) -> np.ndarray:
    """dual_field at chart points eps (..., 3) with heights r, side sign s."""
    # Z[i, k] = rho delta + s/R * eps_{kij} e_j = rho delta - s/R * cross_matrix(e)[i, k]
    return r[..., None, None] * np.eye(3) - (s / R) * cross_matrix(eps)


def _check_stencil_margin(eps: np.ndarray, h: float, cfg: SpaceConfig, message: str) -> None:
    """StencilError(message) when a stencil of step h around chart points eps (..., 3)
    would reach |eps| > R (1 - 1e-8)."""
    widest = math.sqrt(max(np.einsum("...i,...i->...", eps, eps).flat))  # max |eps|
    if widest + 2.0 * h > cfg.R * (1.0 - 1e-8):
        raise StencilError(message)


def killing_residual(c: ChartCoords, field_fn, cfg: SpaceConfig,
                     h: float | None = None) -> float:
    """Max-norm of the metric Lie derivative along a chart vector field.

    field_fn maps a ChartCoords to a 3-vector of components.  A zero
    residual (up to the difference-stencil error) certifies the field
    as an isometry generator.
    """
    if h is None:
        h = numdiff.DEFAULT_REL_STEP * cfg.R
    e = np.asarray(c.eps, dtype=float)
    _check_stencil_margin(e, h, cfg, "difference stencil would leave the chart; move "
                          "the evaluation point away from the equator")

    sign = c.rho_sign

    def field_and_metric(x: np.ndarray) -> np.ndarray:
        pts = x.reshape(-1, 3)
        field = np.array([field_fn(ChartCoords(p, sign)) for p in pts], dtype=float)
        return np.concatenate((field.reshape(x.shape),
                               _metric(x, sign, cfg).reshape(x.shape[:-1] + (9,))), axis=-1)

    jac = numdiff.stencil_gradient(field_and_metric, e, h)
    jx, dg = jac[:3], jac[3:].reshape(3, 3, 3)  # jx[k, i] = d X^k / d x^i, dg[i, j, k] = d g_ij / d x^k
    g = metric(c, cfg)
    # (L_X g)_ij = X^k d_k g_ij + d_i X^k g_kj + d_j X^k g_ik
    lie = dg @ np.asarray(field_fn(c), dtype=float) + jx.T @ g + g @ jx
    return float(np.max(np.abs(lie)))


def sample_chart_arrays(rng: Draws, cfg: SpaceConfig, count: int,
                        max_radius_fraction: float = 0.9,
                        both_hemispheres: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly scattered chart points with |eps| <= f R, as eps (count, 3) and signs
    (count,): normal directions (count, 3), and uniforms (count, 2) for the radius
    R f u^(1/3) and the sign (-1 where u < 0.5)."""
    v = rng.standard_normal((count, 3))
    u = rng.random((count, 2))
    eps = v * (cfg.R * max_radius_fraction * np.cbrt(u[:, 0]) / np.linalg.norm(v, axis=1))[:, None]
    signs = np.where(u[:, 1] < 0.5, -1, 1) if both_hemispheres else np.ones(count, dtype=int)
    return eps, signs


def sample_chart_points(rng: Draws, cfg: SpaceConfig, count: int,
                        max_radius_fraction: float = 0.9,
                        both_hemispheres: bool = True) -> list[ChartCoords]:
    """`sample_chart_arrays` as one `ChartCoords` per point."""
    eps, signs = sample_chart_arrays(rng, cfg, count, max_radius_fraction, both_hemispheres)
    return [ChartCoords(e, int(s)) for e, s in zip(eps, signs)]
