"""Deterministic quadrature over the 3-sphere in hyperspherical coordinates.

The invariant measure is R^3 sin^2(chi) sin(theta) d chi d theta d phi
with chi, theta in [0, pi] and phi in [0, 2 pi).  Gauss-Legendre rules
handle chi (with the sin^2 factor folded into the weights) and
cos(theta); the phi direction uses the uniform rule, which is exact for
trigonometric polynomials below the node count.  The weights sum to the
invariant volume 2 pi^2 R^3.

The Gauss-Legendre rules are the package's own (`_gauss_legendre`,
Golub & Welsch, Math. Comp. 23, 1969, with one Newton step on the
`specfun` recurrence): for 2 <= n <= 64 the nodes lie within 2e-16 and
the weights within 5e-14 relative of a 40-digit reference.  Each order's
rule, and each triple of `axis_rules`, is computed once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import SpaceConfig
from .errors import QuadratureError
from .specfun import gegenbauer


@dataclass(frozen=True, eq=False)
class HypersphericalNode:
    """One node with the full measure factor folded into the weight."""

    chi: float
    theta: float
    phi: float
    weight: float


@dataclass(frozen=True, eq=False)
class QuadGrid:
    """Tensor-product grid; arrays are flattened over all nodes and read-only.

    `rules` holds the (nodes, weights) of its 1-D rules in chi, theta and
    phi; a node's weight is R^3 times the product of its three weights.
    """

    chi: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    weight: np.ndarray
    orders: tuple[int, int, int]
    R: float
    rules: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return self.chi.size

    def node(self, i: int) -> HypersphericalNode:
        return HypersphericalNode(float(self.chi[i]), float(self.theta[i]),
                                  float(self.phi[i]), float(self.weight[i]))

    @cached_property
    def q(self) -> np.ndarray:
        """Unit quaternions (N, 4) of the nodes."""
        return _read_only(sphere_points(self.chi, self.theta, self.phi))


def sphere_points(chi, theta, phi) -> np.ndarray:
    """Unit quaternions (..., 4) at hyperspherical angles: (cos chi, sin chi n_hat),
    n_hat = (sin theta cos phi, sin theta sin phi, cos theta)."""
    schi = np.sin(chi)
    sth = np.sin(theta)
    return np.stack([np.cos(chi), schi * sth * np.cos(phi), schi * sth * np.sin(phi),
                     schi * np.cos(theta)], axis=-1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ascending nodes and weights of the n-point Gauss-Legendre rule.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence (off-diagonal k / sqrt(4 k^2 - 1)), polished by one Newton
    step x -= P_n / P_n' with P_n = C_n^(1/2) from `specfun.gegenbauer`.
    The weight 2 / ((1 - x^2) P_n'^2) is taken as
    2 / (P_n' ((1 - x^2) P_n' - 2 x P_n)): the same at a root, and with no
    first-order change there, so the node's last-bit error does not reach
    it (near x = +-1 it would, by 2 x dx / (1 - x^2)).
    """
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p = gegenbauer(0.5, n, x)
    x -= p.value / p.derivative
    p = gegenbauer(0.5, n, x)
    dp = p.derivative
    w = 2.0 / (dp * ((1.0 - x) * (1.0 + x) * dp - 2.0 * x * p.value))
    return _read_only(x), _read_only(w)


@lru_cache(maxsize=None)
def axis_rules(n_chi: int, n_theta: int, n_phi: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The read-only (nodes, weights) of the 1-D rules in chi, theta and phi.

    Gauss-Legendre nodes in chi over [0, pi] carry the sin^2(chi)
    factor; Gauss-Legendre nodes in cos(theta) absorb sin(theta); the
    phi rule is uniform with weight 2 pi / n_phi.  R^3 times their
    products sum to the invariant volume 2 pi^2 R^3 to rule accuracy.
    Computed once per orders and shared.
    """
    if n_chi < 2 or n_theta < 2 or n_phi < 4:
        raise QuadratureError(
            f"orders too small: need at least (2, 2, 4), got "
            f"({n_chi}, {n_theta}, {n_phi})")

    x_chi, w_chi = _gauss_legendre(n_chi)
    chi = 0.5 * math.pi * (x_chi + 1.0)
    w_chi = 0.5 * math.pi * w_chi * np.sin(chi) ** 2

    u, w_u = _gauss_legendre(n_theta)
    theta = np.arccos(u)

    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = np.full(n_phi, 2.0 * math.pi / n_phi)
    return tuple((_read_only(x), _read_only(w))
                 for x, w in ((chi, w_chi), (theta, w_u), (phi, w_phi)))


@lru_cache(maxsize=16)  # a suite run uses four grids
def build_grid(n_chi: int, n_theta: int, n_phi: int, cfg: SpaceConfig) -> QuadGrid:
    """Tensor product of the `axis_rules` of orders (n_chi, n_theta, n_phi).

    A node's weight is R^3 times its three 1-D weights.  One grid per
    (orders, cfg) is built and shared; its arrays are read-only.
    """
    rules = axis_rules(n_chi, n_theta, n_phi)
    cg, tg, pg = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    wc, wt, wp = np.meshgrid(*(w for _, w in rules), indexing="ij")
    weight = (cfg.R ** 3) * wc * wt * wp
    return QuadGrid(*(_read_only(a.ravel()) for a in (cg, tg, pg, weight)),
                    (n_chi, n_theta, n_phi), cfg.R, rules)


def monomial_sums(grid: QuadGrid, expo: np.ndarray) -> np.ndarray:
    """The grid's quadrature sum of q0^a q1^b q2^c q3^d for each integer
    exponent row (a, b, c, d) of expo (..., 4), with no sum over nodes.

    On the tensor-product grid it factorises (Folland, Amer. Math.
    Monthly 108(5), 2001) into R^3 A[a, b+c+d] B[b+c, d] C[b, c], power
    sums of the 1-D rules in chi (cos^a sin^s), theta (sin^t cos^d) and
    phi (cos^b sin^c), with the sines and cosines `QuadGrid.q` takes.
    """
    a, b, c, d = np.moveaxis(np.asarray(expo), -1, 0)
    top = int(np.max(a + b + c + d, initial=0))
    (chi, w_chi), (theta, w_u), (phi, w_phi) = grid.rules
    A = _power_sums(np.cos(chi), np.sin(chi), w_chi, top)
    B = _power_sums(np.sin(theta), np.cos(theta), w_u, top)
    C = _power_sums(np.cos(phi), np.sin(phi), w_phi, top)
    return grid.R ** 3 * A[a, b + c + d] * B[b + c, d] * C[b, c]


def _power_sums(x: np.ndarray, y: np.ndarray, w: np.ndarray, top: int) -> np.ndarray:
    """S[i, j] = sum_n w_n x_n^i y_n^j for i, j <= top."""
    k = np.arange(top + 1)[:, None]
    return (x ** k * w) @ (y ** k).T


def integrate(f, grid: QuadGrid) -> complex:
    """Sum f(chi, theta, phi) against the node weights.

    f must accept the grid's coordinate arrays and return an array of
    values; a non-finite value aborts with the offending node named.
    """
    vals = np.asarray(f(grid.chi, grid.theta, grid.phi))
    return integrate_values(vals, grid)


def integrate_values(vals: np.ndarray, grid: QuadGrid) -> complex:
    vals = np.asarray(vals)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.flatnonzero(bad.reshape(-1))[0])
        node = grid.node(i)
        raise QuadratureError(
            f"non-finite integrand value at node {i}: chi={node.chi}, "
            f"theta={node.theta}, phi={node.phi}")
    total = np.sum(vals * grid.weight)
    if np.iscomplexobj(vals):
        return complex(total)
    return float(total)


def volume(grid: QuadGrid) -> float:
    """Total measure carried by the grid."""
    return float(np.sum(grid.weight))


def exact_volume(cfg: SpaceConfig) -> float:
    return 2.0 * math.pi ** 2 * cfg.R ** 3
