"""Classical dynamics of the free particle on the 3-sphere.

Closed-form geodesics, a constraint-preserving one-step integrator,
the transformation onto the solution manifold (constants of motion),
and numerical Poisson-bracket verification of the basic 7-function
algebra {eps^i, theta_j, rho}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numdiff
from .config import SpaceConfig
from .errors import DomainError
from .geometry import (ChartCoords, LEVI_CIVITA, _check_stencil_margin, _dot, _heights,
                       _metric, _metric_inverse, _off_equator, canonical_one_form, dual_field,
                       metric, metric_inverse, rho, sample_chart_arrays)
from .sampling import Draws

_REST_OMEGA = 1e-300


@dataclass(frozen=True, eq=False)
class PhaseState:
    """Chart point plus chart velocity (eps, deps/dt)."""

    point: ChartCoords
    vel: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vel, dtype=float).reshape(3)
        object.__setattr__(self, "vel", v)
        if not np.all(np.isfinite(v)):
            raise DomainError("velocity must be finite")


@dataclass(frozen=True, eq=False)
class SolutionPoint:
    """Solution-manifold coordinates: the constants of motion of one geodesic.

    eps0 and theta0 are the position-type and velocity-type invariants;
    pi0 is the conjugate Darboux momentum pi_i = m T[k, i](eps0) theta0_k
    with T the right one-form frame.  rho_sign tags the hemisphere of
    eps0 so the coordinates stay global.
    """

    eps0: np.ndarray
    theta0: np.ndarray
    pi0: np.ndarray
    rho_sign: int = +1

    def __post_init__(self) -> None:
        for name in ("eps0", "theta0", "pi0"):
            v = np.array(getattr(self, name), dtype=float).reshape(3)
            object.__setattr__(self, name, v)
            if not np.all(np.isfinite(v)):
                raise DomainError(f"{name} must be finite")
        if self.rho_sign not in (-1, +1):
            raise DomainError("rho_sign must be +1 or -1")


@dataclass(eq=False)
class Trajectory:
    """Sampled geodesic run as embedded rows x, v (N, 4), |x| = R and x . v = 0,
    with per-sample conserved quantities; state(k) is the chart view of sample k."""

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    energy: np.ndarray
    theta_right: np.ndarray
    theta_left: np.ndarray
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not len(self.times) == len(self.x) == len(self.v):
            raise DomainError("times, x and v must have equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise DomainError("times must be strictly increasing")

    def state(self, k: int) -> PhaseState:
        """Sample k as a chart point and chart velocity."""
        return _project(self.x[k], self.v[k])


# ---------------------------------------------------------------------------
# embedding helpers

def _embed(state: PhaseState, cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lift a chart state to the embedded pair (X, V), |X| = R, X.V = 0.

    The fourth velocity component is v0 = -eps.vel / (R rho), which
    needs the chart interior.
    """
    c = state.point
    r = _off_equator(rho(c, cfg))
    x = np.concatenate(([cfg.R * r], c.eps))
    v0 = -float(np.dot(c.eps, state.vel)) / (cfg.R * r)
    v = np.concatenate(([v0], state.vel))
    return x, v


def _project(x: np.ndarray, v: np.ndarray) -> PhaseState:
    sign = +1 if x[0] >= 0.0 else -1
    return PhaseState(ChartCoords(x[1:].copy(), sign), v[1:].copy())


def _theta_from_embedding(x: np.ndarray, v: np.ndarray,
                          cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Both conserved frame-velocity triples, regular across the equator.

    theta(side)_i = rho vel_i - (v0/R) eps_i +- (vel x eps)_i / R equals
    the contraction of the side's one-form frame with the chart velocity.
    x and v are (..., 4) embedded states.
    """
    r = x[..., :1] / cfg.R
    eps = x[..., 1:]
    vel = v[..., 1:]
    base = r * vel - (v[..., :1] / cfg.R) * eps
    cross = np.cross(vel, eps) / cfg.R
    return base + cross, base - cross


# ---------------------------------------------------------------------------
# energy functions

def lagrangian(s: PhaseState, cfg: SpaceConfig) -> float:
    """Kinetic Lagrangian (m/2) g_ij(eps) vel^i vel^j."""
    g = metric(s.point, cfg)
    return 0.5 * cfg.m * float(s.vel @ g @ s.vel)


def momentum(s: PhaseState, cfg: SpaceConfig) -> np.ndarray:
    """Canonical momentum p_i = m g_ij vel^j."""
    g = metric(s.point, cfg)
    return cfg.m * (g @ s.vel)


def hamiltonian(s: PhaseState, cfg: SpaceConfig, route: str = "velocity") -> float:
    """Energy of the state, computable through three equivalent routes.

    route = 'velocity'  : (m/2) g_ij vel^i vel^j
    route = 'momentum'  : (1/2m) g^ij p_i p_j
    route = 'frame'     : (m/2) delta_ij theta^i theta^j
    """
    if route == "velocity":
        return lagrangian(s, cfg)
    if route == "momentum":
        p = momentum(s, cfg)
        ginv = metric_inverse(s.point, cfg)
        return float(p @ ginv @ p) / (2.0 * cfg.m)
    if route == "frame":
        th = canonical_one_form(s.point, "right", cfg) @ s.vel
        return 0.5 * cfg.m * float(th @ th)
    raise DomainError(f"unknown Hamiltonian route {route!r}")


def invariant_velocities(s: PhaseState, cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The conserved (right, left) frame-velocity triples of the state."""
    x, v = _embed(s, cfg)
    return _theta_from_embedding(x, v, cfg)


# ---------------------------------------------------------------------------
# geodesics

def angular_frequency(s: PhaseState, cfg: SpaceConfig) -> float:
    """omega = (1/R) sqrt(g_ij vel^i vel^j); the great-circle rate."""
    g = metric(s.point, cfg)
    return math.sqrt(max(0.0, float(s.vel @ g @ s.vel))) / cfg.R


def _great_circle(x0: np.ndarray, v0: np.ndarray, w: float, t) -> tuple[np.ndarray, np.ndarray]:
    """The great circle x(t) = x0 cos(w t) + v0 sin(w t) / w and its velocity
    v(t) = v0 cos(w t) - w x0 sin(w t) at the times t, as (t.shape + x0.shape)
    arrays: embedded rows for the geodesic, chart components for the chart form."""
    wt = w * np.asarray(t, dtype=float)[..., None]
    c, s = np.cos(wt), np.sin(wt)
    return x0 * c + v0 * s / w, v0 * c - w * x0 * s


def geodesic_exact(init: PhaseState, t: float, cfg: SpaceConfig) -> PhaseState:
    """Closed-form geodesic flow at time t: the embedded great circle, valid
    globally, with the hemisphere sign tracked by the embedding."""
    x0, v0 = _embed(init, cfg)
    w = float(np.linalg.norm(v0)) / cfg.R
    if w < _REST_OMEGA:
        return init
    return _project(*_great_circle(x0, v0, w, t))


def closed_form_chart(init: PhaseState, t, omega: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chart-form solution (eps, vel, acc), each (t.shape + (3,)), at the times t
    for an explicit omega: the residual oracle also probes wrong frequencies."""
    e, v = _great_circle(init.point.eps, init.vel, omega, t)
    return e, v, -(omega * omega) * e


def _christoffel_many(eps: np.ndarray, rho_sign, cfg: SpaceConfig) -> np.ndarray:
    """Christoffel symbols Gamma[n, j, k, l] at chart points eps (N, 3).

    dg comes from one complex-step gradient of the metric at all points.
    """
    sign = np.broadcast_to(rho_sign, eps.shape[:-1])[:, None]
    jac = numdiff.complex_step_gradient(
        lambda y: _metric(y, sign, cfg).reshape(y.shape[:-1] + (9,)), eps)
    dg = np.moveaxis(jac.reshape(-1, 3, 3, 3), -1, 1)  # dg[n, k, i, j] = d g_ij / d x^k
    ginv = _metric_inverse(eps, cfg)
    gamma = 0.5 * np.einsum("njm,nkml->njkl", ginv, dg)
    gamma += 0.5 * np.einsum("njm,nlmk->njkl", ginv, dg)
    gamma -= 0.5 * np.einsum("njm,nmkl->njkl", ginv, dg)
    return gamma


def christoffel(c: ChartCoords, cfg: SpaceConfig) -> np.ndarray:
    """Christoffel symbols Gamma[j, k, l] from the complex-step gradient of g."""
    return _christoffel_many(c.eps[None], c.rho_sign, cfg)[0]


def geodesic_equation_residual(init: PhaseState, times, cfg: SpaceConfig,
                               omega: float | None = None) -> float:
    """Max norm of acc^j + Gamma^j_kl vel^k vel^l along the closed form.

    With the metric frequency the residual vanishes to rounding;
    probing a different omega quantifies how badly that frequency fails.
    """
    if omega is None:
        omega = angular_frequency(init, cfg)
    if omega == 0.0:
        return 0.0
    e, v, a = closed_form_chart(init, np.ravel(times), omega)
    return _max_abs(a + np.einsum("njkl,nk,nl->nj", _christoffel_many(e, +1, cfg), v, v))


def _rk4_step(s: tuple, dt: float, R2: float) -> tuple:
    """One classic RK4 step of X' = V, V' = -(|V|^2/R^2) X on the eight floats (X, V).

    Stage j (2 to 4) sits at position y with velocity uj; aj is the
    acceleration of stage j (1 to 4), and the last digit of a name is the
    component.  Every product and sum is a Python float operation, left
    to right, so a step rounds the same on every IEEE host.
    """
    x0, x1, x2, x3, v0, v1, v2, v3 = s
    h = 0.5 * dt
    c = -((v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3) / R2)
    a10, a11, a12, a13 = c * x0, c * x1, c * x2, c * x3
    y0, y1, y2, y3 = x0 + h * v0, x1 + h * v1, x2 + h * v2, x3 + h * v3
    u20, u21, u22, u23 = v0 + h * a10, v1 + h * a11, v2 + h * a12, v3 + h * a13
    c = -((u20 * u20 + u21 * u21 + u22 * u22 + u23 * u23) / R2)
    a20, a21, a22, a23 = c * y0, c * y1, c * y2, c * y3
    y0, y1, y2, y3 = x0 + h * u20, x1 + h * u21, x2 + h * u22, x3 + h * u23
    u30, u31, u32, u33 = v0 + h * a20, v1 + h * a21, v2 + h * a22, v3 + h * a23
    c = -((u30 * u30 + u31 * u31 + u32 * u32 + u33 * u33) / R2)
    a30, a31, a32, a33 = c * y0, c * y1, c * y2, c * y3
    y0, y1, y2, y3 = x0 + dt * u30, x1 + dt * u31, x2 + dt * u32, x3 + dt * u33
    u40, u41, u42, u43 = v0 + dt * a30, v1 + dt * a31, v2 + dt * a32, v3 + dt * a33
    c = -((u40 * u40 + u41 * u41 + u42 * u42 + u43 * u43) / R2)
    a40, a41, a42, a43 = c * y0, c * y1, c * y2, c * y3
    w = dt / 6.0
    return (x0 + w * (v0 + 2.0 * u20 + 2.0 * u30 + u40),
            x1 + w * (v1 + 2.0 * u21 + 2.0 * u31 + u41),
            x2 + w * (v2 + 2.0 * u22 + 2.0 * u32 + u42),
            x3 + w * (v3 + 2.0 * u23 + 2.0 * u33 + u43),
            v0 + w * (a10 + 2.0 * a20 + 2.0 * a30 + a40),
            v1 + w * (a11 + 2.0 * a21 + 2.0 * a31 + a41),
            v2 + w * (a12 + 2.0 * a22 + 2.0 * a32 + a42),
            v3 + w * (a13 + 2.0 * a23 + 2.0 * a33 + a43))


def geodesic_integrate(init: PhaseState, t_end: float, steps: int,
                       cfg: SpaceConfig) -> Trajectory:
    """Classic one-step 4th-order run of the embedded geodesic equation.

    The embedded acceleration is X'' = -(|V|^2/R^2) X; after every step
    the position is renormalized onto the sphere and the velocity is
    projected back onto the tangent plane.  The state is eight Python
    floats and each sample one (x, v) row of a preallocated buffer.  Energy
    and both invariant triples are logged at every sample; a run is cut,
    with a warning, before its first non-finite row (every later row is
    non-finite too).
    """
    if steps < 10:
        raise DomainError("steps must be at least 10")
    x, v = _embed(init, cfg)
    w = float(np.linalg.norm(v)) / cfg.R
    dt = t_end / steps
    warnings: list[str] = []
    if w * abs(dt) > 0.5:
        warnings.append(
            f"step too coarse: omega*dt = {w * abs(dt):.3g} > 0.5, expect "
            "degraded accuracy")

    R, R2 = cfg.R, cfg.R * cfg.R
    s = tuple(x.tolist() + v.tolist())
    rows = np.empty((steps + 1, 8))
    rows[0] = s
    for k in range(1, steps + 1):
        x0, x1, x2, x3, v0, v1, v2, v3 = _rk4_step(s, dt, R2)
        # Constraint maintenance: |X| = R and V tangent.
        f = R / math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3)
        x0, x1, x2, x3 = f * x0, f * x1, f * x2, f * x3
        p = (x0 * v0 + x1 * v1 + x2 * v2 + x3 * v3) / R2
        s = (x0, x1, x2, x3, v0 - p * x0, v1 - p * x1, v2 - p * x2, v3 - p * x3)
        rows[k] = s
    xs, vs = rows[:, :4], rows[:, 4:]

    filled = steps + 1
    diverged = np.flatnonzero(~np.isfinite(np.hstack((xs[1:], vs[1:]))).all(axis=1))
    if diverged.size:
        filled = int(diverged[0]) + 1
        warnings.append(f"integration diverged at step {filled}; trajectory truncated")
        xs, vs = xs[:filled], vs[:filled]
    th_r, th_l = _theta_from_embedding(xs, vs, cfg)
    energy = 0.5 * cfg.m * (vs[:, None, :] @ vs[:, :, None])[:, 0, 0]  # rounded as vv @ vv
    return Trajectory(np.arange(filled) * dt, xs, vs, energy, th_r, th_l, warnings)


# ---------------------------------------------------------------------------
# solution manifold

def hj_transform(s: PhaseState, t: float, cfg: SpaceConfig) -> SolutionPoint:
    """Map the state observed at time t to its constants of motion."""
    init = geodesic_exact(s, -t, cfg)
    th_r, _ = invariant_velocities(init, cfg)
    pi0 = momentum(init, cfg)
    return SolutionPoint(init.point.eps, th_r, pi0, init.point.rho_sign)


def hj_inverse(sp: SolutionPoint, t: float, cfg: SpaceConfig) -> PhaseState:
    """Exact inverse of hj_transform: rebuild the state at time t.

    The frame matrices satisfy one_form @ dual_field = identity, so the
    chart velocity is the dual-field matrix applied to theta0.
    """
    c0 = ChartCoords(sp.eps0, sp.rho_sign)
    zmat = dual_field(c0, "right", cfg)
    vel0 = zmat @ sp.theta0
    return geodesic_exact(PhaseState(c0, vel0), t, cfg)


#: Columns of the basis kernel and rows/columns of the bracket matrices.
_BASIS_NAMES = ("eps1", "eps2", "eps3", "theta1", "theta2", "theta3", "rho")


def _basis_values(x, cfg: SpaceConfig, rho_sign) -> np.ndarray:
    """The seven basic functions eps1..3, theta1..3, rho at Darboux points.

    x holds (eps, pi) along its last axis, (..., 6) in and (..., 7) out, on
    the hemispheres rho_sign: one sign, or one per index of x's leading axes
    (per row of a batch).  theta = (rho pi + eps x pi / R) / m is Z pi / m
    with Z the right dual frame.  Only analytic operations are used, so a
    complex x gives complex-step derivatives; a real height is clamped at
    the chart boundary as geometry.rho does.
    """
    e0, e1, e2, p0, p1, p2 = np.moveaxis(np.asarray(x), -1, 0)
    height2 = 1.0 - (e0 * e0 + e1 * e1 + e2 * e2) / (cfg.R * cfg.R)
    if not np.iscomplexobj(height2):
        height2 = np.maximum(height2, 0.0)
    sign = np.asarray(rho_sign)
    r = sign.reshape(sign.shape + (1,) * (height2.ndim - sign.ndim)) * np.sqrt(height2)
    theta = ((r * p0 + (e1 * p2 - e2 * p1) / cfg.R) / cfg.m,
             (r * p1 + (e2 * p0 - e0 * p2) / cfg.R) / cfg.m,
             (r * p2 + (e0 * p1 - e1 * p0) / cfg.R) / cfg.m)
    return np.stack([e0, e1, e2, *theta, r], axis=-1)


def theta_of_darboux(eps: np.ndarray, pi: np.ndarray, cfg: SpaceConfig,
                     rho_sign: int = +1) -> np.ndarray:
    """Velocity-type invariants from Darboux coordinates.

    theta_j = (1/m) Z[j, k](eps) pi_k, the inverse of the defining
    relation pi_i = m T[k, i] theta_k.
    """
    c = ChartCoords(eps, rho_sign)
    c.validate(cfg)
    x = np.concatenate([c.eps, np.asarray(pi, dtype=float).reshape(3)])
    return _basis_values(x, cfg, rho_sign)[3:6]


def poisson_bracket(f, g, at: SolutionPoint, cfg: SpaceConfig) -> float:
    """Canonical bracket {f, g} = df/deps . dg/dpi - df/dpi . dg/deps.

    f and g take (eps, pi) arrays and return scalars; all derivatives
    are 4th-order central differences taken at the solution point.
    """
    e0, p0 = at.eps0, at.pi0
    h = _stencil_steps(np.concatenate([e0, p0]), cfg)

    def df(func):
        de = np.array([numdiff.partial(lambda y: func(y, p0), e0, i, h[i])
                       for i in range(3)])
        dp = np.array([numdiff.partial(lambda y: func(e0, y), p0, i, h[3 + i])
                       for i in range(3)])
        return de, dp

    fe, fp = df(f)
    ge, gp = df(g)
    return float(fe @ gp - fp @ ge)


def _sample_solution_points(rng: Draws, cfg: SpaceConfig,
                            count: int, radius_fraction: float = 0.7) -> np.ndarray:
    """count Darboux rows (eps, pi), (count, 6), upper hemisphere; chart points drawn first."""
    eps, _ = sample_chart_arrays(rng, cfg, count, radius_fraction, both_hemispheres=False)
    return np.hstack((eps, cfg.m * rng.standard_normal((count, 3))))


def _stencil_steps(x, cfg: SpaceConfig) -> np.ndarray:
    """Steps (..., 6) for the Darboux rows x (..., 6): 1e-5 R along eps and
    1e-5 max(1, |pi|) along pi, |pi| rounded as np.linalg.norm rounds it."""
    h_eps = numdiff.DEFAULT_REL_STEP * cfg.R
    h_pi = numdiff.DEFAULT_REL_STEP * np.maximum(1.0, np.sqrt(_dot(x[..., 3:], x[..., 3:])))
    _check_stencil_margin(x[..., :3], h_eps, cfg, "bracket stencil would leave the chart")
    return np.where(np.arange(6) < 3, h_eps, np.expand_dims(h_pi, -1))


def _poisson_matrix(jac: np.ndarray) -> np.ndarray:
    """P[..., f, g] = {f, g} from gradients jac[..., f, :] over (eps, pi).

    P = A - A^T with A = J_eps J_pi^T, so P is exactly antisymmetric.
    """
    a = jac[..., :3] @ np.swapaxes(jac[..., 3:], -1, -2)
    return a - np.swapaxes(a, -1, -2)


def _bracket_matrix(x, rho_sign, cfg: SpaceConfig) -> np.ndarray:
    """Brackets P[..., f, g] = {f, g} of the seven basic functions at the rows x (..., 6).

    One 4th-order stencil gradient of all seven functions at all rows,
    the same differences as `poisson_bracket` takes of each function
    alone; rho_sign as in `_basis_values`.
    """
    return _poisson_matrix(numdiff.stencil_gradient(
        lambda y: _basis_values(y, cfg, rho_sign), x, _stencil_steps(x, cfg)))


def _jacobi_sums(x, rho_sign, cfg: SpaceConfig) -> np.ndarray:
    """S[..., f, g, k] = {f,{g,k}} + {g,{k,f}} + {k,{f,g}} at the rows x (..., 6).

    The inner matrix P is taken by complex step at the 24 points of each
    outer stencil, so its only error is rounding and the outer 4th-order
    difference does not amplify any inner truncation.  With the gradient
    of the functions themselves, also by complex step, that gives every
    outer bracket B[f, g, k] = {f, P_gk} at once.
    """
    def basis(y):
        return _basis_values(y, cfg, rho_sign)

    def flat_poisson_matrix(y):
        p = _poisson_matrix(numdiff.complex_step_gradient(basis, y))
        return p.reshape(p.shape[:-2] + (49,))

    h = _stencil_steps(x, cfg)
    dp = numdiff.stencil_gradient(flat_poisson_matrix, x, h).reshape(x.shape[:-1] + (7, 7, 6))
    jac = numdiff.complex_step_gradient(basis, x)
    b = (np.einsum("...fi,...gki->...fgk", jac[..., :3], dp[..., 3:])
         - np.einsum("...fi,...gki->...fgk", jac[..., 3:], dp[..., :3]))
    return b + np.moveaxis(b, -1, -3) + np.moveaxis(b, -3, -1)


def jacobi_residual(names: tuple[str, str, str], at: SolutionPoint,
                    cfg: SpaceConfig) -> float:
    """|{f,{g,h}} + {g,{h,f}} + {h,{f,g}}| for three basic functions at a point."""
    f, g, h = (_BASIS_NAMES.index(n) for n in names)
    return float(abs(_jacobi_sums(np.concatenate([at.eps0, at.pi0]), at.rho_sign, cfg)[f, g, h]))


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def verify_basic_algebra(sample_count: int, cfg: SpaceConfig, seed: int = 0,
                         jacobi_points: int = 0) -> dict:
    """Measure all five bracket families of the basic algebra at random points.

    Returns per-family worst-case residuals against the unit-mass table
    plus fitted coefficients for the two families whose mass dependence
    is measured rather than asserted: {theta_i, theta_j} = c eta theta_k
    with c = 2/(m R), and {theta_i, rho} = c' eps_i with c' = 1/(m R^2).
    Every family is read from one bracket tensor for all points, and the
    Jacobi identity of all 35 triples from one Jacobi tensor for all
    Jacobi points.
    """
    rng = Draws(seed)
    x = _sample_solution_points(rng, cfg, sample_count)
    brackets = _bracket_matrix(x, +1, cfg)
    e0 = x[:, :3]
    th0 = _basis_values(x, cfg, +1)[:, 3:6]
    r0 = _heights(e0, +1, cfg)

    eps_theta = (np.einsum("ijk,nk->nij", LEVI_CIVITA, e0) / cfg.R
                 + r0[:, None, None] * np.eye(3))
    upper = ([0, 0, 1], [1, 2, 2])  # the pairs i < j
    thth = brackets[:, 3:6, 3:6]
    thth_basis = np.einsum("ijk,nk->nij", LEVI_CIVITA, th0)[:, upper[0], upper[1]]
    thth_upper = thth[:, upper[0], upper[1]]
    thrho = brackets[:, 3:6, 6]
    thth_den = float(np.sum(thth_basis * thth_basis))
    thrho_den = float(np.sum(e0 * e0))
    coef_thth = float(np.sum(thth_upper * thth_basis)) / thth_den if thth_den else float("nan")
    coef_thrho = float(np.sum(thrho * e0)) / thrho_den if thrho_den else float("nan")

    report = {
        "samples": sample_count,
        "max_residual_eps_eps": _max_abs(brackets[:, :3, :3]),
        "max_residual_eps_theta_model": _max_abs(brackets[:, :3, 3:6] - eps_theta / cfg.m),
        "max_residual_eps_rho": _max_abs(brackets[:, :3, 6]),
        "max_residual_theta_antisymmetry": _max_abs(thth + np.swapaxes(thth, -1, -2)),
        "theta_theta_coefficient_measured": coef_thth,
        "theta_theta_coefficient_model": 2.0 / (cfg.m * cfg.R),
        "theta_theta_coefficient_nominal": 2.0 * cfg.m / cfg.R,
        "theta_rho_coefficient_measured": coef_thrho,
        "theta_rho_coefficient_model": 1.0 / (cfg.m * cfg.R * cfg.R),
        "theta_rho_coefficient_nominal": 1.0 / (cfg.R * cfg.R),
    }

    if jacobi_points > 0:
        triples = list(itertools.combinations(sorted(_BASIS_NAMES), 3))
        f, g, h = np.array([[_BASIS_NAMES.index(n) for n in tr] for tr in triples]).T
        rows = _sample_solution_points(rng, cfg, jacobi_points, 0.6)
        sums = _jacobi_sums(rows, +1, cfg)[:, f, g, h]
        report["jacobi_triples"] = len(triples)
        report["jacobi_points"] = jacobi_points
        report["max_jacobi_residual"] = _max_abs(sums)

    return report
