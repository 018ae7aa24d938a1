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
from .errors import DomainError, StencilError
from .geometry import (ChartCoords, LEVI_CIVITA, _heights, _metric, _metric_inverse,
                       _off_equator, canonical_one_form, dual_field, metric, metric_inverse,
                       rho, sample_chart_points)

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
    """Sampled geodesic run with per-sample conserved quantities."""

    times: np.ndarray
    states: list[PhaseState]
    energy: np.ndarray
    theta_right: np.ndarray
    theta_left: np.ndarray
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.states) != len(self.times):
            raise DomainError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise DomainError("times must be strictly increasing")


# ---------------------------------------------------------------------------
# embedding helpers

def _embed(state: PhaseState, cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lift a chart state to the embedded pair (X, V), |X| = R, X.V = 0.

    The fourth velocity component is v0 = -eps.vel / (R rho), which
    needs the chart interior.
    """
    c = state.point
    c.validate(cfg)
    r = _off_equator(rho(c, cfg))
    x = np.concatenate(([cfg.R * r], c.eps))
    v0 = -float(np.dot(c.eps, state.vel)) / (cfg.R * r)
    v = np.concatenate(([v0], state.vel))
    return x, v


def _project(x: np.ndarray, v: np.ndarray, cfg: SpaceConfig) -> PhaseState:
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


def geodesic_exact(init: PhaseState, t: float, cfg: SpaceConfig) -> PhaseState:
    """Closed-form geodesic flow, valid globally via the embedded great circle.

    In chart components this is eps(t) = eps0 cos(w t) + vel0 sin(w t)/w
    and vel(t) = vel0 cos(w t) - w eps0 sin(w t), with w the angular
    frequency above; the hemisphere sign is tracked by the embedding.
    """
    x0, v0 = _embed(init, cfg)
    w = float(np.linalg.norm(v0)) / cfg.R
    if w < _REST_OMEGA:
        return init
    c, s = math.cos(w * t), math.sin(w * t)
    x = x0 * c + (v0 / w) * s
    v = v0 * c - (w * x0) * s
    return _project(x, v, cfg)


def closed_form_chart(init: PhaseState, t: float, omega: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chart-form solution (eps, vel, acc) at time t for an explicit omega.

    Used by the residual oracle, which also probes wrong frequencies.
    """
    e0 = init.point.eps
    v0 = init.vel
    c, s = math.cos(omega * t), math.sin(omega * t)
    e = e0 * c + v0 * s / omega
    v = v0 * c - omega * e0 * s
    a = -(omega * omega) * e
    return e, v, a


def _christoffel_many(eps: np.ndarray, rho_sign, cfg: SpaceConfig, h: float) -> np.ndarray:
    """Christoffel symbols Gamma[n, j, k, l] at chart points eps (N, 3).

    dg comes from one stencil gradient of the metric at all points.
    """
    if np.any(np.linalg.norm(eps, axis=-1) + 2.0 * h > cfg.R * (1.0 - 1e-8)):
        raise StencilError("Christoffel stencil would leave the chart")
    sign = np.broadcast_to(rho_sign, eps.shape[:-1])[:, None, None]
    jac = numdiff.stencil_gradient(
        lambda y: _metric(y, sign, cfg).reshape(y.shape[:-1] + (9,)), eps, h)
    dg = np.moveaxis(jac.reshape(-1, 3, 3, 3), -1, 1)  # dg[n, k, i, j] = d g_ij / d x^k
    ginv = _metric_inverse(eps, cfg)
    gamma = 0.5 * np.einsum("njm,nkml->njkl", ginv, dg)
    gamma += 0.5 * np.einsum("njm,nlmk->njkl", ginv, dg)
    gamma -= 0.5 * np.einsum("njm,nmkl->njkl", ginv, dg)
    return gamma


def christoffel(c: ChartCoords, cfg: SpaceConfig, h: float | None = None) -> np.ndarray:
    """Christoffel symbols Gamma[j, k, l] from central differences of g."""
    if h is None:
        h = numdiff.DEFAULT_REL_STEP * cfg.R
    return _christoffel_many(c.eps[None], c.rho_sign, cfg, h)[0]


def geodesic_equation_residual(init: PhaseState, times, cfg: SpaceConfig,
                               omega: float | None = None) -> float:
    """Max norm of acc^j + Gamma^j_kl vel^k vel^l along the closed form.

    With the metric frequency the residual vanishes to stencil accuracy;
    probing a different omega quantifies how badly that frequency fails.
    """
    if omega is None:
        omega = angular_frequency(init, cfg)
    if omega == 0.0:
        return 0.0
    rows = [closed_form_chart(init, float(t), omega) for t in np.atleast_1d(times)]
    e, v, a = (np.array([row[i] for row in rows]).reshape(-1, 3) for i in range(3))
    gamma = _christoffel_many(e, +1, cfg, numdiff.DEFAULT_REL_STEP * cfg.R)
    res = a + np.einsum("njkl,nk,nl->nj", gamma, v, v)
    return float(np.max(np.abs(res), initial=0.0))


def geodesic_integrate(init: PhaseState, t_end: float, steps: int,
                       cfg: SpaceConfig) -> Trajectory:
    """Classic one-step 4th-order run of the embedded geodesic equation.

    The embedded acceleration is X'' = -(|V|^2/R^2) X; after every step
    the position is renormalized onto the sphere and the velocity is
    projected back onto the tangent plane.  Energy and both invariant
    triples are logged at every sample.
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

    R2 = cfg.R * cfg.R

    def accel(xx: np.ndarray, vv: np.ndarray) -> np.ndarray:
        return -(float(vv @ vv) / R2) * xx

    xs = np.empty((steps + 1, 4))
    vs = np.empty((steps + 1, 4))
    xs[0], vs[0] = x, v
    filled = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1x, k1v = v, accel(x, v)
            x2, v2 = x + 0.5 * dt * k1x, v + 0.5 * dt * k1v
            k2x, k2v = v2, accel(x2, v2)
            x3, v3 = x + 0.5 * dt * k2x, v + 0.5 * dt * k2v
            k3x, k3v = v3, accel(x3, v3)
            x4, v4 = x + dt * k3x, v + dt * k3v
            k4x, k4v = v4, accel(x4, v4)
            x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
                warnings.append(
                    f"integration diverged at step {k + 1}; trajectory truncated")
                break
            # Constraint maintenance: |X| = R and V tangent.
            x *= cfg.R / float(np.linalg.norm(x))
            v -= (float(x @ v) / R2) * x
            xs[filled], vs[filled] = x, v
            filled += 1

    xs, vs = xs[:filled], vs[:filled]
    th_r, th_l = _theta_from_embedding(xs, vs, cfg)
    energy = 0.5 * cfg.m * (vs[:, None, :] @ vs[:, :, None])[:, 0, 0]  # rounded as vv @ vv
    return Trajectory(np.arange(filled) * dt, [_project(a, b, cfg) for a, b in zip(xs, vs)],
                      energy, th_r, th_l, warnings)


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


def _basis_values(x, cfg: SpaceConfig, rho_sign: int) -> np.ndarray:
    """The seven basic functions eps1..3, theta1..3, rho at Darboux points.

    x holds (eps, pi) along its last axis, (..., 6) in and (..., 7) out,
    all on the hemisphere rho_sign.  theta = (rho pi + eps x pi / R) / m
    is Z pi / m with Z the right dual frame.  Only analytic operations
    are used, so a complex x gives complex-step derivatives; a real
    height is clamped at the chart boundary as geometry.rho does.
    """
    e0, e1, e2, p0, p1, p2 = np.moveaxis(np.asarray(x), -1, 0)
    height2 = 1.0 - (e0 * e0 + e1 * e1 + e2 * e2) / (cfg.R * cfg.R)
    if not np.iscomplexobj(height2):
        height2 = np.maximum(height2, 0.0)
    r = rho_sign * np.sqrt(height2)
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


def poisson_bracket(f, g, at: SolutionPoint, cfg: SpaceConfig,
                    h_eps: float | None = None, h_pi: float | None = None) -> float:
    """Canonical bracket {f, g} = df/deps . dg/dpi - df/dpi . dg/deps.

    f and g take (eps, pi) arrays and return scalars; all derivatives
    are 4th-order central differences taken at the solution point.
    """
    if h_eps is None:
        h_eps = numdiff.DEFAULT_REL_STEP * cfg.R
    if h_pi is None:
        h_pi = numdiff.DEFAULT_REL_STEP * max(1.0, float(np.linalg.norm(at.pi0)))
    e0 = at.eps0
    p0 = at.pi0
    if float(np.linalg.norm(e0)) + 2.0 * h_eps > cfg.R * (1.0 - 1e-8):
        raise StencilError("bracket stencil would leave the chart")

    def df(func):
        de = np.array([numdiff.partial(lambda x: func(x, p0), e0, i, h_eps)
                       for i in range(3)])
        dp = np.array([numdiff.partial(lambda y: func(e0, y), p0, i, h_pi)
                       for i in range(3)])
        return de, dp

    fe, fp = df(f)
    ge, gp = df(g)
    return float(fe @ gp - fp @ ge)


def _sample_solution_points(rng: np.random.Generator, cfg: SpaceConfig,
                            count: int, radius_fraction: float = 0.7) -> list[SolutionPoint]:
    pts = []
    for c in sample_chart_points(rng, cfg, count, radius_fraction,
                                 both_hemispheres=False):
        pi = cfg.m * rng.normal(size=3)
        th = theta_of_darboux(c.eps, pi, cfg, c.rho_sign)
        pts.append(SolutionPoint(c.eps, th, pi, c.rho_sign))
    return pts


def _stencil_steps(at: SolutionPoint, cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The point as one (eps, pi) array and the default steps of its stencils."""
    h_eps = numdiff.DEFAULT_REL_STEP * cfg.R
    h_pi = numdiff.DEFAULT_REL_STEP * max(1.0, float(np.linalg.norm(at.pi0)))
    if float(np.linalg.norm(at.eps0)) + 2.0 * h_eps > cfg.R * (1.0 - 1e-8):
        raise StencilError("bracket stencil would leave the chart")
    return np.concatenate([at.eps0, at.pi0]), np.array([h_eps] * 3 + [h_pi] * 3)


def _poisson_matrix(jac: np.ndarray) -> np.ndarray:
    """P[..., f, g] = {f, g} from gradients jac[..., f, :] over (eps, pi).

    P = A - A^T with A = J_eps J_pi^T, so P is exactly antisymmetric.
    """
    a = jac[..., :3] @ np.swapaxes(jac[..., 3:], -1, -2)
    return a - np.swapaxes(a, -1, -2)


def _bracket_matrix(at: SolutionPoint, cfg: SpaceConfig) -> np.ndarray:
    """Brackets P[f, g] = {f, g} of the seven basic functions at a point.

    One 4th-order stencil gradient of all seven functions, the same
    differences as `poisson_bracket` takes of each function alone.
    """
    x, h = _stencil_steps(at, cfg)
    return _poisson_matrix(numdiff.stencil_gradient(
        lambda y: _basis_values(y, cfg, at.rho_sign), x, h))


def _jacobi_sums(at: SolutionPoint, cfg: SpaceConfig) -> np.ndarray:
    """S[f, g, k] = {f,{g,k}} + {g,{k,f}} + {k,{f,g}} at a point.

    The inner matrix P is taken by complex step at the 24 points of the
    outer stencil, so its only error is rounding and the outer 4th-order
    difference does not amplify any inner truncation.  With the gradient
    of the functions themselves, also by complex step, that gives every
    outer bracket B[f, g, k] = {f, P_gk} at once.
    """
    x, h = _stencil_steps(at, cfg)

    def basis(y):
        return _basis_values(y, cfg, at.rho_sign)

    def flat_poisson_matrix(y):
        p = _poisson_matrix(numdiff.complex_step_gradient(basis, y))
        return p.reshape(p.shape[:-2] + (49,))

    dp = numdiff.stencil_gradient(flat_poisson_matrix, x, h).reshape(7, 7, 6)
    jac = numdiff.complex_step_gradient(basis, x)
    b = (np.einsum("fi,gki->fgk", jac[:, :3], dp[..., 3:])
         - np.einsum("fi,gki->fgk", jac[:, 3:], dp[..., :3]))
    return b + b.transpose(2, 0, 1) + b.transpose(1, 2, 0)


def jacobi_residual(names: tuple[str, str, str], at: SolutionPoint,
                    cfg: SpaceConfig) -> float:
    """|{f,{g,h}} + {g,{h,f}} + {h,{f,g}}| for three basic functions at a point."""
    f, g, h = (_BASIS_NAMES.index(n) for n in names)
    return float(abs(_jacobi_sums(at, cfg)[f, g, h]))


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def verify_basic_algebra(sample_count: int, cfg: SpaceConfig, seed: int = 0,
                         jacobi_points: int = 0) -> dict:
    """Measure all five bracket families of the basic algebra at random points.

    Returns per-family worst-case residuals against the unit-mass table
    plus fitted coefficients for the two families whose mass dependence
    is measured rather than asserted: {theta_i, theta_j} = c eta theta_k
    with c = 2/(m R), and {theta_i, rho} = c' eps_i with c' = 1/(m R^2).
    Every family is read from one bracket matrix per point, and the
    Jacobi identity of all 35 triples from one tensor per Jacobi point.
    Points go one at a time: one call on all points saved about 0.02 s
    but held about 0.7 MB more peak memory in temporaries.
    """
    rng = np.random.default_rng(seed)
    pts = _sample_solution_points(rng, cfg, sample_count)
    brackets = np.array([_bracket_matrix(sp, cfg) for sp in pts]).reshape(-1, 7, 7)
    e0 = np.array([sp.eps0 for sp in pts]).reshape(-1, 3)
    th0 = np.array([sp.theta0 for sp in pts]).reshape(-1, 3)
    r0 = _heights(e0, np.array([sp.rho_sign for sp in pts], dtype=int), cfg)

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
        sums = np.array([_jacobi_sums(sp, cfg)[f, g, h]
                         for sp in _sample_solution_points(rng, cfg, jacobi_points, 0.6)])
        report["jacobi_triples"] = len(triples)
        report["jacobi_points"] = jacobi_points
        report["max_jacobi_residual"] = _max_abs(sums)

    return report
