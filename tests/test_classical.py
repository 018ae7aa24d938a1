import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from s3sigma import (ChartCoords, DomainError, PhaseState, SpaceConfig, StencilError,
                     dual_field, geodesic_exact, geodesic_integrate,
                     hamiltonian, hj_inverse, hj_transform, lagrangian,
                     momentum, poisson_bracket, verify_basic_algebra)
from s3sigma import classical, suite
from s3sigma.classical import (_BASIS_NAMES, SolutionPoint, _bracket_matrix,
                               _christoffel_many, _embed, _jacobi_sums, _sample_solution_points,
                               angular_frequency, closed_form_chart,
                               geodesic_equation_residual, invariant_velocities,
                               jacobi_residual, theta_of_darboux)
from s3sigma.geometry import (LEVI_CIVITA, _heights, canonical_one_form, rho,
                              sample_chart_arrays)
from s3sigma.reports import DEFAULT_TOLERANCES
from s3sigma.sampling import Draws


def state(eps, vel, sign=+1):
    return PhaseState(ChartCoords(np.asarray(eps, dtype=float), sign),
                      np.asarray(vel, dtype=float))


# ---------------------------------------------------------------------------
# energy functions

def test_lagrangian_zero_velocity(cfg):
    assert lagrangian(state([0.3, 0, 0.1], [0, 0, 0]), cfg) == 0.0


def test_lagrangian_at_origin(cfg_odd):
    v = np.array([0.4, -0.2, 0.9])
    expected = 0.5 * cfg_odd.m * float(v @ v)
    assert lagrangian(state([0, 0, 0], v), cfg_odd) == pytest.approx(expected)


def test_lagrangian_equals_hamiltonian(cfg_odd, rng):
    for e, sign in zip(*sample_chart_arrays(rng, cfg_odd, 20, 0.8)):
        s = PhaseState(ChartCoords(e, int(sign)), rng.normal(size=3))
        assert lagrangian(s, cfg_odd) == pytest.approx(hamiltonian(s, cfg_odd),
                                                       rel=1e-12)


def test_hamiltonian_three_routes_agree(cfg_odd, rng):
    for e, sign in zip(*sample_chart_arrays(rng, cfg_odd, 30, 0.8)):
        s = PhaseState(ChartCoords(e, int(sign)), rng.normal(size=3))
        h_v = hamiltonian(s, cfg_odd, "velocity")
        h_p = hamiltonian(s, cfg_odd, "momentum")
        h_f = hamiltonian(s, cfg_odd, "frame")
        assert h_p == pytest.approx(h_v, rel=1e-12)
        assert h_f == pytest.approx(h_v, rel=1e-12)


def test_rest_state_energy_momentum(cfg):
    s = state([0.2, -0.1, 0.3], [0, 0, 0])
    assert hamiltonian(s, cfg) == 0.0
    np.testing.assert_array_equal(momentum(s, cfg), np.zeros(3))


def test_hamiltonian_transverse_velocity(cfg):
    # at eps = (R/2, 0, 0) the 22-component of the metric is exactly 1
    v = 0.83
    s = state([cfg.R / 2, 0, 0], [0, v, 0])
    assert hamiltonian(s, cfg) == pytest.approx(0.5 * cfg.m * v * v, rel=1e-14)


# ---------------------------------------------------------------------------
# geodesics

def test_geodesic_exact_t0_is_identity(cfg):
    s = state([0.1, 0.2, -0.3], [0.5, 0.1, 0.2])
    out = geodesic_exact(s, 0.0, cfg)
    np.testing.assert_allclose(out.point.eps, s.point.eps, atol=1e-15)
    np.testing.assert_allclose(out.vel, s.vel, atol=1e-15)


def test_geodesic_rest_state_fixed(cfg):
    s = state([0.4, 0, 0], [0, 0, 0])
    out = geodesic_exact(s, 17.3, cfg)
    np.testing.assert_array_equal(out.point.eps, s.point.eps)
    np.testing.assert_array_equal(out.vel, s.vel)


def test_geodesic_equation_residual_small(cfg_odd):
    # plug the closed form into the Euler-Lagrange oracle over one period
    init = state([0.2, -0.1, 0.15], [0.3, 0.8, -0.2])
    w = angular_frequency(init, cfg_odd)
    t = np.arange(173) * (2 * math.pi / (173 * w))
    e, _, _ = closed_form_chart(init, t, w)
    times = t[_heights(e, 1, cfg_odd) > 0.35]
    assert len(times) >= 50
    assert geodesic_equation_residual(init, times, cfg_odd, omega=w) < 1e-7


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 3.0), st.floats(0.5, 1.0), st.lists(st.floats(-0.99, 0.99), min_size=3, max_size=3),
       st.sampled_from([-1, 1]), st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       st.floats(0.1, 1.5))
# The worst of 1,500 random draws from this domain: 1.10e-8, at a height
# near 0.01, 3.4e-9 of omega^2 R.
@example(0.5872859737427145, 0.919769540473229,
         [-0.724959846351557, -0.16721381669670277, -0.6332066587704592], -1,
         [0.36853354549878237, -0.21891594619400045, -0.35472942198003743], 1.3843596177365889)
def test_geodesic_equation_holds_down_to_height_0_01(R, m, unit, sign, direction, speed):
    # Criterion 8 at its tolerance on every great circle: starts up to 0.99 R
    # on both hemispheres, with embedded speed omega R = speed, the closed
    # form sampled every period / 600 wherever the height |rho| >= 0.01.
    # Nearer the equator rho^2 = 1 - |eps|^2 / R^2 loses the digits (README).
    cfg = SpaceConfig(R, m)
    u, norm = np.array(unit), np.linalg.norm(unit)
    if norm > 0.99:
        u *= 0.99 / norm
    w = angular_frequency(state(R * u, direction, sign), cfg)
    assume(w > 0.0)
    init = state(R * u, np.array(direction) * speed / (w * R), sign)
    w = angular_frequency(init, cfg)
    t = np.arange(600) * (2.0 * math.pi / (600 * w))
    eps, _, _ = closed_form_chart(init, t, w)
    height2 = 1.0 - np.sum(eps ** 2, axis=1) / R ** 2
    residual = geodesic_equation_residual(init, t[height2 >= 1e-4], cfg, omega=w)
    assert residual < DEFAULT_TOLERANCES["geodesic_residual"]


def test_wrong_frequency_fails_geodesic_equation(cfg):
    # the doubled (energy-form) frequency misses by a factor-2 rate error
    init = state([0.2, 0.0, 0.1], [0.1, 0.7, -0.3])
    w = angular_frequency(init, cfg)
    h = hamiltonian(init, cfg)
    w_alt = math.sqrt(8.0 * h / (cfg.m * cfg.R ** 2))
    assert w_alt == pytest.approx(2.0 * w, rel=1e-12)
    res = geodesic_equation_residual(init, [0.0], cfg, omega=w_alt)
    assert res > 1e-2


def _c8_per_time_reference(rc, sample_times):
    """Criterion 8 as a loop over candidate times: the scalar closed form at
    t = 0, then t += period / 211, kept while |eps| < max_norm and rho > 0.35,
    and the residual from one row per kept time.  Returns (times, residual)
    for the metric and the energy-form frequency."""
    cfg = rc.space()
    rng = Draws(rc.seed, 8)
    eps0 = rng.standard_normal(3)
    eps0 *= 0.25 * cfg.R / math.sqrt(sum(eps0 * eps0))
    init = PhaseState(ChartCoords(eps0, +1), rng.standard_normal(3))
    w = angular_frequency(init, cfg)
    period = 2.0 * math.pi / w

    def chart(t, omega):
        c, s = math.cos(omega * t), math.sin(omega * t)
        e = init.point.eps * c + init.vel * s / omega
        v = init.vel * c - omega * init.point.eps * s
        return e, v, -(omega * omega) * e

    def residual_at(omega, max_norm):
        times = []
        t = 0.0
        while len(times) < sample_times:
            e, _, _ = chart(t, omega)
            if math.sqrt(sum(e * e)) < max_norm and _heights(e, 1, cfg) > 0.35:
                times.append(t)
            t += period / 211.0
        rows = [chart(t, omega) for t in times]
        e, v, a = (np.array([row[i] for row in rows]) for i in range(3))
        res = a + np.einsum("njkl,nk,nl->nj", _christoffel_many(e, +1, cfg), v, v)
        return times, float(np.max(np.abs(res), initial=0.0))

    w_energy_form = math.sqrt(8.0 * hamiltonian(init, cfg) / (cfg.m * cfg.R * cfg.R))
    return residual_at(w, math.inf), residual_at(w_energy_form, 0.9 * cfg.R)


@pytest.mark.parametrize("sample_times", [50, 200])
@pytest.mark.parametrize("R,m", [(1.0, 1.0), (1.3, 0.7), (0.5, 0.5), (3.0, 1.0)])
def test_c8_matches_the_per_time_loop_bit_for_bit(monkeypatch, R, m, sample_times):
    # 200 samples need more than one period of candidates at the metric frequency
    seen = []
    residual = classical.geodesic_equation_residual

    def recorded(init, times, cfg, omega=None):
        seen.append(np.array(times))
        return residual(init, times, cfg, omega=omega)

    monkeypatch.setattr(classical, "geodesic_equation_residual", recorded)
    for seed in range(5):
        rc = suite.RunConfig(R=R, m=m, seed=seed)
        seen.clear()
        details = suite.check_closed_form(rc, sample_times=sample_times).details
        (times, res), (times_alt, res_alt) = _c8_per_time_reference(rc, sample_times)
        np.testing.assert_array_equal(seen[0], times)
        np.testing.assert_array_equal(seen[1], times_alt)
        assert details["residual_metric_frequency"] == res
        assert details["residual_energy_form_frequency"] == res_alt


def test_c8_makes_no_per_sample_calls(monkeypatch):
    # the closed form at all candidate times in one call per frequency, and
    # again at the kept times for the residual; one Christoffel call each
    calls = {}

    def count(module, name):
        fn = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(classical, "closed_form_chart")
    count(classical, "_christoffel_many")
    count(suite, "_heights")
    assert suite.check_closed_form(suite.RunConfig(R=1.3, m=0.7, seed=5)).passed
    assert calls == {"closed_form_chart": 4, "_christoffel_many": 2, "_heights": 2}


def test_geodesic_period_closure(cfg_odd):
    init = state([0.25, 0.1, -0.2], [0.4, -0.7, 0.3])
    w = angular_frequency(init, cfg_odd)
    out = geodesic_exact(init, 2 * math.pi / w, cfg_odd)
    np.testing.assert_allclose(out.point.eps, init.point.eps, atol=1e-9)
    np.testing.assert_allclose(out.vel, init.vel, atol=1e-9)


def test_integrator_matches_closed_form(cfg):
    init = state([0.2, 0.0, 0.0], [0.0, 1.0, 0.0])
    w = angular_frequency(init, cfg)
    t_end = 20.0 / w
    traj = geodesic_integrate(init, t_end, 2000, cfg)
    exact = geodesic_exact(init, t_end, cfg)
    got = traj.state(-1)
    assert np.max(np.abs(got.point.eps - exact.point.eps)) < 1e-8 * cfg.R
    assert np.max(np.abs(got.vel - exact.vel)) < 1e-8


def test_integrator_conserves_energy_and_frames(cfg_odd):
    init = state([0.3, -0.1, 0.2], [0.5, 1.0, -0.2])
    w = angular_frequency(init, cfg_odd)
    traj = geodesic_integrate(init, 20.0 / w, 2000, cfg_odd)
    h0 = traj.energy[0]
    assert np.max(np.abs(traj.energy - h0)) / h0 < 1e-8
    assert np.max(np.abs(traj.theta_right - traj.theta_right[0])) < 1e-8
    assert np.max(np.abs(traj.theta_left - traj.theta_left[0])) < 1e-8
    assert traj.warnings == []


def test_integrator_requires_min_steps(cfg):
    with pytest.raises(DomainError):
        geodesic_integrate(state([0.1, 0, 0], [0, 1, 0]), 1.0, 5, cfg)


def test_integrator_coarse_step_warns(cfg):
    init = state([0.1, 0, 0], [0, 1, 0])
    traj = geodesic_integrate(init, 50.0, 10, cfg)
    assert any("omega*dt" in w for w in traj.warnings)


def test_integrator_truncates_diverged_run(cfg):
    traj = geodesic_integrate(state([0.1, 0, 0], [0, 1, 0]), 2000.0, 200, cfg)
    assert len(traj.times) == 2
    assert len(traj.warnings) == 2
    assert traj.warnings[0].startswith("step too coarse")
    assert traj.warnings[1] == "integration diverged at step 2; trajectory truncated"


def _numpy_rk4_reference(init, t_end, steps, cfg):
    """The run of geodesic_integrate as one numpy RK4 step of 4-vectors per
    row, cut before the first non-finite row: (x, v, warnings)."""
    x, v = _embed(init, cfg)
    dt = t_end / steps
    w = float(np.linalg.norm(v)) / cfg.R
    warnings = []
    if w * abs(dt) > 0.5:
        warnings.append(f"step too coarse: omega*dt = {w * abs(dt):.3g} > 0.5, expect "
                        "degraded accuracy")
    R2 = cfg.R * cfg.R

    def accel(xx, vv):
        return -(float(vv @ vv) / R2) * xx

    xs = np.empty((steps + 1, 4))
    vs = np.empty((steps + 1, 4))
    xs[0], vs[0] = x, v
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            k1x, k1v = v, accel(x, v)
            x2, v2 = x + 0.5 * dt * k1x, v + 0.5 * dt * k1v
            k2x, k2v = v2, accel(x2, v2)
            x3, v3 = x + 0.5 * dt * k2x, v + 0.5 * dt * k2v
            k3x, k3v = v3, accel(x3, v3)
            x4, v4 = x + dt * k3x, v + dt * k3v
            k4x, k4v = v4, accel(x4, v4)
            x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            x *= cfg.R / float(np.linalg.norm(x))
            v -= (float(x @ v) / R2) * x
            xs[k], vs[k] = x, v
    finite = np.isfinite(np.hstack((xs, vs))).all(axis=1)
    filled = int(np.argmin(finite)) if not finite.all() else steps + 1
    if filled <= steps:
        warnings.append(f"integration diverged at step {filled}; trajectory truncated")
    return xs[:filled], vs[:filled], warnings


@pytest.mark.parametrize("fixture, eps, vel", [
    ("cfg", [0.2, 0.0, 0.0], [0.0, 1.0, 0.0]),
    ("cfg_odd", [0.3, -0.1, 0.2], [0.5, 1.0, -0.2]),
])
def test_scalar_stepper_matches_numpy_reference(request, fixture, eps, vel):
    cfg = request.getfixturevalue(fixture)
    init = state(eps, vel)
    t_end = 20.0 / angular_frequency(init, cfg)
    traj = geodesic_integrate(init, t_end, 2000, cfg)
    xs, vs, warnings = _numpy_rk4_reference(init, t_end, 2000, cfg)
    assert traj.x.shape == xs.shape == (2001, 4) and traj.warnings == warnings == []
    assert np.max(np.abs(traj.x - xs)) / cfg.R < 1e-12
    assert np.max(np.abs(traj.v - vs)) < 1e-12


@pytest.mark.parametrize("t_end, steps", [(50.0, 10), (2000.0, 200)])
def test_scalar_stepper_warns_and_truncates_as_numpy_reference(cfg, t_end, steps):
    # the coarse-step and the diverging runs above
    init = state([0.1, 0, 0], [0, 1, 0])
    traj = geodesic_integrate(init, t_end, steps, cfg)
    xs, vs, warnings = _numpy_rk4_reference(init, t_end, steps, cfg)
    assert traj.warnings == warnings
    assert len(traj.times) == len(traj.x) == len(xs)
    assert np.max(np.abs(traj.x - xs)) / cfg.R < 1e-12
    assert np.max(np.abs(traj.v - vs)) < 1e-12 * np.max(np.abs(vs))


def test_trajectory_validation(cfg):
    from s3sigma import Trajectory
    x = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    v = np.tile([0.0, 0.0, 1.0, 0.0], (3, 1))
    with pytest.raises(DomainError):
        Trajectory(np.array([0.0, 1.0, 0.5]), x, v, np.zeros(3),
                   np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(DomainError):
        Trajectory(np.array([0.0, 1.0]), x[:1], v[:1], np.zeros(2),
                   np.zeros((2, 3)), np.zeros((2, 3)))


def test_trajectory_invariant_log_matches_frames(cfg):
    init = state([0.15, 0.05, 0.0], [0.2, 0.9, -0.4])
    traj = geodesic_integrate(init, 1.0, 50, cfg)
    th_r, th_l = invariant_velocities(traj.state(7), cfg)
    np.testing.assert_allclose(traj.theta_right[7], th_r, atol=1e-10)
    np.testing.assert_allclose(traj.theta_left[7], th_l, atol=1e-10)


# ---------------------------------------------------------------------------
# solution manifold

def test_hj_at_t0_is_identity(cfg):
    s = state([0.25, -0.3, 0.1], [0.7, 0.4, -0.6])
    sp = hj_transform(s, 0.0, cfg)
    th_r, _ = invariant_velocities(s, cfg)
    np.testing.assert_allclose(sp.eps0, s.point.eps, atol=1e-15)
    np.testing.assert_allclose(sp.theta0, th_r, atol=1e-15)


def test_hj_round_trip(cfg_odd):
    init = state([0.25, -0.3, 0.1], [0.7, 0.4, -0.6])
    for t in (0.37, 2.54, -1.9):
        s = geodesic_exact(init, t, cfg_odd)
        back = hj_inverse(hj_transform(s, t, cfg_odd), t, cfg_odd)
        assert np.max(np.abs(back.point.eps - s.point.eps)) < 1e-10
        assert np.max(np.abs(back.vel - s.vel)) < 1e-10


def test_hj_flow_property(cfg):
    init = state([0.2, 0.1, -0.15], [0.3, -0.8, 0.5])
    t1, t2 = 0.9, 1.64
    s12 = geodesic_exact(init, t1 + t2, cfg)
    a = hj_transform(s12, t1 + t2, cfg)
    b = hj_transform(geodesic_exact(s12, -t1, cfg), t2, cfg)
    for field in ("eps0", "theta0", "pi0"):
        np.testing.assert_allclose(getattr(a, field), getattr(b, field),
                                   atol=1e-12)


def test_darboux_momentum_matches_canonical(cfg_odd):
    init = state([0.2, -0.25, 0.05], [0.4, 0.3, -0.9])
    sp = hj_transform(geodesic_exact(init, 1.7, cfg_odd), 1.7, cfg_odd)
    np.testing.assert_allclose(sp.pi0, momentum(init, cfg_odd), atol=1e-10)
    # Darboux pairing: pi = m T^T theta with T the right one-form frame
    T = canonical_one_form(ChartCoords(sp.eps0, sp.rho_sign), "right", cfg_odd)
    np.testing.assert_allclose(sp.pi0, cfg_odd.m * T.T @ sp.theta0, atol=1e-10)


# ---------------------------------------------------------------------------
# Poisson brackets

def _basis(cfg, sp):
    funcs = {}
    for i in range(3):
        funcs[f"eps{i + 1}"] = (lambda i=i: lambda e, p: float(e[i]))()
        funcs[f"theta{i + 1}"] = (lambda i=i: lambda e, p: float(
            theta_of_darboux(e, p, cfg, sp.rho_sign)[i]))()
    funcs["rho"] = lambda e, p: rho(ChartCoords(e, sp.rho_sign), cfg)
    funcs["one"] = lambda e, p: 1.0
    return funcs


def _solution_points(rows, cfg, sign=+1):
    """SolutionPoints of Darboux rows (eps, pi), with theta from theta_of_darboux."""
    return [SolutionPoint(r[:3], theta_of_darboux(r[:3], r[3:], cfg, sign), r[3:], sign)
            for r in rows]


def test_position_brackets_vanish(cfg, rng):
    sp, = _solution_points(_sample_solution_points(rng, cfg, 1), cfg)
    f = _basis(cfg, sp)
    assert abs(poisson_bracket(f["eps1"], f["eps2"], sp, cfg)) < 1e-10
    assert abs(poisson_bracket(f["eps1"], f["rho"], sp, cfg)) < 1e-10


def test_eps_theta_bracket_display(cfg, rng):
    # unit mass: {eps^i, theta_j} = eta^i_{jk} eps^k / R + rho delta^i_j
    for sp in _solution_points(_sample_solution_points(rng, cfg, 10), cfg):
        f = _basis(cfg, sp)
        r0 = rho(ChartCoords(sp.eps0, sp.rho_sign), cfg)
        for i in range(3):
            for j in range(3):
                b = poisson_bracket(f[f"eps{i+1}"], f[f"theta{j+1}"], sp, cfg)
                expected = float(LEVI_CIVITA[i, j] @ sp.eps0) / cfg.R
                if i == j:
                    expected += r0
                assert b == pytest.approx(expected, abs=1e-7)


def test_bracket_stencil_error_near_boundary(cfg):
    sp = SolutionPoint(np.array([cfg.R * (1 - 1e-9), 0, 0]),
                       np.zeros(3), np.zeros(3))
    with pytest.raises(StencilError):
        poisson_bracket(lambda e, p: e[0], lambda e, p: p[0], sp, cfg)


def test_verify_basic_algebra_unit_mass(cfg):
    rep = verify_basic_algebra(25, cfg, seed=3)
    assert rep["max_residual_eps_eps"] < 1e-7
    assert rep["max_residual_eps_rho"] < 1e-7
    assert rep["max_residual_eps_theta_model"] < 1e-7
    assert rep["max_residual_theta_antisymmetry"] < 1e-12
    assert rep["theta_theta_coefficient_measured"] == pytest.approx(
        2.0 / cfg.R, abs=1e-7)
    assert rep["theta_rho_coefficient_measured"] == pytest.approx(
        1.0 / cfg.R ** 2, abs=1e-7)


def test_verify_basic_algebra_general_mass_measures_model(cfg_odd):
    # the tabulated coefficients hold at unit mass; the measured general
    # mass values follow 2/(mR) and 1/(m R^2)
    rep = verify_basic_algebra(15, cfg_odd, seed=5)
    assert rep["theta_theta_coefficient_measured"] == pytest.approx(
        2.0 / (cfg_odd.m * cfg_odd.R), abs=1e-6)
    assert rep["theta_rho_coefficient_measured"] == pytest.approx(
        1.0 / (cfg_odd.m * cfg_odd.R ** 2), abs=1e-6)
    assert rep["theta_theta_coefficient_nominal"] == pytest.approx(
        2.0 * cfg_odd.m / cfg_odd.R)


def test_jacobi_identity_sample(cfg, rng):
    sp, = _solution_points(_sample_solution_points(rng, cfg, 1, 0.6), cfg)
    for triple in (("eps1", "theta2", "theta3"), ("theta1", "theta2", "rho"),
                   ("eps1", "eps2", "theta3")):
        assert jacobi_residual(triple, sp, cfg) < 1e-6


def test_bracket_matrix_matches_scalar_brackets_on_both_hemispheres(cfg_odd, rng):
    # the batched matrix against the scalar bracket of closures that build
    # theta from geometry.dual_field, not from the batched kernel
    def reference_basis(sign):
        def theta(j):
            return lambda e, p: float(
                dual_field(ChartCoords(e, sign), "right", cfg_odd)[j] @ p) / cfg_odd.m
        funcs = {f"eps{i + 1}": (lambda i=i: lambda e, p: float(e[i]))() for i in range(3)}
        funcs.update({f"theta{j + 1}": theta(j) for j in range(3)})
        funcs["rho"] = lambda e, p: rho(ChartCoords(e, sign), cfg_odd)
        return funcs

    rows, signs = [], np.array([+1, -1, +1, -1])
    for _ in signs:
        eps = 0.6 * cfg_odd.R * rng.uniform(-1.0, 1.0, size=3) / math.sqrt(3.0)
        rows.append(np.concatenate([eps, cfg_odd.m * rng.normal(size=3)]))
    for row, sign, mat in zip(rows, signs, _bracket_matrix(np.array(rows), signs, cfg_odd)):
        assert np.array_equal(mat, -mat.T)
        sp, = _solution_points([row], cfg_odd, sign)
        funcs = reference_basis(sign)
        want = np.array([[poisson_bracket(funcs[a], funcs[b], sp, cfg_odd)
                          for b in _BASIS_NAMES] for a in _BASIS_NAMES])
        np.testing.assert_allclose(mat, want, rtol=0.0, atol=1e-10)


def test_jacobi_identity_at_small_radius_and_mass():
    rep = verify_basic_algebra(1, SpaceConfig(0.5, 0.5), seed=1, jacobi_points=3)
    assert rep["jacobi_triples"] == 35
    assert rep["max_jacobi_residual"] < 1e-8


def test_check_poisson_passes_at_seed_210():
    res = suite.check_poisson(suite.RunConfig(seed=210), samples=100, jacobi_points=10)
    assert res.passed, res.details
    assert res.details["max_jacobi_residual"] < 1e-8


def test_brackets_close_on_span(cfg, rng):
    # every pairwise bracket of the 7 functions stays in their linear span
    pts = _solution_points(_sample_solution_points(rng, cfg, 12, 0.6), cfg)
    names = ["eps1", "eps2", "eps3", "theta1", "theta2", "theta3", "rho"]
    design = []
    for sp in pts:
        f = _basis(cfg, sp)
        design.append([f[n](sp.eps0, sp.pi0) for n in names] + [1.0])
    design = np.array(design)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            vals = []
            for sp in pts:
                f = _basis(cfg, sp)
                vals.append(poisson_bracket(f[names[a]], f[names[b]], sp, cfg))
            vals = np.array(vals)
            coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
            assert np.max(np.abs(design @ coef - vals)) < 1e-6


@pytest.mark.parametrize("R,m", [(1.3, 0.7), (0.5, 0.5)])
def test_batched_bracket_and_jacobi_tensors_equal_single_rows(R, m, rng):
    # both hemispheres, |eps| up to 0.95 R: one call on all rows gives each
    # row the bits of its own N = 1 call
    cfg = SpaceConfig(R, m)
    eps, signs = sample_chart_arrays(rng, cfg, 20, 0.95)
    x = np.hstack([eps, m * rng.normal(size=(20, 3))])
    x[0, :3] *= 0.95 * R / np.linalg.norm(x[0, :3])
    assert set(signs.tolist()) == {-1, 1}
    for kernel in (_bracket_matrix, _jacobi_sums):
        singles = np.array([kernel(row, sign, cfg) for row, sign in zip(x, signs)])
        assert np.array_equal(kernel(x, signs, cfg), singles)


def _closed_form_brackets(eps, pi, sign, cfg):
    """The basic algebra's table {f, g} at one Darboux row, theta from geometry's frame.

    {eps, eps} = {eps, rho} = 0, {eps_i, theta_j} = (eta_ijk eps_k / R +
    rho delta_ij) / m, {theta_i, theta_j} = 2 eta_ijk theta_k / (m R) and
    {theta_i, rho} = eps_i / (m R^2).
    """
    c = ChartCoords(eps, sign)
    theta = dual_field(c, "right", cfg) @ pi / cfg.m
    upper = np.zeros((7, 7))
    upper[:3, 3:6] = (LEVI_CIVITA @ eps / cfg.R + rho(c, cfg) * np.eye(3)) / cfg.m
    upper[3:6, 6] = eps / (cfg.m * cfg.R ** 2)
    table = upper - upper.T
    table[3:6, 3:6] = 2.0 * (LEVI_CIVITA @ theta) / (cfg.m * cfg.R)
    return table


#: (eps / R, hemisphere, pi / m) of one Darboux row; an eps / R from the
#: cube outside the ball |eps| <= 0.99 R is moved onto its boundary.
_DARBOUX_ROW = st.tuples(st.lists(st.floats(-0.99, 0.99), min_size=3, max_size=3),
                         st.sampled_from([-1, 1]),
                         st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 3.0), st.floats(0.5, 1.0), st.lists(_DARBOUX_ROW, min_size=1, max_size=4))
# The worst rows of a sweep over seeds 0-4, (R, m) in {0.5, 1, 1.3, 3} x
# {0.5, 0.7, 1}, 100 bracket and 10 Jacobi rows per seed drawn as
# verify_basic_algebra draws them but on both hemispheres up to 0.99 R:
# bracket row 98 of seed 2 (4.8e-10 off the table) and Jacobi row 6 of
# seed 0 (3.96e-9), both at R = m = 0.5, where they are rebuilt bit for bit.
@example(0.5, 0.5, [
    ([-0.6428908931455245, 0.6366371961093628, -0.39986236802370456], -1,
     [-2.173997513558657, 0.8869023691567502, -1.6767091476623874]),
    ([-0.5423560967896492, 0.39242409505032444, -0.72724113923162], 1,
     [1.7134908885015603, -0.6323390096507158, 0.5205964182011031])])
def test_basic_algebra_holds_on_the_whole_chart_ball(R, m, rows):
    # both hemispheres up to 0.99 R: the five families against their table
    # at the criterion 6 tolerance, and every Jacobi sum at its tolerance
    cfg = SpaceConfig(R, m)
    x, signs = [], []
    for unit, sign, momentum in rows:
        u, norm = np.array(unit), np.linalg.norm(unit)
        if norm > 0.99:
            u *= 0.99 / norm
        x.append(np.concatenate([R * u, m * np.array(momentum)]))
        signs.append(sign)
    x, signs = np.array(x), np.array(signs)
    for row, sign, got in zip(x, signs, _bracket_matrix(x, signs, cfg)):
        want = _closed_form_brackets(row[:3], row[3:], sign, cfg)
        assert np.max(np.abs(got - want)) < DEFAULT_TOLERANCES["poisson"]
    assert np.max(np.abs(_jacobi_sums(x, signs, cfg))) < DEFAULT_TOLERANCES["jacobi"]
