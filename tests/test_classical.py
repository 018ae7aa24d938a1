import math

import numpy as np
import pytest

from s3sigma import (ChartCoords, DomainError, PhaseState, SpaceConfig, StencilError,
                     dual_field, geodesic_exact, geodesic_integrate,
                     hamiltonian, hj_inverse, hj_transform, lagrangian,
                     momentum, poisson_bracket, verify_basic_algebra)
from s3sigma import suite
from s3sigma.classical import (_BASIS_NAMES, SolutionPoint, _bracket_matrix,
                               _sample_solution_points,
                               angular_frequency, geodesic_equation_residual,
                               invariant_velocities, jacobi_residual,
                               theta_of_darboux)
from s3sigma.geometry import LEVI_CIVITA, canonical_one_form, rho, sample_chart_points


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
    for c in sample_chart_points(rng, cfg_odd, 20, 0.8):
        s = PhaseState(c, rng.normal(size=3))
        assert lagrangian(s, cfg_odd) == pytest.approx(hamiltonian(s, cfg_odd),
                                                       rel=1e-12)


def test_hamiltonian_three_routes_agree(cfg_odd, rng):
    for c in sample_chart_points(rng, cfg_odd, 30, 0.8):
        s = PhaseState(c, rng.normal(size=3))
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
    period = 2 * math.pi / w
    times = []
    t = 0.0
    while len(times) < 50:
        e, _, _ = __import__("s3sigma.classical", fromlist=["closed_form_chart"]). \
            closed_form_chart(init, t, w)
        if rho(ChartCoords(e, +1), cfg_odd) > 0.35:
            times.append(t)
        t += period / 173.0
    assert geodesic_equation_residual(init, times, cfg_odd, omega=w) < 1e-7


def test_wrong_frequency_fails_geodesic_equation(cfg):
    # the doubled (energy-form) frequency misses by a factor-2 rate error
    init = state([0.2, 0.0, 0.1], [0.1, 0.7, -0.3])
    w = angular_frequency(init, cfg)
    h = hamiltonian(init, cfg)
    w_alt = math.sqrt(8.0 * h / (cfg.m * cfg.R ** 2))
    assert w_alt == pytest.approx(2.0 * w, rel=1e-12)
    res = geodesic_equation_residual(init, [0.0], cfg, omega=w_alt)
    assert res > 1e-2


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
    got = traj.states[-1]
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


def test_trajectory_validation(cfg):
    from s3sigma import Trajectory
    s = state([0.1, 0, 0], [0, 1, 0])
    with pytest.raises(DomainError):
        Trajectory(np.array([0.0, 1.0, 0.5]), [s, s, s], np.zeros(3),
                   np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(DomainError):
        Trajectory(np.array([0.0, 1.0]), [s], np.zeros(2),
                   np.zeros((2, 3)), np.zeros((2, 3)))


def test_trajectory_invariant_log_matches_frames(cfg):
    init = state([0.15, 0.05, 0.0], [0.2, 0.9, -0.4])
    traj = geodesic_integrate(init, 1.0, 50, cfg)
    th_r, th_l = invariant_velocities(traj.states[7], cfg)
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


def test_position_brackets_vanish(cfg, rng):
    sp = _sample_solution_points(rng, cfg, 1)[0]
    f = _basis(cfg, sp)
    assert abs(poisson_bracket(f["eps1"], f["eps2"], sp, cfg)) < 1e-10
    assert abs(poisson_bracket(f["eps1"], f["rho"], sp, cfg)) < 1e-10


def test_eps_theta_bracket_display(cfg, rng):
    # unit mass: {eps^i, theta_j} = eta^i_{jk} eps^k / R + rho delta^i_j
    for sp in _sample_solution_points(rng, cfg, 10):
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
    sp = _sample_solution_points(rng, cfg, 1, 0.6)[0]
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

    pts = []
    for sign in (+1, -1, +1, -1):
        eps = 0.6 * cfg_odd.R * rng.uniform(-1.0, 1.0, size=3) / math.sqrt(3.0)
        pi = cfg_odd.m * rng.normal(size=3)
        pts.append(SolutionPoint(eps, theta_of_darboux(eps, pi, cfg_odd, sign), pi, sign))
    for sp in pts:
        mat = _bracket_matrix(sp, cfg_odd)
        assert np.array_equal(mat, -mat.T)
        funcs = reference_basis(sp.rho_sign)
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
    pts = _sample_solution_points(rng, cfg, 12, 0.6)
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
