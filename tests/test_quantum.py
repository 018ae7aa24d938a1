import math

import numpy as np
import pytest

from s3sigma import (DomainError, SpaceConfig, SpectralLabel, apply_hamiltonian,
                     apply_J, apply_nu, apply_position, contraction_study,
                     left_action_operator, psi, spectrum)
from s3sigma.quadrature import build_grid, exact_volume, integrate_values
from s3sigma.qpoly import MonomialBasis, eval_many
from s3sigma import quantum
from s3sigma.quantum import (SmoothBump, WaveFunction, basis_norm_constant,
                             closed_form_norm_constant,
                             energy, gram_matrix, hermiticity_check,
                             inner_product, labels_up_to, level_leakage,
                             measured_normalization_factor,
                             polarized_wavefunction, right_action_operator)
from s3sigma import numdiff
from s3sigma.sigma_group import (element_coords, element_from_coords,
                                 left_fields, right_fields, sample_elements)


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 16, 32, SpaceConfig(1.0, 1.0))


CFG = SpaceConfig(1.0, 1.0)


# ---------------------------------------------------------------------------
# labels and spectrum

def test_label_validation():
    SpectralLabel(3, 2, -2)
    with pytest.raises(DomainError):
        SpectralLabel(2, 3, 0)
    with pytest.raises(DomainError):
        SpectralLabel(2, 1, 2)


def test_level_counting():
    labels = labels_up_to(5)
    assert len(labels) == 91
    for n in range(6):
        assert sum(1 for lb in labels if lb.n == n) == (n + 1) ** 2


def test_spectrum_table():
    rows = spectrum(3, CFG)
    assert [r["energy"] for r in rows] == pytest.approx([0.0, 1.5, 4.0, 7.5])
    assert [r["degeneracy"] for r in rows] == [1, 4, 9, 16]
    with pytest.raises(DomainError):
        spectrum(21, CFG)


def test_energy_scales_with_mass_and_radius():
    cfg = SpaceConfig(2.0, 3.0)
    assert energy(1, cfg) == pytest.approx(3.0 / (2.0 * 3.0 * 4.0))


# ---------------------------------------------------------------------------
# basis functions

def test_ground_state_is_normalized_constant(grid):
    wf = psi(SpectralLabel(0, 0, 0), CFG)
    vals = wf.eval_q(grid.q)
    expected = 1.0 / math.sqrt(exact_volume(CFG))
    np.testing.assert_allclose(vals, expected, atol=1e-14)


def test_m0_l0_states_real_and_phi_independent(grid):
    wf = psi(SpectralLabel(3, 0, 0), CFG)
    vals = wf.eval_nodes(grid.chi, grid.theta, grid.phi)
    assert np.max(np.abs(vals.imag)) < 1e-14
    rolled = wf.eval_nodes(grid.chi, grid.theta, grid.phi + 1.234)
    np.testing.assert_allclose(vals, rolled, atol=1e-13)


def test_two_route_evaluation_agrees(grid):
    # polynomial route against the hyperspherical closed form
    from s3sigma.specfun import gegenbauer, spherical_harmonic
    for (n, l, m) in ((1, 1, 1), (3, 2, -1), (5, 4, 3), (4, 0, 0)):
        wf = psi(SpectralLabel(n, l, m), CFG)
        chi, th, ph = grid.chi[::37], grid.theta[::37], grid.phi[::37]
        norm = basis_norm_constant(n, l, CFG)
        direct = (norm * np.sin(chi) ** l
                  * gegenbauer(l + 1.0, n - l, np.cos(chi)).value
                  * spherical_harmonic(l, m, th, ph))
        np.testing.assert_allclose(wf.eval_nodes(chi, th, ph), direct,
                                   atol=1e-12)


def test_finite_at_poles():
    wf = psi(SpectralLabel(4, 2, 1), CFG)
    vals = wf.eval_nodes(np.array([0.0, math.pi]), np.array([0.3, 2.1]),
                         np.array([0.0, 4.0]))
    assert np.all(np.isfinite(vals))


def test_normalization_constant_closed_form():
    for cfg in (CFG, SpaceConfig(1.7, 0.4)):
        for (n, l) in ((0, 0), (2, 1), (5, 5), (4, 2)):
            quad = basis_norm_constant(n, l, cfg)
            closed = closed_form_norm_constant(n, l, cfg)
            assert quad == pytest.approx(closed, rel=1e-12)


def test_measured_normalization_factor_is_pi_r_cubed():
    # the free constant in the normalization formula, fitted by quadrature
    for cfg in (CFG, SpaceConfig(2.2, 1.0)):
        for (n, l) in ((1, 0), (3, 2), (5, 1)):
            nu = measured_normalization_factor(n, l, cfg)
            assert nu == pytest.approx(math.pi * cfg.R ** 3, rel=1e-12)


def test_orthonormality(grid):
    labels, gram = gram_matrix(4, grid, CFG)
    np.testing.assert_allclose(gram, np.eye(len(labels)), atol=1e-9)


def test_basis_level_cap():
    with pytest.raises(DomainError):
        psi(SpectralLabel(13, 0, 0), CFG)


# ---------------------------------------------------------------------------
# operators, analytic backend

def test_nu_annihilates_constants(grid):
    wf = psi(SpectralLabel(0, 0, 0), CFG)
    for axis in range(3):
        vals = apply_nu(axis, wf, CFG).eval_q(grid.q)
        np.testing.assert_allclose(vals, 0.0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_rotations_and_velocities_preserve_levels(grid, n):
    assert level_leakage(n, grid, CFG) < 1e-8


def test_position_operators(grid):
    wf = psi(SpectralLabel(0, 0, 0), CFG)
    const = 1.0 / math.sqrt(exact_volume(CFG))
    for axis in range(3):
        vals = apply_position(axis, wf, CFG).eval_q(grid.q)
        np.testing.assert_allclose(vals, CFG.R * grid.q[:, axis + 1] * const,
                                   atol=1e-14)
    vals = apply_position("rho", wf, CFG).eval_q(grid.q)
    np.testing.assert_allclose(vals, (np.cos(grid.chi) - 1.0) * const,
                               atol=1e-14)


def test_hamiltonian_eigenvalues(grid):
    for lb in labels_up_to(4):
        wf = psi(lb, CFG)
        vals = wf.eval_q(grid.q)
        hvals = apply_hamiltonian(wf, CFG).eval_q(grid.q)
        resid = math.sqrt(abs(integrate_values(
            np.abs(hvals - energy(lb.n, CFG) * vals) ** 2, grid)))
        assert resid < 1e-7


def test_hamiltonian_on_constant(grid):
    wf = psi(SpectralLabel(0, 0, 0), CFG)
    np.testing.assert_allclose(apply_hamiltonian(wf, CFG).eval_q(grid.q), 0.0,
                               atol=1e-14)


def test_hamiltonian_backends_agree(grid, rng):
    labels = labels_up_to(4)
    picks = rng.choice(len(labels), size=6, replace=False)
    for k in picks:
        wf = psi(labels[int(k)], CFG)
        via_nu = apply_hamiltonian(wf, CFG, "via_nu", "analytic").eval_q(grid.q)
        lb_an = apply_hamiltonian(wf, CFG, "laplace_beltrami",
                                  "analytic").eval_q(grid.q)
        np.testing.assert_allclose(via_nu, lb_an, atol=1e-12)
        fd = apply_hamiltonian(WaveFunction(evaluator=wf.eval_q), CFG,
                               "laplace_beltrami", "fd")
        sample = grid.q[::131]
        np.testing.assert_allclose(fd.eval_q(sample), via_nu[::131], atol=1e-6)


def test_rotation_eigenvalues(grid):
    for lb in labels_up_to(4):
        wf = psi(lb, CFG)
        vals = wf.eval_q(grid.q)
        j2 = apply_J("squared", wf, CFG).eval_q(grid.q)
        j3 = apply_J("third", wf, CFG).eval_q(grid.q)
        r2 = math.sqrt(abs(integrate_values(
            np.abs(j2 - lb.l * (lb.l + 1.0) * vals) ** 2, grid)))
        r3 = math.sqrt(abs(integrate_values(
            np.abs(j3 - lb.m_z * vals) ** 2, grid)))
        assert r2 < 1e-7 and r3 < 1e-7


def test_rotations_annihilate_ground_state(grid):
    wf = psi(SpectralLabel(0, 0, 0), CFG)
    for axis in range(3):
        np.testing.assert_allclose(apply_J(axis, wf, CFG).eval_q(grid.q), 0.0,
                                   atol=1e-15)


def test_rotation_from_frame_difference(grid):
    # J_raw = (R/2) (right frame - left frame) as an operator identity
    for lb in (SpectralLabel(2, 1, 0), SpectralLabel(4, 3, -2)):
        wf = psi(lb, CFG)
        for axis in range(3):
            jr = apply_J(axis, wf, CFG, hermitian=False).eval_q(grid.q)
            zr = right_action_operator(axis, wf, CFG).eval_q(grid.q)
            zl = left_action_operator(axis, wf, CFG).eval_q(grid.q)
            np.testing.assert_allclose(jr, 0.5 * CFG.R * (zr - zl), atol=1e-8)


def test_left_action_on_constants(grid):
    wf = psi(SpectralLabel(0, 0, 0), CFG)
    for axis in range(3):
        np.testing.assert_allclose(
            left_action_operator(axis, wf, CFG).eval_q(grid.q), 0.0, atol=1e-15)


def _operator_matrix(op, labels, grid, cfg):
    basis = [psi(lb, cfg) for lb in labels]
    images = [op(w) for w in basis]
    vb = eval_many([w.poly for w in basis], grid.q)
    vi = eval_many([w.poly for w in images], grid.q)
    return (vb.conj() * grid.weight) @ vi.T


def test_frame_operator_su2_closure(grid):
    # each frame-operator copy closes with structure constants -(+)2/R
    labels = labels_up_to(3)
    for side, coef in (("right", -2.0 / CFG.R), ("left", +2.0 / CFG.R)):
        mats = []
        for axis in range(3):
            if side == "right":
                op = lambda w, a=axis: right_action_operator(a, w, CFG)
            else:
                op = lambda w, a=axis: left_action_operator(a, w, CFG)
            mats.append(_operator_matrix(op, labels, grid, CFG))
        comm = mats[0] @ mats[1] - mats[1] @ mats[0]
        target = mats[2]
        fit = np.vdot(target, comm) / np.vdot(target, target)
        assert abs(fit - coef) < 1e-6
        assert np.max(np.abs(comm - coef * target)) < 1e-6


def test_velocity_position_commutator_structure(grid):
    # [nu_i, eps_j] equals -(i/m)(rho_op + 1) delta_ij + (i/(m R)) eta eps_k
    labels = labels_up_to(4)
    cfg = CFG
    from s3sigma.geometry import LEVI_CIVITA
    for (i, j) in ((0, 0), (0, 1), (2, 1)):
        def commutator(w):
            a = apply_nu(i, apply_position(j, w, cfg), cfg)
            b = apply_position(j, apply_nu(i, w, cfg), cfg)
            return WaveFunction.from_poly(a.poly - b.poly)

        def predicted(w):
            out = None
            if i == j:
                rho_plus = WaveFunction.from_poly(
                    apply_position("rho", w, cfg).poly + w.poly)
                out = WaveFunction.from_poly(rho_plus.poly.scale(-1j / cfg.m))
            for k in range(3):
                s = LEVI_CIVITA[k, i, j]
                if s:
                    term = apply_position(k, w, cfg).poly.scale(
                        1j * s / (cfg.m * cfg.R))
                    out = WaveFunction.from_poly(
                        term if out is None else out.poly + term)
            if out is None:
                out = WaveFunction.from_poly(w.poly.scale(0.0))
            return out

        mc = _operator_matrix(commutator, labels, grid, cfg)
        mp = _operator_matrix(predicted, labels, grid, cfg)
        assert np.max(np.abs(mc - mp)) < 1e-6


def test_hermiticity(grid):
    worst = hermiticity_check(20, grid, CFG, seed=1)
    assert worst["max"] < 1e-8


def test_moment_matrix_inner_products_match_quadrature(grid):
    wfs = []
    for lb in (SpectralLabel(0, 0, 0), SpectralLabel(2, 1, -1),
               SpectralLabel(3, 3, 2), SpectralLabel(4, 2, 0)):
        wf = psi(lb, CFG)
        wfs += [wf, apply_nu(0, wf, CFG), apply_position(2, wf, CFG),
                apply_position("rho", wf, CFG), apply_J(1, wf, CFG),
                apply_hamiltonian(wf, CFG)]
    basis = MonomialBasis([w.poly for w in wfs])
    G = basis.moment_matrix(grid.q, grid.weight)
    via_g = basis.coeffs.conj() @ G @ basis.coeffs.T
    direct = np.array([[inner_product(a, b, grid) for b in wfs] for a in wfs])
    # relative to the largest inner product, <H psi, H psi> = E_4^2 = 144
    np.testing.assert_allclose(via_g, direct, rtol=0.0,
                               atol=1e-13 * np.max(np.abs(direct)))


def test_norm_constant_cached_per_radius_only(monkeypatch):
    first = basis_norm_constant(3, 1, SpaceConfig(1.1, 1.0))

    def no_grid(*args):
        raise AssertionError("a cache hit built a quadrature grid")

    monkeypatch.setattr(quantum, "build_grid", no_grid)
    assert basis_norm_constant(3, 1, SpaceConfig(1.1, 2.5)) == first


def _reference_residual_table(n_max, grid, cfg, backend):
    """One QPoly call and one quadrature sum per residual and label."""
    labels = labels_up_to(n_max)
    if backend == "fd":
        basis = MonomialBasis([psi(lb, cfg).poly for lb in labels])
        h_fd = (-0.5 / cfg.m) * (
            basis.coeffs @ quantum._fd_laplace_beltrami(basis.rows, grid.q, cfg.R))
    rows = []
    for i, lb in enumerate(labels):
        wf = psi(lb, cfg)
        vals = wf.poly(grid.q)
        norm2 = float(np.real(integrate_values(np.abs(vals) ** 2, grid)))

        def residual(image_vals, eigenvalue):
            return math.sqrt(float(np.real(integrate_values(
                np.abs(image_vals - eigenvalue * vals) ** 2, grid)))) / math.sqrt(norm2)

        if backend == "fd":
            hvals = h_fd[i]
        else:
            hvals = apply_hamiltonian(wf, cfg, "via_nu", "analytic").poly(grid.q)
        rows.append({
            "n": lb.n, "l": lb.l, "m_z": lb.m_z, "energy": energy(lb.n, cfg),
            "norm_residual": abs(norm2 - 1.0),
            "h_residual": residual(hvals, energy(lb.n, cfg)),
            "j2_residual": residual(apply_J("squared", wf, cfg).poly(grid.q),
                                    lb.l * (lb.l + 1.0)),
            "j3_residual": residual(apply_J("third", wf, cfg).poly(grid.q), lb.m_z),
        })
    return rows


@pytest.mark.parametrize("backend,orders", [("analytic", (32, 16, 32)),
                                            ("fd", (16, 12, 16))], ids=["analytic", "fd"])
def test_residual_table_matches_per_label_reference(backend, orders):
    cfg = SpaceConfig(1.3, 0.7)
    grid = build_grid(*orders, cfg)
    table = quantum.eigen_residual_table(4, grid, cfg, backend=backend)
    ref = _reference_residual_table(4, grid, cfg, backend)
    assert len(table) == len(ref) == 55
    for row, want in zip(table, ref):
        assert {k: row[k] for k in ("n", "l", "m_z", "energy")} == \
            {k: want[k] for k in ("n", "l", "m_z", "energy")}
        for key in ("norm_residual", "j2_residual", "j3_residual"):
            assert abs(row[key] - want[key]) < 1e-12, (row, key)
        if backend == "fd":
            assert row["h_residual"] == pytest.approx(want["h_residual"], rel=1e-6, abs=0.0)
        else:
            assert abs(row["h_residual"] - want["h_residual"]) < 1e-12, row


def test_residual_table_memory_is_per_label():
    # One label's monomial rows are at most a few MB on the 16,384-node
    # grid; the 210 monomials of every label with n <= 6 would hold 27.5
    # MB of real rows before any complex product.
    import tracemalloc

    cfg = SpaceConfig(1.0, 1.0)
    grid = build_grid(32, 16, 32, cfg)
    quantum.eigen_residual_table(6, grid, cfg)  # fill the grid, image and norm caches
    tracemalloc.start()
    try:
        rows = quantum.eigen_residual_table(6, grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 140
    assert peak < 20e6, f"peak traced memory {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# finite-difference backend

def _random_interior_q(rng, count, both=True):
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= 0.85 * rng.uniform(0.05, 1.0, size=(count, 1)) ** (1 / 3)
    sign = np.where(rng.uniform(size=(count, 1)) < 0.5, -1.0, 1.0) if both else 1.0
    q0 = sign * np.sqrt(1.0 - np.sum(pts ** 2, axis=1, keepdims=True))
    return np.concatenate([q0, pts], axis=1)


def test_nu_fd_matches_analytic(rng):
    q = _random_interior_q(rng, 30)
    for lb in (SpectralLabel(2, 1, 1), SpectralLabel(4, 3, 0)):
        wf = psi(lb, CFG)
        blind = WaveFunction(evaluator=wf.eval_q)
        for axis in range(3):
            an = apply_nu(axis, wf, CFG, "analytic").eval_q(q)
            fd = apply_nu(axis, blind, CFG, "fd").eval_q(q)
            np.testing.assert_allclose(fd, an, atol=1e-6)


def test_fd_routing_at_equator():
    # points exactly on the chart equator go through the group-flow route
    wf = psi(SpectralLabel(3, 2, 1), CFG)
    blind = WaveFunction(evaluator=wf.eval_q)
    qe = np.array([[0.0, 0.6, 0.48, math.sqrt(1 - 0.36 - 0.2304)],
                   [0.0, 0.0, 1.0, 0.0]])
    for axis in range(3):
        an = apply_nu(axis, wf, CFG, "analytic").eval_q(qe)
        fd = apply_nu(axis, blind, CFG, "fd").eval_q(qe)
        np.testing.assert_allclose(fd, an, atol=1e-7)
    h_an = apply_hamiltonian(wf, CFG).eval_q(qe)
    h_fd = apply_hamiltonian(blind, CFG, "laplace_beltrami", "fd").eval_q(qe)
    np.testing.assert_allclose(h_fd, h_an, atol=1e-6)


def _equator_band_q(rng, count):
    """Points with |rho| < 0.15 on both hemispheres: the routed branch."""
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    q0 = rng.uniform(-0.15, 0.15, size=(count, 1))
    return np.concatenate([q0, np.sqrt(1.0 - q0 ** 2) * pts], axis=1)


def test_fd_laplacian_batched_over_functions_equals_single_calls(rng):
    cfg = SpaceConfig(1.3, 0.7)
    polys = [psi(lb, cfg).poly for lb in labels_up_to(5)[::9]]
    # the whole sphere, across a block boundary: the stacked evaluator
    # returns the single calls' values, so the results agree bit for bit
    q = rng.normal(size=(quantum._FD_BLOCK + 100, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q = np.concatenate([q, _equator_band_q(rng, 50)])
    singles = np.array([quantum._fd_laplace_beltrami(p, q, cfg.R) for p in polys])
    stacked = quantum._fd_laplace_beltrami(
        lambda x: np.stack([p(x) for p in polys]), q, cfg.R)
    np.testing.assert_array_equal(stacked, singles)
    # the monomial rows round differently; the chart step shrinks like
    # |rho|^1.83 toward 0.15, so compare where it is wide and on the
    # routed branch
    q = np.concatenate([_random_interior_q(rng, 40), _equator_band_q(rng, 40)])
    singles = np.array([quantum._fd_laplace_beltrami(p, q, cfg.R) for p in polys])
    basis = MonomialBasis(polys)
    via_rows = basis.coeffs @ quantum._fd_laplace_beltrami(basis.rows, q, cfg.R)
    np.testing.assert_allclose(via_rows, singles, rtol=0.0, atol=1e-8)


def test_analytic_method_requires_polynomial():
    blind = WaveFunction(evaluator=lambda q: np.ones(np.asarray(q).shape[:-1]))
    with pytest.raises(DomainError):
        apply_nu(0, blind, CFG, "analytic")


# ---------------------------------------------------------------------------
# contraction study

def test_bump_derivatives_match_finite_differences(rng):
    for kind in ("one", "linear", "cross"):
        f = SmoothBump(1.0, kind)
        pts = rng.uniform(-0.55, 0.55, size=(8, 3))
        grad_fd = numdiff.stencil_gradient(lambda x: f.value(x)[..., None], pts, 1e-5)
        np.testing.assert_allclose(f.grad(pts), grad_fd[:, 0, :], atol=1e-9)
        _, hess_fd = numdiff.stencil_hessian(f.value, pts, 1e-4)
        np.testing.assert_allclose(f.hess(pts), np.moveaxis(hess_fd, -1, 0), atol=1e-6)


def test_bump_vanishes_outside_support():
    f = SmoothBump(1.0, "linear")
    pts = np.array([[1.5, 0.0, 0.0], [0.9, 0.9, 0.9]])
    assert np.all(f.value(pts) == 0.0)
    assert np.all(f.grad(pts) == 0.0)


def test_contraction_deviations_and_slopes():
    rep = contraction_study([10.0, 100.0, 1000.0], cfg=CFG)
    assert rep["nu"]["strictly_decreasing"]
    assert rep["hamiltonian"]["strictly_decreasing"]
    assert rep["nu"]["slope"] == pytest.approx(-1.0, abs=0.3)
    assert rep["hamiltonian"]["slope"] <= -0.7
    assert rep["position"]["identically_zero"]


def test_contraction_rejects_wide_support():
    with pytest.raises(DomainError):
        contraction_study([5.0, 50.0], cfg=CFG, r0=1.0)


# ---------------------------------------------------------------------------
# polarized lift

def test_polarized_lift_reduces_to_operator_dictionary(rng):
    cfg = CFG
    phi_wf = psi(SpectralLabel(2, 1, 0), cfg)
    lift = polarized_wavefunction(phi_wf, cfg)
    for g in sample_elements(np.random.default_rng(3), cfg, 3):
        x0 = element_coords(g)

        def lift_coords(x):
            return lift(element_from_coords(x, g.rho_sign))

        grad = np.array([numdiff.partial(lift_coords, x0, a, 1e-6)
                         for a in range(8)])
        rf = right_fields(g, cfg)
        lf = left_fields(g, cfg)
        val = lift(g)
        q = np.concatenate([[math.sqrt(1 - g.eps @ g.eps) * g.rho_sign],
                            g.eps / cfg.R])
        # polarization conditions annihilate the lift
        for i in range(3):
            assert abs(lf[3 + i] @ grad) < 1e-8
        assert abs(lf[6] @ grad) < 1e-8
        # phase homogeneity
        assert abs(grad[7] - 1j * val) < 1e-8
        # right fields reduce to the configuration-space dictionary
        for i in range(3):
            assert abs(rf[3 + i] @ grad - (-1j * cfg.m * g.eps[i] * val)) < 1e-8
        r = math.sqrt(1 - g.eps @ g.eps) * g.rho_sign
        assert abs(rf[6] @ grad - (-1j * cfg.m * cfg.R * (r - 1.0) * val)) < 1e-8
        prefactor = val / complex(phi_wf.eval_q(q))
        for i in range(3):
            nu_val = complex(apply_nu(i, phi_wf, cfg).eval_q(q))
            assert abs(rf[i] @ grad - 1j * cfg.m * nu_val * prefactor) < 1e-8
