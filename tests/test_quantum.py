import math

import numpy as np
import pytest

from s3sigma import (DomainError, SpaceConfig, SpectralLabel, apply_hamiltonian,
                     apply_J, apply_nu, apply_position, contraction_study,
                     left_action_operator, psi, spectrum)
from s3sigma.quadrature import axis_rules, build_grid, exact_volume, integrate_values
from s3sigma.geometry import LEVI_CIVITA
from s3sigma.qpoly import MonomialBasis, eval_many, monomials
from s3sigma import quantum
from s3sigma.quantum import (SmoothBump, WaveFunction, basis_norm_constant,
                             energy, gram_matrix, hermiticity_check,
                             labels_up_to, measured_normalization_factor)
from s3sigma import numdiff, suite
from s3sigma.sigma_group import (element_from_coords, left_fields, right_fields,
                                 sample_batch)

from qpoly_reference import Poly, basis_raw, from_coeffs, to_coeffs, wave_poly


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


def _closed_form_norm_constant(n, l, cfg):
    """N_nl = 2^l l! sqrt(2 (n + 1) (n - l)! / (pi R^3 (n + l + 1)!))."""
    num = 2.0 * (n + 1.0) * math.factorial(n - l)
    den = math.pi * cfg.R ** 3 * math.factorial(n + l + 1)
    return (2.0 ** l) * math.factorial(l) * math.sqrt(num / den)


def test_normalization_constant_closed_form():
    # every level the basis builds: the chi rule must resolve n = 12 too
    for cfg in (CFG, SpaceConfig(1.7, 0.4)):
        for n in range(quantum.MAX_BASIS_LEVEL + 1):
            for l in range(n + 1):
                quad = basis_norm_constant(n, l, cfg)
                closed = _closed_form_norm_constant(n, l, cfg)
                assert quad == pytest.approx(closed, rel=1e-12), (n, l)


def test_measured_normalization_factor_is_pi_r_cubed():
    # the free constant in the normalization formula, fitted by quadrature
    for cfg in (CFG, SpaceConfig(2.2, 1.0)):
        for (n, l) in ((1, 0), (3, 2), (5, 1)):
            nu = measured_normalization_factor(n, l, cfg)
            assert nu == pytest.approx(math.pi * cfg.R ** 3, rel=1e-12)


def test_orthonormality(grid):
    labels, gram = gram_matrix(4, grid, CFG)
    np.testing.assert_allclose(gram, np.eye(len(labels)), atol=1e-9)


@pytest.mark.parametrize("cfg", [SpaceConfig(1.0, 1.0), SpaceConfig(1.3, 0.7)],
                         ids=["R1-m1", "R1.3-m0.7"])
def test_gram_matrix_matches_whole_vector_reference(cfg):
    # The real node-block sum against all complex values of the basis at
    # once, in one weighted product.  The real route sums Re Re and Im Im
    # apart and splits the weight as sqrt(w) sqrt(w): 2.7-2.9e-15 here.
    grid = build_grid(32, 16, 32, cfg)
    labels, gram = gram_matrix(5, grid, cfg)
    vals = MonomialBasis(quantum._basis_coeffs(labels, cfg, 5), 5).values(grid.q)
    ref = (vals.conj() * grid.weight) @ vals.T
    assert len(labels) == 91
    assert np.max(np.abs(gram - ref)) < 4e-15
    assert np.array_equal(gram, gram.conj().T)


@pytest.mark.parametrize("R, m", [(1.0, 1.0), (1.3, 0.7), (0.5, 0.5), (3.0, 1.0)])
def test_orthonormality_check_reads_node_values(R, m, monkeypatch):
    # Criterion 3 is the oracle independent of the moment matrix G, so it
    # must run with G out of reach.  Node values give 2.0-2.3e-15 here.
    # The deviation alone does not tell the routes apart (conj(C) G C^T
    # reads 1.44-1.91e-14); the whole-vector reference test above does.
    def unreachable(*args, **kwargs):
        raise AssertionError("criterion 3 read the moment matrix")

    monkeypatch.setattr(MonomialBasis, "moment_matrix", unreachable)
    monkeypatch.setattr("s3sigma.qpoly._moment_matrix", unreachable)
    res = suite.check_orthonormality(suite.RunConfig(R=R, m=m, seed=0))
    assert res.passed
    assert res.details["max_gram_deviation"] < 5e-15


def test_distinct_rows_rebuild_the_family_bit_for_bit():
    # a negated duplicate, an exact duplicate and two zero rows; every
    # nonzero entry comes back with its bits (a zero's sign may not)
    a, b = np.array([0.0, 2.5, -1.0]), np.array([-3.0, 0.0, 4.0])
    c = np.stack([a, -a, b, np.zeros(3), b, -b, a, np.array([-0.0, 0.0, -0.0])])
    distinct, which, sign = quantum._distinct_rows(c)
    assert len(distinct) == 3
    assert np.array_equal(sign[:, None] * distinct[which], c)
    assert np.array_equal(which[[0, 1, 6]], [which[0]] * 3)
    assert which[2] == which[4] == which[5] and which[3] == which[7]
    assert np.array_equal(sign, [1, -1, -1, 1, -1, 1, 1, 1])


def test_gram_rows_are_the_basis_rows_up_to_sign():
    # 91 real and 91 imaginary coefficient rows at n_max = 5: the imaginary
    # parts of the 21 real m_z = 0 functions are zero, and the rest pair up
    # (m_z, -m_z) up to sign, so 91 rows and the zero row are distinct.
    labels = labels_up_to(5)
    C = quantum._basis_coeffs(labels, CFG, 5)
    c = np.concatenate([C.real, C.imag])
    distinct, which, sign = quantum._distinct_rows(c)
    assert len(distinct) == 92 and not distinct.any(axis=1).all()
    assert np.array_equal(sign[:, None] * distinct[which], c)


def test_basis_level_cap():
    with pytest.raises(DomainError):
        psi(SpectralLabel(13, 0, 0), CFG)


@pytest.mark.parametrize("cfg", [SpaceConfig(1.0, 1.0), SpaceConfig(1.3, 0.7)],
                         ids=["R1-m1", "R1.3-m0.7"])
def test_psi_coefficients_equal_the_dict_recurrence_bit_for_bit(cfg):
    # The solid-harmonic recurrence and the Gegenbauer series on coefficient
    # vectors do the dict algebra's arithmetic in its order, so every label
    # the basis builds gets the same bits.
    for lb in labels_up_to(quantum.MAX_BASIS_LEVEL):
        wf = psi(lb, cfg)
        want = basis_raw(lb.n, lb.l, lb.m_z).scale(basis_norm_constant(lb.n, lb.l, cfg))
        assert wf.degree == lb.n and wf.coeffs.shape == (len(monomials(lb.n)),)
        assert np.array_equal(wf.coeffs, to_coeffs(want, lb.n)), lb


# ---------------------------------------------------------------------------
# operators, analytic backend

def test_nu_annihilates_constants(grid):
    wf = psi(SpectralLabel(0, 0, 0), CFG)
    for axis in range(3):
        vals = apply_nu(axis, wf, CFG).eval_q(grid.q)
        np.testing.assert_allclose(vals, 0.0, atol=1e-15)


def _level_leakage(n: int, grid, cfg: SpaceConfig) -> float:
    # Worst projection outside level n of the images of the level's basis
    # under every J_a, every nu_a and every velocity quadratic nu_a nu_b,
    # against the basis of the other levels up to n + 2.
    others = [lb for lb in labels_up_to(n + 2) if lb.n != n]
    others_c = quantum._basis_coeffs(others, cfg, n + 2)
    weighted = MonomialBasis(others_c, n + 2).values(grid.q).conj() * grid.weight
    level = [lb for lb in labels_up_to(n) if lb.n == n]
    psi_c = quantum._basis_coeffs(level, cfg, n).T
    s = -1j / (cfg.m * cfg.R)  # nu_a = s (R Z_a)
    nu = [s * quantum._operator(n, "right", a)(psi_c) for a in range(3)]
    images = np.stack(nu + [-1j * quantum._operator(n, "J", a)(psi_c) for a in range(3)]
                      + [s * quantum._operator(n, "right", a)(nu_b)
                         for a in range(3) for nu_b in nu])
    worst = 0.0
    for i in range(len(level)):
        image_vals = MonomialBasis(images[:, :, i], n).values(grid.q)
        worst = max(worst, float(np.max(np.abs(weighted @ image_vals.T))))
    return worst


@pytest.mark.parametrize("n", [1, 2])
def test_rotations_and_velocities_preserve_levels(grid, n):
    assert _level_leakage(n, grid, CFG) < 1e-8


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
            zr = 1j * CFG.m * apply_nu(axis, wf, CFG).eval_q(grid.q)
            zl = left_action_operator(axis, wf, CFG).eval_q(grid.q)
            np.testing.assert_allclose(jr, 0.5 * CFG.R * (zr - zl), atol=1e-8)


def test_left_action_on_constants(grid):
    wf = psi(SpectralLabel(0, 0, 0), CFG)
    for axis in range(3):
        np.testing.assert_allclose(
            left_action_operator(axis, wf, CFG).eval_q(grid.q), 0.0, atol=1e-15)


def _operator_matrix(op, labels, grid, cfg):
    """<psi_j, op psi_k> on the grid; op maps a basis function to a `Poly`."""
    basis = [psi(lb, cfg) for lb in labels]
    vb = eval_many([wave_poly(w) for w in basis], grid.q)
    vi = eval_many([op(w) for w in basis], grid.q)
    return (vb.conj() * grid.weight) @ vi.T


def test_frame_operator_su2_closure(grid):
    # each frame-operator copy closes with structure constants -(+)2/R
    labels = labels_up_to(3)
    for side, coef in (("right", -2.0 / CFG.R), ("left", +2.0 / CFG.R)):
        mats = []
        for axis in range(3):
            if side == "right":
                op = lambda w, a=axis: wave_poly(apply_nu(a, w, CFG)).scale(1j * CFG.m)
            else:
                op = lambda w, a=axis: wave_poly(left_action_operator(a, w, CFG))
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
            return wave_poly(a) - wave_poly(b)

        def predicted(w):
            out = Poly()
            if i == j:
                out = (wave_poly(apply_position("rho", w, cfg)) + wave_poly(w)).scale(-1j / cfg.m)
            for k in range(3):
                s = LEVI_CIVITA[k, i, j]
                if s:
                    out = out + wave_poly(apply_position(k, w, cfg)).scale(
                        1j * s / (cfg.m * cfg.R))
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
    d = max(w.degree for w in wfs)
    basis = MonomialBasis(np.stack([quantum._lifted(w.coeffs, w.degree, d) for w in wfs]), d)
    G = basis.moment_matrix(grid)
    via_g = basis.coeffs.conj() @ G @ basis.coeffs.T
    vals = [wave_poly(w)(grid.q) for w in wfs]  # term by term, apart from G's monomials
    direct = np.array([[integrate_values(np.conj(a) * b, grid) for b in vals] for a in vals])
    # relative to the largest inner product, <H psi, H psi> = E_4^2 = 144
    np.testing.assert_allclose(via_g, direct, rtol=0.0,
                               atol=1e-13 * np.max(np.abs(direct)))


def test_norm_constant_cached_per_radius_only(monkeypatch):
    first = basis_norm_constant(3, 1, SpaceConfig(1.1, 1.0))

    def no_rules(*args):
        raise AssertionError("a cache hit built quadrature rules")

    monkeypatch.setattr(quantum, "axis_rules", no_rules)
    assert basis_norm_constant(3, 1, SpaceConfig(1.1, 2.5)) == first


def test_first_norm_miss_fills_its_whole_level(monkeypatch):
    cfg = SpaceConfig(0.83, 1.0)  # a radius no other test fills
    first = basis_norm_constant(4, 2, cfg)

    def no_rules(*args):
        raise AssertionError("a cache hit built quadrature rules")

    monkeypatch.setattr(quantum, "axis_rules", no_rules)
    level = [basis_norm_constant(4, l, cfg) for l in range(5)]
    assert level[2] == first and all(c > 0.0 for c in level)
    with pytest.raises(AssertionError, match="built quadrature rules"):
        basis_norm_constant(5, 0, cfg)  # the next level is its own fill


def _level_grid(n, R):
    """The quadrature grid of level n's normalisation constants."""
    return build_grid(max(32, 4 * n), max(24, 2 * n + 6), max(48, 4 * n + 8), SpaceConfig(R))


@pytest.mark.parametrize("R", [1.0, 1.3, 0.7])
def test_norm_constant_matches_full_grid_qpoly_evaluation(R):
    # Reference: the raw polynomial through `QPoly.__call__` on every node of
    # the constant's quadrature grid, then one quadrature sum of |vals|^2.
    for n in range(quantum.MAX_BASIS_LEVEL + 1):
        grid = _level_grid(n, R)
        for l in range(n + 1):
            raw = from_coeffs(quantum._basis_polynomial_raw(n, l, 0), n)
            ref = 1.0 / math.sqrt(float(np.real(
                integrate_values(np.abs(raw(grid.q)) ** 2, grid))))
            assert basis_norm_constant(n, l, SpaceConfig(R)) == pytest.approx(ref, rel=1e-13), (n, l)


def test_norm_raws_take_the_same_values_on_every_phi_slice():
    # The premise of the phi = 0 slice sum.  The slices differ by the
    # evaluation's own rounding, so the bound is relative to the sum of
    # the absolute terms at each node.
    for n in range(quantum.MAX_BASIS_LEVEL + 1):
        grid = _level_grid(n, 1.0)
        for l in range(n + 1):
            raw = from_coeffs(quantum._basis_polynomial_raw(n, l, 0), n)
            vals = raw(grid.q).reshape(grid.orders)
            scale = Poly({e: abs(c) for e, c in raw.terms.items()})(np.abs(grid.q)).real
            assert np.all(np.abs(vals - vals[..., :1]) <= 4e-15 * scale.reshape(grid.orders)), (n, l)


def test_norm_constants_never_form_the_grid_points(monkeypatch):
    built = []

    def recording(*args):
        built.append(axis_rules(*args))
        return built[-1]

    monkeypatch.setattr(quantum, "axis_rules", recording)
    grids = build_grid.cache_info()
    # uncached, at a radius no other test uses: a fresh fill
    quantum._level_norm_constants.__wrapped__(7, 0.61)
    # one set of 1-D rules, and no grid built or looked up
    assert len(built) == 1 and build_grid.cache_info() == grids


def _reference_residual_table(n_max, grid, cfg, backend):
    """One QPoly call and one quadrature sum per residual and label."""
    labels = labels_up_to(n_max)
    if backend == "fd":
        basis = MonomialBasis(quantum._basis_coeffs(labels, cfg, n_max), n_max)
        h_fd = (-0.5 / cfg.m) * (
            basis.coeffs @ quantum._fd_laplace_beltrami(basis.rows, grid.q, cfg.R))
    rows = []
    for i, lb in enumerate(labels):
        wf = psi(lb, cfg)
        vals = wave_poly(wf)(grid.q)
        norm2 = float(np.real(integrate_values(np.abs(vals) ** 2, grid)))

        def residual(image_vals, eigenvalue):
            return math.sqrt(float(np.real(integrate_values(
                np.abs(image_vals - eigenvalue * vals) ** 2, grid)))) / math.sqrt(norm2)

        if backend == "fd":
            hvals = h_fd[i]
        else:
            hvals = wave_poly(apply_hamiltonian(wf, cfg, "via_nu", "analytic"))(grid.q)
        rows.append({
            "n": lb.n, "l": lb.l, "m_z": lb.m_z, "energy": energy(lb.n, cfg),
            "norm_residual": abs(norm2 - 1.0),
            "h_residual": residual(hvals, energy(lb.n, cfg)),
            "j2_residual": residual(wave_poly(apply_J("squared", wf, cfg))(grid.q),
                                    lb.l * (lb.l + 1.0)),
            "j3_residual": residual(wave_poly(apply_J("third", wf, cfg))(grid.q), lb.m_z),
        })
    return rows


def _complex_residual_table(n_max, grid, cfg, backend):
    """The residual table with complex values per label: each label's psi and
    images as complex rows, their complex differences, then |.|^2 summed."""
    labels = labels_up_to(n_max)
    basis = MonomialBasis(quantum._basis_coeffs(labels, cfg, n_max), n_max)
    psi_c = basis.coeffs.T
    images = [psi_c, quantum._operator(n_max, "J2")(psi_c),
              -1j * quantum._operator(n_max, "J", 2)(psi_c)]
    if backend == "analytic":
        images.append((-0.5 / (cfg.m * cfg.R ** 2)) * quantum._operator(n_max, "nu2")(psi_c))
    else:
        lap = quantum._fd_laplace_beltrami(basis.rows, grid.q, cfg.R)
        h_fd = np.empty((len(labels), lap.shape[1]), dtype=complex)
        h_fd.real = basis.coeffs.real @ lap
        h_fd.imag = basis.coeffs.imag @ lap
        h_fd *= -0.5 / cfg.m
    images = np.stack(images)
    rows = []
    for i, lb in enumerate(labels):
        vals, j2vals, j3vals, *h = MonomialBasis(images[:, :, i], n_max).values(grid.q)
        e_n = energy(lb.n, cfg)
        diffs = np.stack([vals, (h[0] if h else h_fd[i]) - e_n * vals,
                          j2vals - lb.l * (lb.l + 1.0) * vals, j3vals - lb.m_z * vals])
        norm2, h2, j22, j32 = (diffs.real ** 2 + diffs.imag ** 2) @ grid.weight
        rows.append({
            "n": lb.n, "l": lb.l, "m_z": lb.m_z, "energy": e_n,
            "norm_residual": abs(float(norm2) - 1.0),
            "h_residual": math.sqrt(h2) / math.sqrt(norm2),
            "j2_residual": math.sqrt(j22) / math.sqrt(norm2),
            "j3_residual": math.sqrt(j32) / math.sqrt(norm2),
        })
    return rows


@pytest.mark.parametrize("R,m", [(1.0, 1.0), (1.3, 0.7)])
@pytest.mark.parametrize("backend,orders", [("analytic", (32, 16, 32)),
                                            ("fd", (16, 12, 16))], ids=["analytic", "fd"])
def test_residual_table_equals_complex_loop_bit_for_bit(backend, orders, R, m):
    # The table reads its integrals from the moment matrix, the reference
    # sums complex node values per label: they agree at rounding level.
    cfg = SpaceConfig(R, m)
    grid = build_grid(*orders, cfg)
    table = quantum.eigen_residual_table(5, grid, cfg, backend=backend)
    ref = _complex_residual_table(5, grid, cfg, backend)
    assert len(table) == len(ref) == 91
    _assert_table_matches(table, ref, backend)


def _assert_table_matches(table, ref, backend):
    for row, want in zip(table, ref):
        assert {k: row[k] for k in ("n", "l", "m_z", "energy")} == \
            {k: want[k] for k in ("n", "l", "m_z", "energy")}
        for key in ("norm_residual", "j2_residual", "j3_residual"):
            assert abs(row[key] - want[key]) < 1e-12, (row, key)
        if backend == "fd":
            # The rows of QPoly values and of monomials round differently
            # by up to 7.5e-16, which the 1e-10 residuals of low labels feel.
            assert row["h_residual"] == pytest.approx(want["h_residual"], rel=1e-6, abs=1e-14)
        else:
            assert abs(row["h_residual"] - want["h_residual"]) < 1e-12, row


@pytest.mark.parametrize("backend,orders", [("analytic", (32, 16, 32)),
                                            ("fd", (16, 12, 16))], ids=["analytic", "fd"])
def test_residual_table_matches_per_label_reference(backend, orders):
    cfg = SpaceConfig(1.3, 0.7)
    grid = build_grid(*orders, cfg)
    table = quantum.eigen_residual_table(4, grid, cfg, backend=backend)
    ref = _reference_residual_table(4, grid, cfg, backend)
    assert len(table) == len(ref) == 55
    _assert_table_matches(table, ref, backend)


@pytest.mark.parametrize("n_max", [5, 6])
@pytest.mark.parametrize("R,m", [(1.0, 1.0), (1.3, 0.7), (0.5, 0.5), (3.0, 1.0)])
def test_residual_table_is_finite_and_nonnegative(R, m, n_max):
    # The residuals are sums of squares on the reduced monomials, where the
    # moment matrix is positive definite, so none can come out negative.
    cfg = SpaceConfig(R, m)
    for backend, orders in (("analytic", (32, 16, 32)), ("fd", (16, 12, 16))):
        table = quantum.eigen_residual_table(n_max, build_grid(*orders, cfg), cfg, backend)
        assert len(table) == sum((n + 1) ** 2 for n in range(n_max + 1))
        for row in table:
            for key in ("norm_residual", "h_residual", "j2_residual", "j3_residual"):
                assert math.isfinite(row[key]) and row[key] >= 0.0, (backend, row, key)


def test_spectrum_and_selfadjointness_build_one_moment_matrix_per_grid(monkeypatch):
    from s3sigma import qpoly, suite

    built = []

    def counted(grid, expo):
        built.append(grid)
        return sums(grid, expo)

    sums = qpoly.monomial_sums
    monkeypatch.setattr(qpoly, "monomial_sums", counted)
    rc = suite.RunConfig(R=0.91, m=1.1)  # a radius and mass no other test uses
    assert suite.check_spectrum(rc).passed
    assert suite.check_selfadjointness(rc).passed
    # c2's analytic table and c11 share the quantum grid's degree-5 G, and
    # c2's FD table reads the one of its own grid
    assert len(built) == 2 and built[0] is rc.quantum_grid()
    assert built[1] is build_grid(16, 12, 16, rc.space())


def test_residual_table_memory_is_per_label():
    # The table holds coefficient matrices and the moment matrix, never
    # node values (6.8 MB traced at n <= 6); the 210 monomial rows of every
    # label on the 16,384-node grid alone would be 27.5 MB.
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


def test_fd_residual_table_frees_each_blocks_stencil_values():
    # E psi reads the stencil's centre values, a view into the block's 13
    # point sets of 126 rows (3.3 MB): kept into the next block they raise
    # the traced peak from 6.3 to 9.9 MB
    import tracemalloc

    cfg = SpaceConfig(1.0, 1.0)
    grid = build_grid(16, 12, 16, cfg)
    quantum.eigen_residual_table(5, grid, cfg, backend="fd")  # fill the caches
    tracemalloc.start()
    try:
        quantum.eigen_residual_table(5, grid, cfg, backend="fd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5e6, f"peak traced memory {peak / 1e6:.1f} MB"


def test_gram_matrix_memory_is_per_node_block():
    # The real and imaginary values of all 91 functions on the 16,384
    # nodes are 23.9 MB; one 2,048-node block of the 92 rows distinct up
    # to sign (1.5 MB) and its monomial rows (2.1 MB) are held at once:
    # 4.0 MB traced.
    import tracemalloc

    cfg = SpaceConfig(1.0, 1.0)
    grid = build_grid(32, 16, 32, cfg)
    gram_matrix(5, grid, cfg)  # fill the grid and norm caches
    tracemalloc.start()
    try:
        labels, _ = gram_matrix(5, grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == 91
    assert peak < 6e6, f"peak traced memory {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# finite-difference backend

def _random_interior_q(rng, count, both=True):
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= 0.85 * rng.uniform(0.05, 1.0, size=(count, 1)) ** (1 / 3)
    sign = np.where(rng.uniform(size=(count, 1)) < 0.5, -1.0, 1.0) if both else 1.0
    q0 = sign * np.sqrt(1.0 - np.sum(pts ** 2, axis=1, keepdims=True))
    return np.concatenate([q0, pts], axis=1)


def _near_equator_q(rng, count):
    """Points with 1e-5 <= |rho| <= 1e-3 on both hemispheres."""
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    q0 = np.where(rng.uniform(size=(count, 1)) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(
        -5.0, -3.0, size=(count, 1))
    return np.concatenate([q0, np.sqrt(1.0 - q0 ** 2) * pts], axis=1)


def test_nu_fd_matches_analytic(rng):
    # both hemispheres, and points so close to the chart equator that no
    # chart stencil would fit there
    q = np.concatenate([_random_interior_q(rng, 30, both=True), _near_equator_q(rng, 20)])
    assert np.any(q[:, 0] < 0.0) and np.any(q[:, 0] > 0.0)
    for R, m in ((1.0, 1.0), (0.5, 0.5), (3.0, 1.0), (1.3, 0.7)):
        cfg = SpaceConfig(R, m)
        for lb in (SpectralLabel(2, 1, 1), SpectralLabel(4, 3, 0)):
            wf = psi(lb, cfg)
            blind = WaveFunction(evaluator=wf.eval_q)
            for op in (apply_nu, left_action_operator, apply_J):
                for axis in range(3):
                    an = op(axis, wf, cfg, method="analytic").eval_q(q)
                    fd = op(axis, blind, cfg, method="fd").eval_q(q)
                    np.testing.assert_allclose(fd, an, rtol=0.0, atol=1e-8,
                                               err_msg=f"{op.__name__} {axis} {lb} {cfg}")


def test_fd_routing_at_equator():
    # points exactly on the chart equator, which no chart covers
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


def test_fd_operators_keep_the_shape_of_stacked_points(rng):
    # points (2, 3, 4), as every WaveFunction evaluator takes them
    cfg = SpaceConfig(1.3, 0.7)
    q = _random_interior_q(rng, 6, both=True).reshape(2, 3, 4)
    wf = psi(SpectralLabel(3, 2, 1), cfg)
    blind = WaveFunction(evaluator=wf.eval_q)
    operators = [(lambda w, meth, op=op: op(1, w, cfg, method=meth))
                 for op in (apply_nu, apply_J, left_action_operator)]
    operators.append(lambda w, meth: apply_hamiltonian(w, cfg, "laplace_beltrami", meth))
    for apply in operators:
        fd = apply(blind, "fd").eval_q(q)
        assert fd.shape == (2, 3)
        np.testing.assert_allclose(fd, apply(wf, "analytic").eval_q(q), rtol=0.0, atol=1e-8)


def _equator_band_q(rng, count):
    """Points with |rho| < 0.15 on both hemispheres."""
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    q0 = rng.uniform(-0.15, 0.15, size=(count, 1))
    return np.concatenate([q0, np.sqrt(1.0 - q0 ** 2) * pts], axis=1)


def test_fd_laplacian_batched_over_functions_equals_single_calls(rng):
    cfg = SpaceConfig(1.3, 0.7)
    labels = labels_up_to(5)[::9]
    fns = [psi(lb, cfg).eval_q for lb in labels]
    # the whole sphere, across a block boundary: the stacked evaluator
    # returns the single calls' values, so the results agree bit for bit
    q = rng.normal(size=(quantum._FD_BLOCK + 100, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q = np.concatenate([q, _equator_band_q(rng, 50)])
    singles = np.array([quantum._fd_laplace_beltrami(f, q, cfg.R) for f in fns])
    stacked = quantum._fd_laplace_beltrami(
        lambda x: np.stack([f(x) for f in fns]), q, cfg.R)
    np.testing.assert_array_equal(stacked, singles)
    # the rows of degree <= 5 round differently from each function's own:
    # compare them over the same whole-sphere points
    basis = MonomialBasis(quantum._basis_coeffs(labels, cfg, 5), 5)
    via_rows = basis.coeffs @ quantum._fd_laplace_beltrami(basis.rows, q, cfg.R)
    np.testing.assert_allclose(via_rows, singles, rtol=0.0, atol=1e-8)


def test_fd_laplace_block_centre_values_are_the_rows_bit_for_bit(rng):
    # the FD table forms E psi from the stencil's centre values: the centre
    # point set q (1, 0, 0, 0) is q exactly
    cfg = SpaceConfig(1.3, 0.7)
    basis = MonomialBasis(quantum._basis_coeffs(labels_up_to(5), cfg, 5), 5)
    q = rng.normal(size=(200, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q = np.concatenate([q, _equator_band_q(rng, 56)])
    _, centre = quantum._fd_laplace_block(basis.rows, q, cfg.R)
    np.testing.assert_array_equal(centre, basis.rows(q))


@pytest.mark.parametrize("R,m", [(1.0, 1.0), (0.5, 0.5), (3.0, 1.0)])
def test_fd_laplacian_holds_on_the_whole_sphere(rng, R, m):
    # every label with n <= 5 at uniform points, in the equator band and
    # exactly on the equator: H psi = E psi by the FD route everywhere
    cfg = SpaceConfig(R, m)
    labels = labels_up_to(5)
    q = rng.normal(size=(256, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    equator = _equator_band_q(rng, 16)
    equator[:, 0] = 0.0
    equator /= np.linalg.norm(equator, axis=1, keepdims=True)
    q = np.concatenate([q, _equator_band_q(rng, 128), equator])
    basis = MonomialBasis(quantum._basis_coeffs(labels, cfg, 5), 5)
    h_fd = (-0.5 / m) * (basis.coeffs @ quantum._fd_laplace_beltrami(basis.rows, q, R))
    e_psi = np.array([energy(lb.n, cfg) for lb in labels])[:, None] * basis.values(q)
    assert len(labels) == 91
    assert np.max(np.abs(h_fd - e_psi)) / np.max(np.abs(e_psi)) < 1e-9


def test_analytic_method_requires_polynomial():
    blind = WaveFunction(evaluator=lambda q: np.ones(np.asarray(q).shape[:-1]))
    with pytest.raises(DomainError):
        apply_nu(0, blind, CFG, "analytic")


@pytest.mark.parametrize("method", ["bogus", "Analytic", "FD"])
def test_unknown_operator_method_is_rejected(method):
    wf = psi(SpectralLabel(2, 1, 0), CFG)
    blind = WaveFunction(evaluator=wf.eval_q)
    for w in (wf, blind):
        for apply in (lambda: apply_nu(0, w, CFG, method),
                      lambda: apply_J(0, w, CFG, method=method),
                      lambda: apply_J("squared", w, CFG, method=method),
                      lambda: left_action_operator(0, w, CFG, method),
                      lambda: apply_hamiltonian(w, CFG, "via_nu", method),
                      lambda: apply_hamiltonian(w, CFG, "laplace_beltrami", method)):
            with pytest.raises(DomainError, match="method must be"):
                apply()


@pytest.mark.parametrize("backend", ["bogus", "Analytic", "via_nu"])
def test_unknown_residual_table_backend_is_rejected(backend):
    grid = build_grid(16, 12, 16, CFG)
    with pytest.raises(DomainError, match="backend must be"):
        quantum.eigen_residual_table(2, grid, CFG, backend=backend)


# ---------------------------------------------------------------------------
# contraction study

def test_bump_derivatives_match_finite_differences(rng):
    for kind in ("one", "linear", "cross"):
        f = SmoothBump(1.0, kind)
        pts = rng.uniform(-0.55, 0.55, size=(8, 3))
        grad_fd = numdiff.stencil_gradient(lambda x: f.value(x)[..., None], pts, 1e-5)
        np.testing.assert_allclose(f.grad(pts), grad_fd[:, 0, :], atol=1e-9)
        hess_fd = numdiff.stencil_gradient(f.grad, pts, 1e-4)
        np.testing.assert_allclose(f.hess(pts), hess_fd, atol=1e-9)


def test_bump_rejects_unknown_poly_kind():
    with pytest.raises(DomainError, match="unknown poly_kind 'bogus'"):
        SmoothBump(1.0, "bogus")


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


def _reference_contraction(radii, m, r0=1.0):
    """Criterion 10 with the chart formulas written out, one function and axis
    at a time: Z[i, k] d_k f = rho d_i f + eps_{kij} eps_j d_k f / R, and the
    curved minus the flat Laplacian, -(3 eps . grad f + eps . Hess f . eps) / R^2."""
    axis = np.linspace(-0.9 * r0, 0.9 * r0, 5)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    box = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=-1)
    d_nu, d_h = [], []
    for R in radii:
        rho_box = np.sqrt(1.0 - np.sum(box * box, axis=-1) / (R * R))
        worst_nu = worst_h = 0.0
        for kind in ("one", "linear", "cross"):
            f = SmoothBump(r0, kind)
            grad, hess = f.grad(box), f.hess(box)
            for i in range(3):
                zdot = rho_box * grad[:, i]
                for k in range(3):
                    zdot = zdot + (LEVI_CIVITA[k, i] @ box.T) * grad[:, k] / R
                worst_nu = max(worst_nu, float(np.max(np.abs(zdot - grad[:, i]) / m)))
            eps_dot_grad = np.sum(box * grad, axis=-1)
            quad = np.einsum("pk,pkm,pm->p", box, hess, box)
            dev_h = np.abs(-(1.0 / (2.0 * m)) * (
                -(3.0 / (R * R)) * eps_dot_grad - quad / (R * R)))
            worst_h = max(worst_h, float(np.max(dev_h)))
        d_nu.append(worst_nu)
        d_h.append(worst_h)
    return d_nu, d_h


@pytest.mark.parametrize("m", [0.7, 1.0, 2.5])
def test_contraction_matches_the_chart_formulas(m):
    radii = [10.0, 30.0, 100.0, 300.0, 1000.0]
    rep = contraction_study(radii, cfg=SpaceConfig(1.0, m))
    ref_nu, ref_h = _reference_contraction(radii, m)
    assert rep["nu"]["deviation"] == ref_nu  # bit for bit
    np.testing.assert_allclose(rep["hamiltonian"]["deviation"], ref_h, rtol=1e-9, atol=0.0)


def _failed_c10_bounds():
    res = suite.check_contraction(suite.RunConfig())
    return {b.metric for b in res.bounds if not b.holds()}


def test_contraction_fails_with_a_wrong_frame_height(monkeypatch):
    dual = quantum._dual
    # the height term of the frame Z[i, k] = rho delta_ik + ... times 1.01
    monkeypatch.setattr(quantum, "_dual", lambda eps, r, s, R: dual(eps, 1.01 * r, s, R))
    assert {"nu.strictly_decreasing", "-nu.slope"} <= _failed_c10_bounds()


def test_contraction_fails_with_a_wrong_inverse_metric(monkeypatch):
    # c10 reads g^ij - delta^ij from its own kernel: shift it by 1e-4 delta^ij
    deviation = quantum._metric_inverse_deviation
    monkeypatch.setattr(quantum, "_metric_inverse_deviation",
                        lambda eps, cfg: deviation(eps, cfg) + 1e-4 * np.eye(3))
    assert "hamiltonian.strictly_decreasing" in _failed_c10_bounds()


def test_contraction_h_deviation_keeps_its_digits_at_large_radii():
    # g^ij - delta^ij = -eps^i eps^j / R^2 is formed without cancelling the
    # identity, so the H deviation falls exactly as R^-2 out to R = 2e4
    rep = contraction_study([20.0, 200.0, 2e3, 2e4], cfg=CFG)["hamiltonian"]
    scaled = np.array(rep["deviation"]) * np.array([20.0, 200.0, 2e3, 2e4]) ** 2
    np.testing.assert_allclose(scaled, scaled[0], rtol=1e-14, atol=0.0)
    assert abs(rep["slope"] + 2.0) < 1e-13


def test_contraction_rejects_wide_support():
    with pytest.raises(DomainError):
        contraction_study([5.0, 50.0], cfg=CFG, r0=1.0)


# ---------------------------------------------------------------------------
# polarized lift

def _polarized_wavefunction(phi_wf, cfg):
    """Psi(zeta, eps, nu, z) = zeta exp(-i m (eps . nu + R (rho - 1) z)) phi(eps):
    a configuration-space wave function lifted to the group."""
    m, R = cfg.m, cfg.R

    def lift(g) -> complex:
        r = g.rho
        q = np.concatenate(([r], g.eps / R))
        phase = -m * (float(np.dot(g.eps, g.nu)) + R * (r - 1.0) * g.z)
        return g.zeta * complex(np.exp(1j * phase)) * complex(phi_wf.eval_q(q))

    return lift


def test_polarized_lift_reduces_to_operator_dictionary(rng):
    cfg = CFG
    phi_wf = psi(SpectralLabel(2, 1, 0), cfg)
    lift = _polarized_wavefunction(phi_wf, cfg)
    for g in sample_batch(np.random.default_rng(3), cfg, 3):
        x0 = np.concatenate((g.eps, g.nu, [g.z], [g.phi]))

        def lift_coords(x):
            return lift(element_from_coords(x, g.rho_sign, cfg))

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


# ---------------------------------------------------------------------------
# operator maps on monomial coefficients

def _ref_frame(p, axis, R, side):
    """Frame derivative in the dict algebra: the reference for the maps."""
    out = Poly.variable(0) * p.diff(axis + 1)
    for k in range(3):
        for j in range(3):
            s = LEVI_CIVITA[k, axis, j]
            if s:
                out = out + (Poly.variable(j + 1) * p.diff(k + 1)).scale(side * s)
    out = out - Poly.variable(axis + 1) * p.diff(0)
    return out.scale(1.0 / R)


def _ref_j_raw(p, axis):
    out = Poly()
    for j in range(3):
        for k in range(3):
            s = LEVI_CIVITA[axis, j, k]
            if s:
                out = out + (Poly.variable(j + 1) * p.diff(k + 1)).scale(s)
    return out


def _ref_laplace_beltrami(p, R):
    f0 = p.diff(0)
    fk = [p.diff(k) for k in (1, 2, 3)]
    out = Poly()
    for k in range(3):
        out = out - (Poly.variable(k + 1) * fk[k]).scale(3.0)
    out = out - (Poly.variable(0) * f0).scale(3.0)
    for k in range(3):
        for m_ in range(3):
            fkm = fk[k].diff(m_ + 1)
            if k == m_:
                out = out + fkm
            out = out - Poly.variable(k + 1) * Poly.variable(m_ + 1) * fkm
    for k in range(3):
        out = out - (Poly.variable(0) * Poly.variable(k + 1) * f0.diff(k + 1)).scale(2.0)
    s2 = (Poly.variable(1) * Poly.variable(1) + Poly.variable(2) * Poly.variable(2)
          + Poly.variable(3) * Poly.variable(3))
    out = out + s2 * f0.diff(0)
    return out.scale(1.0 / (R * R))


def _ref_images(p, cfg):
    """name -> image polynomial, composed in the dict algebra."""
    R, m = cfg.R, cfg.m
    nu = [_ref_frame(p, a, R, +1).scale(-1j / m) for a in range(3)]
    out = {f"nu_{a}": nu[a] for a in range(3)}
    out.update({f"left_{a}": _ref_frame(p, a, R, -1) for a in range(3)})
    out.update({f"J_{a}": _ref_j_raw(p, a).scale(-1j) for a in range(3)})
    j2 = Poly()
    h = Poly()
    for a in range(3):
        j2 = j2 + _ref_j_raw(_ref_j_raw(p, a), a)
        h = h + _ref_frame(nu[a], a, R, +1).scale(-1j / m)
    out["J2"] = j2.scale(-1.0)
    out["H_via_nu"] = h.scale(0.5 * m)
    out["H_lb"] = _ref_laplace_beltrami(p, R).scale(-0.5 / m)
    return out


def _mapped_images(wf, cfg):
    out = {f"nu_{a}": apply_nu(a, wf, cfg) for a in range(3)}
    out.update({f"left_{a}": left_action_operator(a, wf, cfg) for a in range(3)})
    out.update({f"J_{a}": apply_J(a, wf, cfg) for a in range(3)})
    out["J2"] = apply_J("squared", wf, cfg)
    out["H_via_nu"] = apply_hamiltonian(wf, cfg, "via_nu", "analytic")
    out["H_lb"] = apply_hamiltonian(wf, cfg, "laplace_beltrami", "analytic")
    return {name: wave_poly(img) for name, img in out.items()}


@pytest.mark.parametrize("cfg", [SpaceConfig(1.0, 1.0), SpaceConfig(1.3, 0.7)],
                         ids=["R1-m1", "R1.3-m0.7"])
def test_operator_maps_match_qpoly_algebra(cfg):
    # every label with n <= 6; relative to the largest reference coefficient
    for lb in labels_up_to(6):
        wf = psi(lb, cfg)
        ref = _ref_images(wave_poly(wf), cfg)
        for name, got in _mapped_images(wf, cfg).items():
            want = ref[name]
            keys = set(want.terms) | set(got.terms)
            scale = max((abs(c) for c in want.terms.values()), default=0.0)
            diff = max((abs(got.terms.get(e, 0.0) - want.terms.get(e, 0.0)) for e in keys),
                       default=0.0)
            assert diff <= 1e-15 * scale, (lb, name, diff, scale)


def test_operator_map_positions_are_exact():
    cfg = SpaceConfig(1.3, 0.7)
    for lb in labels_up_to(4):
        p = wave_poly(psi(lb, cfg))
        for axis in range(3):
            want = (Poly.variable(axis + 1) * p).scale(cfg.R)
            assert wave_poly(apply_position(axis, psi(lb, cfg), cfg)).terms == want.terms
        want = p * Poly({(1, 0, 0, 0): 1.0, (0, 0, 0, 0): -1.0})
        got = wave_poly(apply_position("rho", psi(lb, cfg), cfg))
        assert set(got.terms) == set(want.terms)
        for e, c in want.terms.items():
            assert got.terms[e] == c


def _matrix(d, name, axis=0):
    """Integer matrix of an operator map on the monomials of degree <= d."""
    return quantum._operator(d, name, axis)(np.eye(len(monomials(d))))


@pytest.mark.parametrize("d", [3, 6])
def test_operator_map_commutator_tables(d):
    # R Z and the raw rotations are integer matrices on the monomials, so
    # every commutator holds exactly, with no quadrature and no rounding.
    right = [_matrix(d, "right", a) for a in range(3)]
    left = [_matrix(d, "left", a) for a in range(3)]
    j_raw = [_matrix(d, "J", a) for a in range(3)]
    nu2 = _matrix(d, "nu2")
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        # hermitized J = -i J_raw: [J_a, J_b] = i J_c  <=>  [J_raw_a, J_raw_b] = -J_raw_c
        assert np.array_equal(j_raw[a] @ j_raw[b] - j_raw[b] @ j_raw[a], -j_raw[c])
        # Z = (1/R) (R Z): the right frames close with -2/R, the left with +2/R
        assert np.array_equal(right[a] @ right[b] - right[b] @ right[a], -2.0 * right[c])
        assert np.array_equal(left[a] @ left[b] - left[b] @ left[a], 2.0 * left[c])
    for a in range(3):
        for b in range(3):
            assert not np.any(right[a] @ left[b] - left[b] @ right[a])
        # H = -(1/2m R^2) nu2 commutes with every J_a and both frames
        for op in (j_raw[a], right[a], left[a]):
            assert not np.any(nu2 @ op - op @ nu2)
    # J^2 is -sum J_raw^2; the chart-formula Laplacian, built from its own
    # words, is rotation invariant too
    assert np.array_equal(_matrix(d, "J2"), -sum(j @ j for j in j_raw))
    lb = _matrix(d, "lb")
    assert np.any(lb != nu2)
    for j in j_raw:
        assert not np.any(lb @ j - j @ lb)
