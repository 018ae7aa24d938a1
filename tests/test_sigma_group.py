import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3sigma import (DomainError, SigmaGroupElement, SpaceConfig,
                     characteristic_check,
                     compose, identity, inverse, left_fields,
                     noether_invariants, quantization_form, right_fields)
from s3sigma.geometry import ChartCoords, canonical_one_form, dual_field, rho
from s3sigma.sigma_group import (ElementBatch, bracket_table_report,
                                 compose_many, dtheta_exact, inverse_many,
                                 dtheta_matrix, element_coords,
                                 element_distance, element_from_coords,
                                 expected_right_bracket_coefficients,
                                 group_axiom_residuals,
                                 measured_right_bracket_coefficients,
                                 mixed_bracket_residual, sample_elements)
from s3sigma import numdiff, sigma_group


def elem(eps, nu, z, phi=0.0, sign=+1):
    return SigmaGroupElement(np.asarray(eps, dtype=float), sign,
                             np.asarray(nu, dtype=float), float(z),
                             cmath.exp(1j * phi))


# ---------------------------------------------------------------------------
# group axioms

def test_identity_element(cfg, rng):
    e = identity(cfg)
    for g in sample_elements(rng, cfg, 20):
        assert element_distance(compose(e, g, cfg), g, cfg) < 1e-14
        assert element_distance(compose(g, e, cfg), g, cfg) < 1e-14


def test_associativity_and_inverse(cfg_odd, rng):
    res = group_axiom_residuals(rng, cfg_odd, 300)
    assert res["max_associativity_residual"] < 1e-12
    assert res["max_inverse_residual"] < 1e-12


def test_inverse_of_identity_and_involution(cfg, rng):
    e = identity(cfg)
    assert element_distance(inverse(e, cfg), e, cfg) == 0.0
    for g in sample_elements(rng, cfg, 30):
        gg = inverse(inverse(g, cfg), cfg)
        assert element_distance(gg, g, cfg) < 1e-13


def test_compose_and_inverse_reject_operands_outside_the_chart_ball(cfg_odd):
    inside = elem([0.1, -0.2, 0.3], [0.1, 0.2, 0.3], 0.4)
    for radius in (1.5 * cfg_odd.R, cfg_odd.R * (1.0 + 1e-9)):
        outside = elem([0.0, 0.0, radius], [0.1, 0.2, 0.3], 0.4)
        with pytest.raises(DomainError):
            compose(outside, inside, cfg_odd)
        with pytest.raises(DomainError):
            compose(inside, outside, cfg_odd)
        with pytest.raises(DomainError):
            inverse(outside, cfg_odd)
        # one bad row fails the whole batch
        batch = ElementBatch.of([inside, outside, inside])
        with pytest.raises(DomainError):
            compose_many(batch, batch, cfg_odd)


def test_element_batch_rejects_bad_sign_and_phase():
    eps, nu, z = np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2)
    with pytest.raises(DomainError):
        ElementBatch(eps, [1, 0], nu, z, [1.0, 1.0])
    with pytest.raises(DomainError):
        ElementBatch(eps, [1, -1], nu, z, [1.0, 1.0 + 1e-6])


def _reference_compose(gp, g, cfg):
    """The group law written out per element in scalar arithmetic."""
    R, m = cfg.R, cfg.m
    rp, r = rho(gp.chart(), cfg), rho(g.chart(), cfg)
    w = rp * r - float(np.dot(gp.eps, g.eps)) / (R * R)
    eps = R * (rp * (g.eps / R) + r * (gp.eps / R) + np.cross(gp.eps / R, g.eps / R))
    eps_nu = float(np.dot(gp.eps, g.nu))
    nu = gp.nu + rp * g.nu + np.cross(gp.eps, g.nu) / R + gp.eps * (g.z / R)
    z = gp.z + rp * g.z - eps_nu / R
    phase = -m * (R * (rp - 1.0) * g.z - eps_nu)
    return SigmaGroupElement(eps, 1 if w >= 0.0 else -1, nu, z,
                             gp.zeta * g.zeta * cmath.exp(1j * phase))


def _reference_inverse(g, cfg):
    R, m = cfg.R, cfg.m
    r = rho(g.chart(), cfg)
    eps_nu = float(np.dot(g.eps, g.nu))
    nu = -r * g.nu + np.cross(g.eps, g.nu) / R + g.eps * (g.z / R)
    phase = m * (R * (r - 1.0) * g.z + eps_nu)
    return SigmaGroupElement(-g.eps, g.rho_sign, nu, -r * g.z - eps_nu / R,
                             g.zeta.conjugate() * cmath.exp(1j * phase))


def test_batched_law_matches_scalar_reference_bit_for_bit(cfg_odd, rng):
    # whole chart ball, both hemispheres
    gs = [SigmaGroupElement(g.eps, sign, g.nu, g.z, g.zeta)
          for g, sign in zip(sample_elements(rng, cfg_odd, 200, 1.0),
                             rng.choice([-1, 1], size=200))]
    a, b = ElementBatch.of(gs[0::2]), ElementBatch.of(gs[1::2])
    for k, (prod, inv) in enumerate(zip(compose_many(a, b, cfg_odd),
                                        inverse_many(a, cfg_odd))):
        for got, ref in ((prod, _reference_compose(a[k], b[k], cfg_odd)),
                         (inv, _reference_inverse(a[k], cfg_odd))):
            assert np.array_equal(got.eps, ref.eps)
            assert got.rho_sign == ref.rho_sign
            assert np.array_equal(got.nu, ref.nu)
            assert got.z == ref.z and got.zeta == ref.zeta


def test_su2_sector_is_quaternion_product(cfg, rng):
    # with nu = z = 0 and unit phases the law reduces to quaternion algebra
    for _ in range(20):
        a = sample_elements(rng, cfg, 1)[0]
        b = sample_elements(rng, cfg, 1)[0]
        a0 = elem(a.eps, [0, 0, 0], 0.0)
        b0 = elem(b.eps, [0, 0, 0], 0.0)
        c = compose(a0, b0, cfg)
        assert c.zeta == pytest.approx(1.0 + 0j, abs=1e-14)
        ra = rho(a0.chart(), cfg)
        rb = rho(b0.chart(), cfg)
        expected = rb * a0.eps + ra * b0.eps + np.cross(a0.eps, b0.eps) / cfg.R
        np.testing.assert_allclose(c.eps, expected, atol=1e-14)


def test_phase_accumulates_central_extension(cfg):
    # nonzero z and nu feed the phase through the extension cocycle
    a = elem([0.2, 0.0, 0.1], [0.3, -0.1, 0.2], 0.4)
    b = elem([0.0, 0.15, -0.1], [0.1, 0.2, -0.3], -0.2)
    c = compose(a, b, cfg)
    ra = rho(a.chart(), cfg)
    expected = cmath.exp(-1j * cfg.m * (cfg.R * (ra - 1.0) * b.z
                                        - float(np.dot(a.eps, b.nu))))
    assert c.zeta == pytest.approx(expected, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-0.2, 0.2), min_size=9, max_size=9),
       st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
def test_associativity_property(eps_flat, rest):
    cfg = SpaceConfig(1.0, 1.0)
    es = np.array(eps_flat).reshape(3, 3)
    gs = []
    for k in range(3):
        gs.append(elem(es[k], rest[3 * k: 3 * k + 2] + [0.0],
                       rest[3 * k + 2], 0.3 * k))
    lhs = compose(compose(gs[0], gs[1], cfg), gs[2], cfg)
    rhs = compose(gs[0], compose(gs[1], gs[2], cfg), cfg)
    assert element_distance(lhs, rhs, cfg) < 1e-12


# ---------------------------------------------------------------------------
# invariant fields

def _numeric_fields(g, cfg, left):
    out = np.zeros((8, 8))
    h = 1e-6
    for a in range(8):
        def curve(s):
            x = np.zeros(8)
            x[a] = s
            d = element_from_coords(x, +1)
            r = compose(g, d, cfg) if left else compose(d, g, cfg)
            return element_coords(r)
        acc = 0.0
        for o, w in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
            acc = acc + w * curve(o * h)
        out[a] = acc / (12.0 * h)
    return out


def test_fields_at_identity_are_algebra_basis(cfg):
    e = identity(cfg)
    np.testing.assert_allclose(left_fields(e, cfg), right_fields(e, cfg),
                               atol=1e-15)
    np.testing.assert_allclose(left_fields(e, cfg), np.eye(8), atol=1e-15)


def test_left_fields_match_translation_derivative(cfg_odd, rng):
    for g in sample_elements(rng, cfg_odd, 5):
        num = _numeric_fields(g, cfg_odd, left=True)
        np.testing.assert_allclose(left_fields(g, cfg_odd), num, atol=1e-8)


def test_right_fields_match_translation_derivative(cfg_odd, rng):
    for g in sample_elements(rng, cfg_odd, 5):
        num = _numeric_fields(g, cfg_odd, left=False)
        np.testing.assert_allclose(right_fields(g, cfg_odd), num, atol=1e-8)


def test_right_bracket_table(cfg_odd, rng):
    # all nonzero structure constants, including the central term in
    # [Z_eps, Z_nu], measured against the expected table
    g = sample_elements(rng, cfg_odd, 1)[0]
    report = bracket_table_report(g, cfg_odd)
    assert report["max_coefficient_deviation"] < 1e-7
    expected = expected_right_bracket_coefficients(cfg_odd)
    # the (eps_i, nu_i) pair carries the central charge -m
    assert expected[(0, 3)][7] == pytest.approx(-cfg_odd.m)
    measured = measured_right_bracket_coefficients(g, cfg_odd)
    assert measured[(0, 3)][7] == pytest.approx(-cfg_odd.m, abs=1e-7)
    assert measured[(0, 3)][6] == pytest.approx(1.0 / cfg_odd.R, abs=1e-7)


def test_left_right_fields_commute(cfg, rng):
    for g in sample_elements(rng, cfg, 2):
        assert mixed_bracket_residual(g, cfg) < 1e-7


def _cross(v):
    return np.array([[0.0, v[2], -v[1]], [-v[2], 0.0, v[0]], [v[1], -v[0], 0.0]])


def _reference_frames(y, sign, cfg):
    """Left frame, right frame and Theta at coordinates y, per element in scalar arithmetic."""
    R, m = cfg.R, cfg.m
    eps, nu, z = y[0:3], y[3:6], float(y[6])
    r = sign * math.sqrt(max(0.0, 1.0 - float(np.dot(eps, eps)) / (R * R)))
    left = np.zeros((8, 8))
    left[0:3, 0:3] = left[3:6, 3:6] = r * np.eye(3) - (-1.0 / R) * _cross(eps)
    left[3:6, 6] = -eps / R
    left[3:6, 7] = m * eps
    left[6, 3:6] = eps / R
    left[6, 6] = r
    left[6, 7] = -m * R * (r - 1.0)
    left[7, 7] = 1.0
    right = np.zeros((8, 8))
    right[0:3, 0:3] = r * np.eye(3) - (1.0 / R) * _cross(eps)
    right[0:3, 3:6] = _cross(-nu) / R + (z / R) * np.eye(3)
    right[0:3, 6] = -nu / R
    right[0:3, 7] = m * nu
    right[3:8, 3:8] = np.eye(5)
    theta = np.zeros(8)
    theta[3:6] = -m * eps
    theta[6] = -m * R * (r - 1.0)
    theta[7] = 1.0
    return left, right, theta


_RADIUS = st.one_of(st.floats(0.0, 0.95), st.floats(1.0 - 1e-3, 1.0 - 1e-4))
_ELEMENT = st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), _RADIUS,
                     st.sampled_from([-1, 1]),
                     st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.5, 1.3, 3.0]), st.sampled_from([0.7, 1.0]),
       st.lists(_ELEMENT, min_size=1, max_size=4))
def test_frame_kernel_matches_scalar_reference_bit_for_bit(R, m, elements):
    # whole chart ball and within 1e-3 R of the equator, both hemispheres;
    # the stencils of every point stay inside the ball
    cfg = SpaceConfig(R, m)
    x, signs = [], []
    for direction, fraction, sign, rest in elements:
        d = np.array(direction)
        if np.linalg.norm(d) < 1e-3:
            d = np.array([0.0, 0.0, 1.0])
        x.append(np.concatenate([R * fraction * d / np.linalg.norm(d), rest, [0.3]]))
        signs.append(sign)
    x, signs = np.array(x), np.array(signs)
    steps = 1e-5 * np.array([R, R, R, 1.0, 1.0, 1.0, 1.0, 1.0])
    left, right, theta = sigma_group._frames(x, signs, cfg)
    fl, fr, jl, jr = sigma_group._frame_with_jacobian(x, signs, cfg)
    dth = sigma_group._dtheta(x, signs, cfg)
    for k, (y, sign) in enumerate(zip(x, signs)):
        ref = _reference_frames(y, sign, cfg)
        for got, want in zip((left[k], right[k], theta[k], fl[k], fr[k]), ref + ref[:2]):
            assert np.array_equal(got, want)
        for side, jac in enumerate((jl[k], jr[k])):
            want = numdiff.jacobian(lambda v: _reference_frames(v, sign, cfg)[side], y, steps)
            assert np.array_equal(jac, want)
        jt = numdiff.jacobian(lambda v: _reference_frames(v, sign, cfg)[2], y, steps)
        assert np.array_equal(dth[k], jt.T - jt)


def test_frame_kernel_rejects_points_outside_the_chart_ball(cfg_odd):
    for eps in ([0.0, 0.0, 1.5 * cfg_odd.R], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        x = np.concatenate([eps, np.zeros(5)])[None]
        with pytest.raises(DomainError):
            sigma_group._frames(x, np.array([1]), cfg_odd)


# ---------------------------------------------------------------------------
# quantization form

def test_theta_at_identity_is_pure_phase_direction(cfg):
    th = quantization_form(identity(cfg), cfg)
    np.testing.assert_allclose(th, np.array([0, 0, 0, 0, 0, 0, 0, 1.0]))


def test_theta_contractions(cfg_odd, rng):
    for g in sample_elements(rng, cfg_odd, 25):
        th = quantization_form(g, cfg_odd)
        lf = left_fields(g, cfg_odd)
        rf = right_fields(g, cfg_odd)
        assert th @ rf[7] == pytest.approx(1.0, abs=1e-12)   # central pairing
        for i in range(3):
            assert abs(th @ lf[i]) < 1e-12        # eps-type left fields
            assert abs(th @ lf[3 + i]) < 1e-12    # nu-type left fields


def test_characteristic_subalgebra(cfg_odd, rng):
    for g in sample_elements(rng, cfg_odd, 10):
        chk = characteristic_check(g, cfg_odd)
        assert abs(chk["theta_on_zl_z"]) < 1e-8
        assert chk["dtheta_on_zl_z"] < 1e-8
        assert chk["dtheta_on_central"] < 1e-8
        # nu directions are symplectic, not characteristic
        assert abs(chk["theta_on_zl_nu1"]) < 1e-8
        assert chk["dtheta_on_zl_nu1"] > 1e-3


def test_dtheta_numeric_matches_exact(cfg_odd, rng):
    for g in sample_elements(rng, cfg_odd, 5):
        np.testing.assert_allclose(dtheta_matrix(g, cfg_odd),
                                   dtheta_exact(g, cfg_odd), atol=1e-8)


def test_noether_invariants(cfg_odd, rng):
    e = identity(cfg_odd)
    np.testing.assert_allclose(noether_invariants(e, cfg_odd), np.zeros(7),
                               atol=1e-15)
    for g in sample_elements(rng, cfg_odd, 20):
        inv = noether_invariants(g, cfg_odd)
        np.testing.assert_allclose(inv[3:6], -cfg_odd.m * g.eps, atol=1e-14)
        # invariants are the pairings of the form with the right fields
        th = quantization_form(g, cfg_odd)
        rf = right_fields(g, cfg_odd)
        np.testing.assert_allclose(
            inv, np.array([th @ rf[i] for i in range(7)]), atol=1e-12)


def test_noether_constant_along_characteristic_flow(cfg, rng):
    for g in sample_elements(rng, cfg, 10):
        inv0 = noether_invariants(g, cfg)
        step = SigmaGroupElement(np.zeros(3), +1, np.zeros(3), 0.41, 1.0)
        inv1 = noether_invariants(compose(g, step, cfg), cfg)
        np.testing.assert_allclose(inv1, inv0, atol=1e-9)


# ---------------------------------------------------------------------------
# quotient onto the solution manifold

def test_quotient_reproduces_solution_coordinates(cfg, rng):
    for g in sample_elements(rng, cfg, 5):
        inv = noether_invariants(g, cfg)
        zr3 = dual_field(g.chart(), "right", cfg)
        theta_def = zr3 @ g.nu - (g.z / cfg.R) * g.eps
        np.testing.assert_allclose(-inv[3:6] / cfg.m, g.eps, atol=1e-14)
        np.testing.assert_allclose(inv[0:3] / cfg.m, theta_def, atol=1e-14)


def test_symplectic_form_matches_canonical_pullback(cfg, rng):
    # dTheta restricted to the (eps, nu) block equals the pullback of
    # d pi ^ d eps through pi(eps, nu; z) = m T_R (Z_R nu - z eps / R)
    for g in sample_elements(rng, cfg, 3):
        def pi_of(eps, nu):
            c = ChartCoords(eps, g.rho_sign)
            th = dual_field(c, "right", cfg) @ nu - (g.z / cfg.R) * eps
            return cfg.m * canonical_one_form(c, "right", cfg) @ th

        u0 = np.concatenate([g.eps, g.nu])

        def chart_map(u):
            return np.concatenate([u[:3], pi_of(u[:3], u[3:])])

        jac = numdiff.jacobian(chart_map, u0, 1e-6)
        w = np.zeros((6, 6))
        for a in range(3):
            w[a, 3 + a] = -1.0
            w[3 + a, a] = +1.0
        pulled = jac.T @ w @ jac
        block = dtheta_matrix(g, cfg)[np.ix_(range(6), range(6))]
        np.testing.assert_allclose(pulled, block, atol=1e-8)


def test_group_side_darboux_momentum_closed_form(cfg, rng):
    # T_R (Z_R nu - z eps/R) simplifies to nu - z eps / (R rho)
    for g in sample_elements(rng, cfg, 10):
        c = g.chart()
        r = rho(c, cfg)
        th = dual_field(c, "right", cfg) @ g.nu - (g.z / cfg.R) * g.eps
        pi = cfg.m * canonical_one_form(c, "right", cfg) @ th
        np.testing.assert_allclose(
            pi, cfg.m * (g.nu - g.z * g.eps / (cfg.R * r)), atol=1e-13)
