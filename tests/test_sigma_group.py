import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from s3sigma import (DomainError, SigmaGroupElement, SpaceConfig,
                     characteristic_check,
                     compose, identity, inverse, left_fields,
                     noether_invariants, quantization_form, right_fields)
from s3sigma.geometry import ChartCoords, canonical_one_form, dual_field, rho
from s3sigma.sigma_group import (ElementBatch, bracket_table_report,
                                 compose_many, distance_many, inverse_many,
                                 expected_right_bracket_coefficients,
                                 group_axiom_residuals,
                                 measured_right_bracket_coefficients, sample_batch)
from s3sigma import numdiff, sigma_group
from s3sigma.sampling import Draws


def element_from_coords(x, rho_sign, cfg):
    """The element with the 8 coordinates (eps, nu, z, phi)."""
    x = np.asarray(x, dtype=float)
    return SigmaGroupElement(x[0:3], rho_sign, x[3:6], float(x[6]),
                             cmath.exp(1j * float(x[7])), cfg)


def dtheta_matrix(g, cfg):
    """Exterior derivative dTheta[a, b] at one element."""
    return sigma_group._dtheta(*sigma_group._coords(g.batch), cfg)[0]


def distance(a, b, cfg):
    return distance_many(a.batch, b.batch, cfg)[0]


def elem(eps, nu, z, cfg, phi=0.0, sign=+1):
    return SigmaGroupElement(np.asarray(eps, dtype=float), sign,
                             np.asarray(nu, dtype=float), float(z),
                             cmath.exp(1j * phi), cfg)


# ---------------------------------------------------------------------------
# group axioms

def test_identity_element(cfg, rng):
    e = identity(cfg)
    for g in sample_batch(rng, cfg, 20):
        assert distance(compose(e, g, cfg), g, cfg) < 1e-14
        assert distance(compose(g, e, cfg), g, cfg) < 1e-14


def test_associativity_and_inverse(cfg_odd, rng):
    res = group_axiom_residuals(rng, cfg_odd, 300)
    assert res["max_associativity_residual"] < 1e-12
    assert res["max_inverse_residual"] < 1e-12


def test_inverse_of_identity_and_involution(cfg, rng):
    e = identity(cfg)
    assert distance(inverse(e, cfg), e, cfg) == 0.0
    for g in sample_batch(rng, cfg, 30):
        gg = inverse(inverse(g, cfg), cfg)
        assert distance(gg, g, cfg) < 1e-13


def test_compose_and_inverse_reject_operands_outside_the_chart_ball(cfg_odd):
    # the height is computed, and the chart ball checked, when an element is made
    for radius in (1.5 * cfg_odd.R, cfg_odd.R * (1.0 + 1e-9)):
        with pytest.raises(DomainError):
            elem([0.0, 0.0, radius], [0.1, 0.2, 0.3], 0.4, cfg_odd)
        # one bad row fails the whole batch
        eps = [[0.1, -0.2, 0.3], [0.0, 0.0, radius], [0.1, -0.2, 0.3]]
        with pytest.raises(DomainError):
            ElementBatch.from_chart(eps, [1, 1, 1], np.zeros((3, 3)), np.zeros(3),
                                    np.ones(3), cfg_odd)


def test_element_batch_rejects_bad_sign_and_phase(cfg_odd):
    eps, nu, z = np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2)
    with pytest.raises(DomainError):
        ElementBatch.from_chart(eps, [1, 0], nu, z, [1.0, 1.0], cfg_odd)
    with pytest.raises(DomainError):
        ElementBatch.from_chart(eps, [1, -1], nu, z, [1.0, 1.0 + 1e-6], cfg_odd)
    # on the chart equator the lower hemisphere's height is -0.0, and it stays there
    g = elem([0.0, 0.0, cfg_odd.R], [0.1, 0.2, 0.3], 0.4, cfg_odd, sign=-1)
    e = identity(cfg_odd)
    assert g.rho_sign == -1 and g.rho == 0.0
    for h in (inverse(g, cfg_odd), compose(e, g, cfg_odd), compose(g, e, cfg_odd)):
        assert h.rho_sign == -1 and h.rho == 0.0
    # the signs are formed once per batch, and a height of -0.0 reads as -1
    b = ElementBatch(eps, np.array([-0.0, 0.0]), nu, z, np.ones(2, dtype=complex))
    assert b.rho_sign is b.rho_sign and list(b.rho_sign) == [-1, 1]
    assert g.batch.rho_sign is g.batch.rho_sign and g.batch.rho_sign[0] == -1


def _reference_compose(gp, g, cfg):
    """The group law written out per element in scalar arithmetic, as the fields
    (eps, rho, nu, z, zeta) of the product; its height is the product's q0."""
    R, m = cfg.R, cfg.m
    rp, r = rho(gp.chart(), cfg), rho(g.chart(), cfg)
    w = rp * r - sum((gp.eps / R) * (g.eps / R))
    eps = R * (rp * (g.eps / R) + r * (gp.eps / R) + np.cross(gp.eps / R, g.eps / R))
    eps_nu = float(sum(gp.eps * g.nu))
    nu = gp.nu + rp * g.nu + np.cross(gp.eps, g.nu) / R + gp.eps * (g.z / R)
    z = gp.z + rp * g.z - eps_nu / R
    zeta = gp.zeta * g.zeta * cmath.exp(1j * -m * (R * (rp - 1.0) * g.z - eps_nu))
    return eps, w, nu, z, zeta / abs(zeta)


def _reference_inverse(g, cfg):
    R, m = cfg.R, cfg.m
    r = rho(g.chart(), cfg)
    eps_nu = float(sum(g.eps * g.nu))
    nu = -r * g.nu + np.cross(g.eps, g.nu) / R + g.eps * (g.z / R)
    zeta = g.zeta.conjugate() * cmath.exp(1j * m * (R * (r - 1.0) * g.z + eps_nu))
    return -g.eps, r, nu, -r * g.z - eps_nu / R, zeta / abs(zeta)


def test_batched_law_matches_scalar_reference_bit_for_bit(cfg_odd, rng):
    # whole chart ball, both hemispheres
    s = sample_batch(rng, cfg_odd, 200, 1.0)
    ab = ElementBatch.from_chart(s.eps, rng.choice([-1, 1], size=200), s.nu, s.z, s.zeta,
                                 cfg_odd)
    a, b = ab[0::2], ab[1::2]
    for k, (prod, inv) in enumerate(zip(compose_many(a, b, cfg_odd),
                                        inverse_many(a, cfg_odd))):
        for got, ref in ((prod, _reference_compose(a[k], b[k], cfg_odd)),
                         (inv, _reference_inverse(a[k], cfg_odd))):
            eps, r, nu, z, zeta = ref
            assert np.array_equal(got.eps, eps)
            assert got.rho == r and got.rho_sign == (-1 if r < 0.0 else 1)
            assert np.array_equal(got.nu, nu)
            assert got.z == z and got.zeta == zeta


def test_su2_sector_is_quaternion_product(cfg, rng):
    # with nu = z = 0 and unit phases the law reduces to quaternion algebra
    for _ in range(20):
        a = sample_batch(rng, cfg, 1)[0]
        b = sample_batch(rng, cfg, 1)[0]
        a0 = elem(a.eps, [0, 0, 0], 0.0, cfg)
        b0 = elem(b.eps, [0, 0, 0], 0.0, cfg)
        c = compose(a0, b0, cfg)
        assert c.zeta == pytest.approx(1.0 + 0j, abs=1e-14)
        ra = rho(a0.chart(), cfg)
        rb = rho(b0.chart(), cfg)
        expected = rb * a0.eps + ra * b0.eps + np.cross(a0.eps, b0.eps) / cfg.R
        np.testing.assert_allclose(c.eps, expected, atol=1e-14)


def test_phase_accumulates_central_extension(cfg):
    # nonzero z and nu feed the phase through the extension cocycle
    a = elem([0.2, 0.0, 0.1], [0.3, -0.1, 0.2], 0.4, cfg)
    b = elem([0.0, 0.15, -0.1], [0.1, 0.2, -0.3], -0.2, cfg)
    c = compose(a, b, cfg)
    ra = rho(a.chart(), cfg)
    expected = cmath.exp(-1j * cfg.m * (cfg.R * (ra - 1.0) * b.z
                                        - float(np.dot(a.eps, b.nu))))
    assert c.zeta == pytest.approx(expected, abs=1e-14)


#: The closed chart ball in units of R, and within 1e-3 R of the equator.
_BALL = st.one_of(st.floats(0.0, 1.0), st.floats(1.0 - 1e-3, 1.0))
#: (direction, |eps| / R, hemisphere, nu and z, phi) of one element.
_GROUP_ELEMENT = st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), _BALL,
                           st.sampled_from([-1, 1]),
                           st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
                           st.floats(-math.pi, math.pi))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 3.0), st.sampled_from([0.7, 1.0]),
       st.lists(_GROUP_ELEMENT, min_size=3, max_size=3))
# Triple 67 of seed 4 in the whole-ball sweep at R = 1 (sample_batch(rng, cfg,
# 3000, 1.0), then signs from rng.random(3000) < 0.5), drawn by the per-element
# sampler sample_batch had before its one batched draw, so that seed now names
# other elements: the triple products lie 5.6e-6 from the chart equator, where
# a height recomputed from eps lost 2e-11.
@example(1.0, 1.0, [
    ([0.25261003192680836, 0.9642494213370995, 0.08007012689515149], 0.9390610538364433, -1,
     [0.7281401102724225, -1.8989514321572265, -0.044284297862726384, 0.00972534918380185],
     0.3742072176553055),
    ([-0.3316968942154744, -0.9082780558820974, 0.25496694603584547], 0.6502108608062733, 1,
     [0.5861374219319715, -0.349959178584431, 0.5847291759640002, 0.00883609285007753],
     0.8731872076312478),
    ([0.10576962925617761, -0.3795738932407361, 0.9190954493941753], 0.8190203065690072, -1,
     [-2.133368189613299, -1.142910648897396, 1.6184803133741628, -0.25134570204695533],
     0.7022387074016059)])
def test_associativity_property(R, m, elements):
    # whole chart ball, both hemispheres, and products near the equator
    cfg = SpaceConfig(R, m)
    gs = []
    for direction, fraction, sign, rest, phi in elements:
        d = np.array(direction)
        if np.linalg.norm(d) < 1e-3:
            d = np.array([0.0, 0.0, 1.0])
        gs.append(elem(R * fraction * d / np.linalg.norm(d), rest[:3], rest[3], cfg, phi, sign))
    lhs = compose(compose(gs[0], gs[1], cfg), gs[2], cfg)
    rhs = compose(gs[0], compose(gs[1], gs[2], cfg), cfg)
    assert distance(lhs, rhs, cfg) < 1e-12
    e = identity(cfg)
    for g in gs:
        gi = inverse(g, cfg)
        assert distance(compose(gi, g, cfg), e, cfg) < 1e-12
        assert distance(compose(g, gi, cfg), e, cfg) < 1e-12


def _reference_sample(rng, cfg, count, radius_fraction=None):
    """sample_batch element by element: draw 11 normals, then scale and phase them in turn."""
    if radius_fraction is None:
        radius_fraction = math.sin(math.pi / 8.0)
    eps = np.empty((count, 3))
    nu = np.empty((count, 3))
    z = np.empty(count)
    zeta = np.empty(count, dtype=complex)
    for k in range(count):
        x = [float(v) for v in rng.standard_normal(11)]
        scale = cfg.R * radius_fraction / math.sqrt(sum(v * v for v in x[:5]))
        eps[k] = [v * scale for v in x[:3]]
        nu[k] = x[5:8]
        z[k] = x[8]
        mod = abs(complex(x[9], x[10]))
        zeta[k] = complex(x[9] / mod, x[10] / mod)
    return ElementBatch.from_chart(eps, np.ones(count, dtype=int), nu, z, zeta, cfg)


def _assert_same_bits(got: ElementBatch, ref: ElementBatch):
    for name in ("eps", "rho", "rho_sign", "nu", "z", "zeta"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("seed", [201, 5])
@pytest.mark.parametrize("radius_fraction", [None, 1.0])
def test_sample_batch_matches_per_element_reference_bit_for_bit(cfg_odd, seed, radius_fraction):
    for count in (3000, 100, 12, 1, 0):
        got = sigma_group.sample_batch(np.random.default_rng(seed), cfg_odd, count, radius_fraction)
        ref = _reference_sample(np.random.default_rng(seed), cfg_odd, count, radius_fraction)
        _assert_same_bits(got, ref)


def test_sample_batch_prefix_is_a_shorter_draw(cfg):
    # the first k elements of a draw of n are a draw of k
    full = sigma_group.sample_batch(np.random.default_rng(202), cfg, 3000, 1.0)
    for k in (1, 12, 100, 2999):
        _assert_same_bits(full[:k], sigma_group.sample_batch(np.random.default_rng(202), cfg, k, 1.0))


def _ks_distance_to_uniform(u):
    """Kolmogorov-Smirnov distance of a sample in [0, 1] to U(0, 1)."""
    u = np.sort(u)
    k = np.arange(1, len(u) + 1)
    return max(np.max(k / len(u) - u), np.max(u - (k - 1) / len(u)))


@pytest.mark.parametrize("make_rng", [lambda: Draws(203), lambda: np.random.default_rng(203)],
                         ids=["Draws", "numpy"])
def test_sample_batch_draws_its_stated_distribution(cfg_odd, make_rng):
    # The group identities hold at any element, so only this test sees the
    # distribution: eps uniform in the ball of radius R, a uniform phase, and
    # standard normal nu and z.  Bounds for n = 3000: the KS distance 0.04 is
    # above the 0.1 % critical value 1.95 / sqrt(n) = 0.036; the means and
    # variances are held to about 4.5 standard errors.
    n, R = 3000, cfg_odd.R
    s = sigma_group.sample_batch(make_rng(), cfg_odd, n, 1.0)
    radius = np.linalg.norm(s.eps, axis=1)
    assert np.all(radius <= R)
    assert _ks_distance_to_uniform((radius / R) ** 3) < 0.04
    assert _ks_distance_to_uniform(np.angle(s.zeta) / (2.0 * math.pi) % 1.0) < 0.04
    assert np.max(np.abs(np.abs(s.zeta) - 1.0)) <= 1e-15
    for sample, mean_bound, var_bound in ((s.nu.ravel(), 0.05, 0.07), (s.z, 0.08, 0.12)):
        assert abs(np.mean(sample)) < mean_bound
        assert abs(np.var(sample) - 1.0) < var_bound


# ---------------------------------------------------------------------------
# invariant fields

def _numeric_fields(g, cfg, left):
    out = np.zeros((8, 8))
    h = 1e-6
    for a in range(8):
        def curve(s):
            x = np.zeros(8)
            x[a] = s
            d = element_from_coords(x, +1, cfg)
            r = compose(g, d, cfg) if left else compose(d, g, cfg)
            return np.concatenate((r.eps, r.nu, [r.z], [r.phi]))
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
    for g in sample_batch(rng, cfg_odd, 5):
        num = _numeric_fields(g, cfg_odd, left=True)
        np.testing.assert_allclose(left_fields(g, cfg_odd), num, atol=1e-8)


def test_right_fields_match_translation_derivative(cfg_odd, rng):
    for g in sample_batch(rng, cfg_odd, 5):
        num = _numeric_fields(g, cfg_odd, left=False)
        np.testing.assert_allclose(right_fields(g, cfg_odd), num, atol=1e-8)


def test_right_bracket_table(cfg_odd, rng):
    # all nonzero structure constants, including the central term in
    # [Z_eps, Z_nu], measured against the expected table
    g = sample_batch(rng, cfg_odd, 1)[0]
    report = bracket_table_report(g, cfg_odd)
    assert report["max_coefficient_deviation"] < 1e-7
    expected = expected_right_bracket_coefficients(cfg_odd)
    # the (eps_i, nu_i) pair carries the central charge -m
    assert expected[(0, 3)][7] == pytest.approx(-cfg_odd.m)
    measured = measured_right_bracket_coefficients(g, cfg_odd)
    assert measured[(0, 3)][7] == pytest.approx(-cfg_odd.m, abs=1e-7)
    assert measured[(0, 3)][6] == pytest.approx(1.0 / cfg_odd.R, abs=1e-7)


def test_left_right_fields_commute(cfg, rng):
    _, mixed = sigma_group.bracket_residuals(sample_batch(rng, cfg, 2), cfg)
    assert np.max(mixed) < 1e-7


def _cross(v):
    return np.array([[0.0, v[2], -v[1]], [-v[2], 0.0, v[0]], [v[1], -v[0], 0.0]], dtype=v.dtype)


def _reference_frames(y, sign, cfg):
    """Left frame, right frame and Theta at coordinates y, per element in scalar
    arithmetic; analytic in y, so a complex y gives complex-step derivatives."""
    R, m = cfg.R, cfg.m
    eps, nu, z = y[0:3], y[3:6], y[6]
    height2 = 1.0 - sum(eps * eps) / (R * R)
    r = sign * np.sqrt(height2 if np.iscomplexobj(y) else max(0.0, height2))
    left = np.zeros((8, 8), dtype=y.dtype)
    left[0:3, 0:3] = left[3:6, 3:6] = r * np.eye(3) - (-1.0 / R) * _cross(eps)
    left[3:6, 6] = -eps / R
    left[3:6, 7] = m * eps
    left[6, 3:6] = eps / R
    left[6, 6] = r
    left[6, 7] = -m * R * (r - 1.0)
    left[7, 7] = 1.0
    right = np.zeros((8, 8), dtype=y.dtype)
    right[0:3, 0:3] = r * np.eye(3) - (1.0 / R) * _cross(eps)
    right[0:3, 3:6] = _cross(-nu) / R + (z / R) * np.eye(3)
    right[0:3, 6] = -nu / R
    right[0:3, 7] = m * nu
    right[3:8, 3:8] = np.eye(5)
    theta = np.zeros(8, dtype=y.dtype)
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
    # the Jacobians are complex steps of the scalar reference
    cfg = SpaceConfig(R, m)
    x, signs = [], []
    for direction, fraction, sign, rest in elements:
        d = np.array(direction)
        if np.linalg.norm(d) < 1e-3:
            d = np.array([0.0, 0.0, 1.0])
        x.append(np.concatenate([R * fraction * d / np.linalg.norm(d), rest, [0.3]]))
        signs.append(sign)
    x, signs = np.array(x), np.array(signs)
    left, right, theta = sigma_group._frames(x, signs, cfg)
    fl, fr, jl, jr = sigma_group._frame_with_jacobian(x, signs, cfg)
    dth = sigma_group._dtheta(x, signs, cfg)

    def reference_jacobian(part, y, sign):
        # J[..., i] = d part[...] / d y^i, each complex step through the scalar reference
        shape = _reference_frames(y, sign, cfg)[part].shape
        jac = numdiff.complex_step_gradient(lambda steps: np.array(
            [_reference_frames(v, sign, cfg)[part].ravel() for v in steps]), y)
        return jac.reshape(shape + (8,))

    for k, (y, sign) in enumerate(zip(x, signs)):
        ref = _reference_frames(y, sign, cfg)
        for got, want in zip((left[k], right[k], theta[k], fl[k], fr[k]), ref + ref[:2]):
            assert np.array_equal(got, want)
        for side, jac in enumerate((jl[k], jr[k])):
            assert np.array_equal(jac, reference_jacobian(side, y, sign))
        jt = reference_jacobian(2, y, sign)
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
    for g in sample_batch(rng, cfg_odd, 25):
        th = quantization_form(g, cfg_odd)
        lf = left_fields(g, cfg_odd)
        rf = right_fields(g, cfg_odd)
        assert th @ rf[7] == pytest.approx(1.0, abs=1e-12)   # central pairing
        for i in range(3):
            assert abs(th @ lf[i]) < 1e-12        # eps-type left fields
            assert abs(th @ lf[3 + i]) < 1e-12    # nu-type left fields


def test_characteristic_subalgebra(cfg_odd, rng):
    for g in sample_batch(rng, cfg_odd, 10):
        chk = characteristic_check(g, cfg_odd)
        assert abs(chk["theta_on_zl_z"]) < 1e-8
        assert chk["dtheta_on_zl_z"] < 1e-8
        assert chk["dtheta_on_central"] < 1e-8
        # nu directions are symplectic, not characteristic
        assert abs(chk["theta_on_zl_nu1"]) < 1e-8
        assert chk["dtheta_on_zl_nu1"] > 1e-3


def _dtheta_exact(g, cfg):
    """Closed-form dTheta for the chart interior."""
    m, R = cfg.m, cfg.R
    out = np.zeros((8, 8))
    for k in range(3):
        out[k, 3 + k] = -m
        out[3 + k, k] = +m
        out[k, 6] = m * g.eps[k] / (R * g.rho)
        out[6, k] = -m * g.eps[k] / (R * g.rho)
    return out


def test_dtheta_numeric_matches_exact(cfg_odd, rng):
    for g in sample_batch(rng, cfg_odd, 5):
        np.testing.assert_allclose(dtheta_matrix(g, cfg_odd),
                                   _dtheta_exact(g, cfg_odd), atol=1e-8)


def test_noether_invariants(cfg_odd, rng):
    e = identity(cfg_odd)
    np.testing.assert_allclose(noether_invariants(e, cfg_odd), np.zeros(7),
                               atol=1e-15)
    for g in sample_batch(rng, cfg_odd, 20):
        inv = noether_invariants(g, cfg_odd)
        np.testing.assert_allclose(inv[3:6], -cfg_odd.m * g.eps, atol=1e-14)
        # invariants are the pairings of the form with the right fields
        th = quantization_form(g, cfg_odd)
        rf = right_fields(g, cfg_odd)
        np.testing.assert_allclose(
            inv, np.array([th @ rf[i] for i in range(7)]), atol=1e-12)


def test_noether_constant_along_characteristic_flow(cfg, rng):
    for g in sample_batch(rng, cfg, 10):
        inv0 = noether_invariants(g, cfg)
        step = SigmaGroupElement(np.zeros(3), +1, np.zeros(3), 0.41, 1.0, cfg)
        inv1 = noether_invariants(compose(g, step, cfg), cfg)
        np.testing.assert_allclose(inv1, inv0, atol=1e-9)


#: (eps / R, hemisphere, nu and z) of one element; an eps / R from the cube
#: outside the ball |eps| <= 0.999 R is moved onto its boundary.
_BALL_ELEMENT = st.tuples(st.lists(st.floats(-0.999, 0.999), min_size=3, max_size=3),
                          st.sampled_from([-1, 1]),
                          st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 3.0), st.floats(0.5, 1.0), st.lists(_BALL_ELEMENT, min_size=1, max_size=4))
# The worst elements of a sweep over seeds 0-4, (R, m) in {0.5, 1, 1.3, 3} x
# {0.5, 0.7, 1}, drawn as criteria 5 (12 elements) and 9 (100) drew them with
# the earlier per-element sampler, but with sample_batch(..., 0.999) and a
# random hemisphere each: the bracket table 2.45e-9 off at element 1 of seed 4
# (R = 0.5, m = 1), and a characteristic contraction of 1.88e-10 at element 10
# of seed 4 (R = 3, m = 1).
# On the 0.999 R shell at R = m = 0.5, the worst of 400 random directions for
# a 4th-order eps stencil of the frames (3.7e-6 off the table), on both
# hemispheres.
@example(0.5, 0.5, [([-0.03238348429763517, 0.30794419841045273, 0.9508531330390033], sign,
                     [2.514099176252362, 2.8034393979044427, 1.6749449348661472,
                      -2.9804117011873705]) for sign in (-1, 1)])
@example(0.5, 1.0, [([0.7455456860199281, -0.4519182295851986, -0.4802172575247066], 1,
                     [0.07761090815755409, 1.8461845295906794, 0.0856037023787924,
                      1.7378013297187684])])
@example(3.0, 1.0, [([0.3575642788013451, 0.2759534616595954, -0.004019484434569202], -1,
                     [-0.4719012618513858, -0.9471503636800391, -1.1319846698560991,
                      -0.33682880514097635])])
def test_lie_algebra_and_quantization_form_hold_on_the_whole_chart_ball(R, m, elements):
    # both hemispheres, at the criterion 5 and 9 tolerances; the Noether
    # table is also held to its closed form from geometry's signed heights
    # and dual field, which pins each element's hemisphere
    cfg = SpaceConfig(R, m)
    eps, signs, rest = [], [], []
    for unit, sign, nu_z in elements:
        u, norm = np.array(unit), np.linalg.norm(unit)
        if norm > 0.999:
            u *= 0.999 / norm
        eps.append(R * u)
        signs.append(sign)
        rest.append(nu_z)
    rest = np.array(rest)
    b = ElementBatch.from_chart(eps, signs, rest[:, :3], rest[:, 3], np.ones(len(rest)), cfg)
    table, mixed = sigma_group.bracket_residuals(b, cfg)
    assert np.max(table) < 1e-7 and np.max(mixed) < 1e-7
    chk = sigma_group.characteristic_many(b, cfg)
    assert np.max(np.abs(chk["theta_on_central"] - 1.0)) < 1e-8
    for key in ("theta_on_zl_z", "dtheta_on_zl_z", "dtheta_on_central", "theta_on_zl_nu1",
                "theta_on_zl_eps1"):
        assert np.max(np.abs(chk[key])) < 1e-8, key
    assert np.min(chk["dtheta_on_zl_nu1"]) > 1e-3
    noether = sigma_group.noether_many(b, cfg)
    assert np.max(np.abs(chk["theta_on_right"][:, :7] - noether)) < 1e-8
    for got, e, sign, nu, z in zip(noether, b.eps, signs, b.nu, b.z):
        c = ChartCoords(e, sign)
        want = np.concatenate([m * (dual_field(c, "right", cfg) @ nu - z * e / R), -m * e,
                               [-m * R * (rho(c, cfg) - 1.0)]])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# quotient onto the solution manifold

def test_quotient_reproduces_solution_coordinates(cfg, rng):
    for g in sample_batch(rng, cfg, 5):
        inv = noether_invariants(g, cfg)
        zr3 = dual_field(g.chart(), "right", cfg)
        theta_def = zr3 @ g.nu - (g.z / cfg.R) * g.eps
        np.testing.assert_allclose(-inv[3:6] / cfg.m, g.eps, atol=1e-14)
        np.testing.assert_allclose(inv[0:3] / cfg.m, theta_def, atol=1e-14)


def test_symplectic_form_matches_canonical_pullback(cfg, rng):
    # dTheta restricted to the (eps, nu) block equals the pullback of
    # d pi ^ d eps through pi(eps, nu; z) = m T_R (Z_R nu - z eps / R)
    for g in sample_batch(rng, cfg, 3):
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
    for g in sample_batch(rng, cfg, 10):
        c = g.chart()
        r = rho(c, cfg)
        th = dual_field(c, "right", cfg) @ g.nu - (g.z / cfg.R) * g.eps
        pi = cfg.m * canonical_one_form(c, "right", cfg) @ th
        np.testing.assert_allclose(
            pi, cfg.m * (g.nu - g.z * g.eps / (cfg.R * r)), atol=1e-13)
