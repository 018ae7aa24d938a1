import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from s3sigma import (ChartBoundaryError, ChartCoords, DomainError, S3Point,
                     SpaceConfig, StencilError, canonical_one_form, dual_field,
                     killing_residual, metric, metric_inverse, rho)
from s3sigma.classical import christoffel
from s3sigma.geometry import LEVI_CIVITA, sample_chart_arrays
from s3sigma import numdiff
from s3sigma.sampling import Draws


def sample_chart_points(rng, cfg, count, max_radius_fraction=0.9, both_hemispheres=True):
    """`sample_chart_arrays` as one `ChartCoords` per point."""
    eps, signs = sample_chart_arrays(rng, cfg, count, max_radius_fraction, both_hemispheres)
    return [ChartCoords(e, int(s)) for e, s in zip(eps, signs)]


def chart(eps, sign=+1):
    return ChartCoords(np.asarray(eps, dtype=float), sign)


# ---------------------------------------------------------------------------
# rho

def test_rho_origin(cfg):
    assert rho(chart([0, 0, 0]), cfg) == 1.0


def test_rho_equator(cfg):
    assert rho(chart([cfg.R, 0, 0]), cfg) == 0.0


def test_rho_half_radius(cfg_odd):
    r = rho(chart([cfg_odd.R / 2, 0, 0]), cfg_odd)
    assert r == pytest.approx(math.sqrt(3) / 2, abs=1e-15)


def test_rho_sign_tracks_hemisphere(cfg):
    assert rho(chart([0.5, 0, 0], -1), cfg) < 0


def test_rho_outside_ball_rejected(cfg):
    with pytest.raises(DomainError):
        rho(chart([1.5, 0, 0]), cfg)


def test_validate_holds_the_chart_ball_bound_of_rho(cfg_odd):
    # Inside |eps| <= R (1 + 1e-12) but outside |eps|^2 / R^2 <= 1 + 1e-12.
    c = chart([cfg_odd.R * (1 + 7e-13), 0, 0])
    with pytest.raises(DomainError):
        c.validate(cfg_odd)
    with pytest.raises(DomainError):
        rho(c, cfg_odd)


# ---------------------------------------------------------------------------
# metric

def test_metric_at_origin_is_identity(cfg):
    np.testing.assert_allclose(metric(chart([0, 0, 0]), cfg), np.eye(3))


def test_metric_determinant_is_inverse_rho_squared(cfg_odd, rng):
    # det(I + v v^T) = 1 + |v|^2, so det g = 1 + |eps|^2/(R^2 rho^2) = 1/rho^2
    for c in sample_chart_points(rng, cfg_odd, 100):
        r = rho(c, cfg_odd)
        det = np.linalg.det(metric(c, cfg_odd))
        assert det == pytest.approx(1.0 / r ** 2, rel=1e-10)


@pytest.mark.parametrize("make_rng", [lambda: Draws(204), lambda: np.random.default_rng(204)],
                         ids=["Draws", "numpy"])
def test_sample_chart_points_fill_the_ball_uniformly(cfg_odd, make_rng):
    # (|eps| / f R)^3 and the direction's last component are uniform, the two
    # hemispheres equally likely (5 standard errors); the upper one alone on request
    n, f = 3000, 0.9
    pts = sample_chart_points(make_rng(), cfg_odd, n, f)
    eps = np.array([c.eps for c in pts])
    r = np.linalg.norm(eps, axis=1)
    assert r.max() <= f * cfg_odd.R
    assert stats.kstest((r / (f * cfg_odd.R)) ** 3, "uniform").pvalue > 1e-3
    assert stats.kstest(eps[:, 2] / r, "uniform", args=(-1.0, 2.0)).pvalue > 1e-3
    assert abs(np.mean([c.rho_sign for c in pts])) < 5.0 / math.sqrt(n)
    upper = sample_chart_points(make_rng(), cfg_odd, 50, f, both_hemispheres=False)
    assert {c.rho_sign for c in upper} == {1}


def test_chart_point_arrays_are_the_chart_coords_rows(cfg_odd):
    eps, signs = sample_chart_arrays(Draws(0), cfg_odd, 100)
    pts = sample_chart_points(Draws(0), cfg_odd, 100)
    assert eps.shape == (100, 3) and signs.shape == (100,)
    assert np.array_equal(eps, [c.eps for c in pts])
    assert signs.tolist() == [c.rho_sign for c in pts]


def test_metric_times_inverse_is_identity(cfg_odd, rng):
    for c in sample_chart_points(rng, cfg_odd, 50):
        prod = metric(c, cfg_odd) @ metric_inverse(c, cfg_odd)
        np.testing.assert_allclose(prod, np.eye(3), atol=1e-12)


def test_metric_equator_raises(cfg):
    with pytest.raises(ChartBoundaryError):
        metric(chart([cfg.R, 0, 0]), cfg)


def test_metric_inverse_at_origin_and_equator(cfg):
    np.testing.assert_allclose(metric_inverse(chart([0, 0, 0]), cfg), np.eye(3))
    np.testing.assert_allclose(metric_inverse(chart([cfg.R, 0, 0]), cfg),
                               np.diag([0.0, 1.0, 1.0]), atol=1e-15)


# ---------------------------------------------------------------------------
# invariant frames

def test_frames_at_origin_are_identity(cfg):
    for side in ("left", "right"):
        np.testing.assert_allclose(canonical_one_form(chart([0, 0, 0]), side, cfg),
                                   np.eye(3))
        np.testing.assert_allclose(dual_field(chart([0, 0, 0]), side, cfg),
                                   np.eye(3))


def test_one_form_rejects_equator(cfg):
    with pytest.raises(ChartBoundaryError):
        canonical_one_form(chart([0, cfg.R, 0]), "right", cfg)


def test_metric_reconstruction_both_sides(cfg_odd, rng):
    # -(R^2/8) k_kl theta^k theta^l with k = -(8/R^2) delta reduces to T^T T.
    for c in sample_chart_points(rng, cfg_odd, 40):
        g = metric(c, cfg_odd)
        for side in ("left", "right"):
            T = canonical_one_form(c, side, cfg_odd)
            np.testing.assert_allclose(T.T @ T, g, atol=1e-12)


def test_duality_same_side_matrix_product(cfg_odd, rng):
    for c in sample_chart_points(rng, cfg_odd, 40):
        for side in ("left", "right"):
            T = canonical_one_form(c, side, cfg_odd)
            Z = dual_field(c, side, cfg_odd)
            np.testing.assert_allclose(T @ Z, np.eye(3), atol=1e-12)


def test_dual_field_polynomial_at_equator(cfg):
    # no 1/rho dependence, must evaluate cleanly on the equator
    Z = dual_field(chart([cfg.R, 0, 0]), "right", cfg)
    assert np.all(np.isfinite(Z))


# ---------------------------------------------------------------------------
# numerical bracket structure constants

def _frame_jacobian(side, cfg, c, h):
    """Z at c and J[i, k, l] = d Z[i, k] / d x^l, from one stencil_gradient call."""
    def frame(x):
        return np.array([dual_field(ChartCoords(p, c.rho_sign), side, cfg).ravel()
                         for p in x.reshape(-1, 3)]).reshape(x.shape[:-1] + (9,))
    jac = numdiff.stencil_gradient(frame, c.eps, h).reshape(3, 3, 3)
    return dual_field(c, side, cfg), jac


def _bracket(zi, ji, zj, jj):
    """[X, Y]^k = X^l d_l Y^k - Y^l d_l X^k from fields and Jacobians."""
    return jj @ zi - ji @ zj


@pytest.mark.parametrize("side,coef", [("right", -2.0), ("left", +2.0)])
def test_frame_bracket_structure_constants(side, coef, cfg_odd, rng):
    h = 1e-5 * cfg_odd.R
    for c in sample_chart_points(rng, cfg_odd, 10, 0.7):
        Z, J = _frame_jacobian(side, cfg_odd, c, h)
        for i in range(3):
            for j in range(3):
                br = _bracket(Z[i], J[i], Z[j], J[j])
                expected = (coef / cfg_odd.R) * np.einsum(
                    "k,kl->l", LEVI_CIVITA[:, i, j], Z)
                np.testing.assert_allclose(br, expected, atol=1e-8)


def test_left_right_fields_commute(cfg_odd, rng):
    h = 1e-5 * cfg_odd.R
    for c in sample_chart_points(rng, cfg_odd, 20, 0.7):
        zl, jl = _frame_jacobian("left", cfg_odd, c, h)
        zr, jr = _frame_jacobian("right", cfg_odd, c, h)
        for i in range(3):
            for j in range(3):
                br = _bracket(zl[i], jl[i], zr[j], jr[j])
                np.testing.assert_allclose(br, 0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# Killing residuals

def test_invariant_fields_are_killing(cfg_odd, rng):
    for c in sample_chart_points(rng, cfg_odd, 5, 0.6):
        for side in ("left", "right"):
            for i in range(3):
                res = killing_residual(
                    c, lambda cc, side=side, i=i: dual_field(cc, side, cfg_odd)[i],
                    cfg_odd)
                assert res < 1e-7


def test_constant_field_is_not_killing(cfg):
    c = chart([0.5, 0.1, -0.2])
    res = killing_residual(c, lambda cc: np.array([1.0, 0.0, 0.0]), cfg)
    assert res > 1e-3


def test_killing_stencil_error_near_equator(cfg):
    c = chart([cfg.R * (1 - 1e-9), 0, 0])
    with pytest.raises(StencilError):
        killing_residual(c, lambda cc: np.array([1.0, 0.0, 0.0]), cfg)


@pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
def test_christoffel_matches_closed_form_up_to_the_chart_equator(R, rng):
    # Gamma^j_kl = eps^j g_kl / R^2, on both hemispheres, inside the ball and
    # on the 0.999 R shell, where a 4th-order stencil of g was 5e-6 off
    cfg = SpaceConfig(R, 1.0)
    directions = rng.standard_normal((40, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    points = sample_chart_points(rng, cfg, 40, 0.999) + [
        chart(0.999 * R * d, sign) for d in directions for sign in (-1, 1)]
    for c in points:
        want = np.einsum("j,kl->jkl", c.eps, metric(c, cfg)) / (R * R)
        assert np.max(np.abs(christoffel(c, cfg) - want)) <= 1e-11 * np.max(np.abs(want))
    for sign in (-1, 1):
        assert np.all(np.isfinite(christoffel(chart([R * (1 - 1e-9), 0, 0], sign), cfg)))


# ---------------------------------------------------------------------------
# chart round trips

def test_chart_round_trip_both_hemispheres(cfg_odd, rng):
    for c in sample_chart_points(rng, cfg_odd, 1000):
        p = S3Point.from_chart(c, cfg_odd)
        back = p.to_chart(cfg_odd)
        np.testing.assert_allclose(back.eps, c.eps, atol=1e-12 * cfg_odd.R)
        assert back.rho_sign == c.rho_sign or rho(c, cfg_odd) == 0.0


def test_s3point_renormalizes(cfg):
    p = S3Point(np.array([1.0 + 3e-7, 0.0, 0.0, 0.0]))
    assert np.linalg.norm(p.q) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        S3Point(np.array([2.0, 0.0, 0.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3),
       st.sampled_from([-1, 1]))
def test_round_trip_property(eps, sign):
    cfg = SpaceConfig(1.0, 1.0)
    c = ChartCoords(np.array(eps), sign)
    if np.linalg.norm(c.eps) >= cfg.R:
        return
    back = S3Point.from_chart(c, cfg).to_chart(cfg)
    assert np.max(np.abs(back.eps - c.eps)) < 1e-12
    assert back.rho_sign == sign


def test_quat_mul_matches_cross_product_form_bit_for_bit(rng):
    from s3sigma.geometry import quat_mul

    def reference(a, b):
        w = a[..., 0] * b[..., 0] - np.sum(a[..., 1:] * b[..., 1:], axis=-1)
        v = (a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:]
             + np.cross(a[..., 1:], b[..., 1:]))
        return np.concatenate([w[..., None], v], axis=-1)

    def unit(shape, sign):
        q = rng.normal(size=shape + (4,))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        q[..., 0] = sign * np.abs(q[..., 0])
        return q

    for sa, sb in ((1, 1), (1, -1), (-1, -1)):  # both hemispheres
        for shape_a, shape_b in (((1000,), (1000,)), ((61, 128), (61, 128)),
                                 ((61, 1), (1, 128)), ((5,), ()), ((), ())):
            a, b = unit(shape_a, sa), unit(shape_b, sb)
            out = quat_mul(a, b)
            assert out.shape == np.broadcast_shapes(a.shape, b.shape)
            assert np.array_equal(out, reference(a, b))
