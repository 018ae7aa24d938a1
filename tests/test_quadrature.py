import math
from fractions import Fraction

import numpy as np
import pytest

from s3sigma import QuadratureError, SpaceConfig, build_grid, integrate
from s3sigma.quadrature import (_gauss_legendre, axis_rules, exact_volume, integrate_values,
                                volume)


def test_total_weight_is_invariant_volume(cfg_odd):
    grid = build_grid(24, 16, 32, cfg_odd)
    rel = abs(volume(grid) - exact_volume(cfg_odd)) / exact_volume(cfg_odd)
    assert rel < 1e-12


def test_normalized_constant_integrates_to_one(cfg):
    grid = build_grid(24, 16, 32, cfg)
    val = integrate(lambda c, t, p: np.full_like(c, 1.0 / exact_volume(cfg)),
                    grid)
    assert val == pytest.approx(1.0, abs=1e-13)


def test_rho_squared_mean_value(cfg_odd):
    # 1-D oracle: mean of cos^2(chi) under sin^2(chi) d chi is exactly 1/4
    grid = build_grid(24, 16, 32, cfg_odd)
    val = integrate(lambda c, t, p: np.cos(c) ** 2, grid)
    assert val == pytest.approx(exact_volume(cfg_odd) / 4.0, rel=1e-13)


def test_zero_function(cfg):
    grid = build_grid(8, 8, 8, cfg)
    assert integrate(lambda c, t, p: np.zeros_like(c), grid) == 0.0


def test_phi_odd_function_vanishes(cfg):
    grid = build_grid(12, 8, 16, cfg)
    val = integrate(lambda c, t, p: np.cos(p), grid)
    assert abs(val) < 1e-14


def test_minimum_orders_enforced(cfg):
    with pytest.raises(QuadratureError):
        build_grid(1, 8, 8, cfg)
    with pytest.raises(QuadratureError):
        build_grid(8, 8, 3, cfg)


def test_nonfinite_integrand_names_node(cfg):
    grid = build_grid(4, 4, 4, cfg)

    def bad(c, t, p):
        out = np.ones_like(c)
        out[5] = np.nan
        return out

    with pytest.raises(QuadratureError, match="node 5"):
        integrate(bad, grid)


def _wallis(k: int) -> Fraction:
    # integral of cos^k over [0, pi]: pi (k-1)!!/k!! for even k, else 0
    if k % 2 == 1:
        return Fraction(0)
    num, den = 1, 1
    for j in range(k, 0, -2):
        num *= j - 1 if j - 1 > 0 else 1
        den *= j
    return Fraction(num, den)


def test_chi_rule_exact_for_polynomials(cfg):
    # The chi rule is Gauss-Legendre in the angle, so products
    # cos^k(chi) sin^2(chi) are trigonometric rather than algebraic
    # polynomials; machine agreement with the closed-form reference holds
    # for k up to about 1.2 n_chi - 4, which covers every grid the
    # package uses (basis products need k <= 2 n_max + 2).
    n_chi = 24
    grid = build_grid(n_chi, 4, 4, cfg)
    surface = 4.0 * math.pi * cfg.R ** 3
    for k in range(0, 15):
        got = integrate(lambda c, t, p, k=k: np.cos(c) ** k, grid) / surface
        w_k = _wallis(k) - _wallis(k + 2)
        expected = float(w_k) * math.pi
        assert got == pytest.approx(expected, abs=1e-13)


def test_volume_error_decreases_under_refinement(cfg):
    errs = []
    for order in (4, 8, 16, 32):
        grid = build_grid(order, order, 2 * order, cfg)
        errs.append(abs(volume(grid) - exact_volume(cfg)) / exact_volume(cfg))
    assert all(a >= b or a < 1e-13 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-12


def test_node_accessor_and_positive_weights(cfg):
    grid = build_grid(6, 4, 8, cfg)
    assert len(grid) == 6 * 4 * 8
    node = grid.node(17)
    assert 0.0 <= node.chi <= math.pi
    assert 0.0 <= node.theta <= math.pi
    assert 0.0 <= node.phi < 2.0 * math.pi
    assert np.all(grid.weight > 0.0)


def test_integrate_values_complex(cfg):
    grid = build_grid(8, 6, 8, cfg)
    vals = np.exp(1j * grid.phi)
    total = integrate_values(vals, grid)
    assert isinstance(total, complex)
    assert abs(total) < 1e-13


def test_grid_is_built_once_per_orders_and_radius_and_read_only():
    grid = build_grid(10, 8, 12, SpaceConfig(1.7, 0.9))
    assert build_grid(10, 8, 12, SpaceConfig(1.7, 0.9)) is grid
    assert build_grid(10, 8, 12, SpaceConfig(1.8, 0.9)) is not grid
    assert build_grid(10, 8, 14, SpaceConfig(1.7, 0.9)) is not grid
    for values in (grid.chi, grid.theta, grid.phi, grid.weight, grid.q):
        assert not values.flags.writeable
    with pytest.raises(ValueError):
        grid.weight[0] = 0.0


def test_gauss_legendre_matches_numpy_leggauss():
    # numpy's rule is a test-only oracle; its weights are off by up to
    # 1.8e-12 relative for n <= 64, the package's own by 4.5e-14
    for n in range(2, 65):
        x, w = _gauss_legendre(n)
        x_np, w_np = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - x_np)) < 3e-16, n
        assert np.max(np.abs(w / w_np - 1.0)) < 3e-12, n
        assert np.all(np.diff(x) > 0) and not x.flags.writeable and not w.flags.writeable


def _legendre_rule_mp(n, mpmath):
    """Nodes and weights of the n-point Gauss-Legendre rule at mpmath's working
    precision: Newton's method on the Legendre recurrence from numpy's nodes."""
    def legendre(x):
        p0, p1 = mpmath.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    half = []  # the nodes x >= 0; the rule is symmetric
    for x in np.polynomial.legendre.leggauss(n)[0][n // 2:]:
        x = mpmath.mpf(float(x))
        for _ in range(2):  # quadratic: 1e-16, 1e-32, 1e-64
            p, dp = legendre(x)
            x -= p / dp
        p, dp = legendre(x)
        assert abs(p / dp) < mpmath.mpf(10) ** -38
        half.append((x, 2 / ((1 - x * x) * dp * dp)))
    rule = [(-x, w) for x, w in reversed(half[n % 2:])] + half
    return [x for x, _ in rule], [w for _, w in rule]


def test_gauss_legendre_matches_a_40_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in range(2, 65):
            x, w = _gauss_legendre(n)
            x_ref, w_ref = _legendre_rule_mp(n, mpmath)
            assert max(abs(float(a - b)) for a, b in zip(x, x_ref)) < 2e-16, n
            assert max(abs(float((a - b) / b)) for a, b in zip(w, w_ref)) < 1e-13, n


@pytest.mark.parametrize("n", [2, 3, 5, 12, 24, 32, 48, 64])
def test_gauss_legendre_is_exact_up_to_degree_2n_minus_1(n):
    x, w = _gauss_legendre(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(w * x ** k) == pytest.approx(exact, abs=2e-15), k


def test_axis_rules_are_computed_once_per_orders():
    rules = axis_rules(24, 16, 32)
    assert axis_rules(24, 16, 32) is rules
    for x, w in rules:
        assert not x.flags.writeable and not w.flags.writeable
    assert rules[1][1] is _gauss_legendre(16)[1]
