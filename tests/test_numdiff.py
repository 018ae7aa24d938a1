import importlib
import itertools
import pkgutil
import tracemalloc

import numpy as np

import s3sigma
from s3sigma import SpaceConfig, numdiff, quantum
from s3sigma.qpoly import MonomialBasis
from s3sigma.quadrature import build_grid

# Exponents (a, b, c) of x^a y^b z^c with every exponent at most 4: the
# fourth-order first- and second-derivative stencils are exact on them.
_EXPONENTS = np.array(list(itertools.product(range(5), repeat=3)))


def _monomials(x, exponents=_EXPONENTS):
    return np.prod(x[..., None, :] ** exponents, axis=-1)


def _values(coef, x):
    """Values (F, ...) at points x (..., 3) of the polynomials sum_k coef[f, k] x^E_k."""
    mono = _monomials(x)
    return np.stack([mono @ c for c in coef])


def _derivatives(coef, x):
    """Exact gradients (F, 3, N) and Hessians (F, 3, 3, N) at points x (N, 3)."""
    def lowered(e, i):
        out = e.copy()
        out[:, i] = np.maximum(out[:, i] - 1, 0)
        return out, e[:, i].astype(float)

    grad = np.zeros((len(coef), 3, len(x)))
    hess = np.zeros((len(coef), 3, 3, len(x)))
    for i in range(3):
        ei, di = lowered(_EXPONENTS, i)
        grad[:, i] = ((_monomials(x, ei) * di) @ coef.T).T
        for j in range(3):
            eij, dj = lowered(ei, j)
            hess[:, i, j] = ((_monomials(x, eij) * di * dj) @ coef.T).T
    return grad, hess


def _points_and_steps(rng, count=40):
    return rng.uniform(-0.6, 0.6, size=(count, 3)), rng.uniform(0.05, 0.3, size=count)


def test_stencil_second_diagonal_is_exact_on_degree_five(rng):
    x, h = _points_and_steps(rng)
    c = rng.normal(size=3)
    d2, _ = numdiff.stencil_second(lambda p: np.sum(c * p ** 5, axis=-1), x, h)
    assert d2.shape == (3, 40)
    np.testing.assert_allclose(d2, 20.0 * c[:, None] * x.T ** 3, rtol=0.0, atol=1e-12)


def test_stencil_second_stacked_functions_equal_single_calls(rng):
    x, h = _points_and_steps(rng)
    coef = rng.normal(size=(3, len(_EXPONENTS)))
    _, hess = _derivatives(coef, x)
    stacked, _ = numdiff.stencil_second(lambda p: _values(coef, p), x, h)
    assert stacked.shape == (3, 3, 40)
    np.testing.assert_allclose(stacked, np.einsum("fiin->fin", hess), rtol=0.0, atol=5e-11)
    for k in range(3):
        single, _ = numdiff.stencil_second(lambda p: _values(coef[k:k + 1], p), x, h)
        np.testing.assert_array_equal(stacked[k], single[0])


def test_stencil_second_returns_the_centre_values_bit_for_bit(rng):
    x, h = _points_and_steps(rng)

    def f(p):
        return np.stack([np.sin(p[..., 0]) * p[..., 1], np.exp(p[..., 2]) / (2.0 + p[..., 0])])

    _, centre = numdiff.stencil_second(f, x, h)
    assert centre.shape == (2, 40)
    np.testing.assert_array_equal(centre, f(x))


def test_stencil_gradient_is_exact_with_per_point_steps(rng):
    x, h = _points_and_steps(rng)
    coef = rng.normal(size=(2, len(_EXPONENTS)))
    grad, _ = _derivatives(coef, x)
    jac = numdiff.stencil_gradient(lambda p: np.moveaxis(_values(coef, p), 0, -1),
                                   x, h[:, None])
    np.testing.assert_allclose(jac, np.moveaxis(grad, -1, 0), rtol=0.0, atol=1e-12)


def test_complex_step_gradient_matches_closed_form(rng):
    x = rng.uniform(-1.0, 1.0, size=(25, 3))

    def F(p):
        a, b, c = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([np.sin(a) * np.exp(b), a * b * c, np.cos(c) / (1.0 + a * a)], axis=-1)

    a, b, c = x.T
    zero = np.zeros_like(a)
    exact = np.array([
        [np.cos(a) * np.exp(b), np.sin(a) * np.exp(b), zero],
        [b * c, a * c, a * b],
        [-2.0 * a * np.cos(c) / (1.0 + a * a) ** 2, zero, -np.sin(c) / (1.0 + a * a)],
    ])
    np.testing.assert_allclose(numdiff.complex_step_gradient(F, x),
                               np.moveaxis(exact, -1, 0), rtol=1e-14, atol=1e-15)


def test_fd_laplacian_pass_memory_is_bounded():
    # criterion 2's FD pass: 126 monomial rows on the (16, 12, 16) grid
    cfg = SpaceConfig(1.0, 1.0)
    grid = build_grid(16, 12, 16, cfg)
    basis = MonomialBasis(quantum._basis_coeffs(quantum.labels_up_to(5), cfg, 5), 5)
    tracemalloc.start()
    try:
        basis.coeffs @ quantum._fd_laplace_beltrami(basis.rows, grid.q, cfg.R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_only_numdiff_binds_stencil_weights():
    # one stencil engine: every other module differentiates through numdiff
    binders = {}
    for info in pkgutil.iter_modules(s3sigma.__path__):
        mod = importlib.import_module(f"s3sigma.{info.name}")
        names = [n for n in vars(mod) if n.startswith(("_D1_", "_D2_"))]
        if names:
            binders[info.name] = names
    assert set(binders) == {"numdiff"}, binders
