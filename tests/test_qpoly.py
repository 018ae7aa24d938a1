import math
from itertools import product

import numpy as np
import pytest

from s3sigma import SpaceConfig
from s3sigma.qpoly import MonomialBasis, QPoly, eval_many
from s3sigma.quadrature import build_grid


def test_constant_and_variable(rng):
    q = rng.normal(size=(10, 4))
    np.testing.assert_allclose(QPoly.constant(2.5)(q), 2.5 * np.ones(10))
    for axis in range(4):
        np.testing.assert_allclose(QPoly.variable(axis)(q), q[:, axis])


def test_algebra_matches_direct_evaluation(rng):
    q = rng.normal(size=(20, 4))
    p1 = QPoly.variable(0) * QPoly.variable(1) + QPoly.constant(3.0)
    p2 = QPoly.variable(2).scale(2.0) - QPoly.variable(3)
    prod = p1 * p2
    direct = (q[:, 0] * q[:, 1] + 3.0) * (2.0 * q[:, 2] - q[:, 3])
    np.testing.assert_allclose(prod(q), direct, rtol=1e-14)
    np.testing.assert_allclose((p1 - p1)(q), 0.0)
    np.testing.assert_allclose((-p1)(q), -p1(q))


def test_complex_coefficients_and_conj(rng):
    q = rng.normal(size=(15, 4))
    p = QPoly.variable(1) + QPoly.variable(2).scale(1j)
    np.testing.assert_allclose(p.conj()(q), np.conj(p(q)), rtol=1e-14)


def test_diff(rng):
    # d/dq1 of q0 q1^3 is 3 q0 q1^2
    p = QPoly({(1, 3, 0, 0): 2.0})
    d = p.diff(1)
    q = rng.normal(size=(10, 4))
    np.testing.assert_allclose(d(q), 6.0 * q[:, 0] * q[:, 1] ** 2, rtol=1e-14)
    assert p.diff(2).terms == {}


def test_degree_and_mul_variable():
    p = QPoly({(1, 2, 0, 0): 1.0})
    assert p.degree == 3
    assert (p * QPoly.variable(3) * QPoly.variable(3)).degree == 5


def test_eval_many_matches_individual(rng):
    q = rng.normal(size=(30, 4))
    polys = [QPoly.variable(i) * QPoly.variable((i + 1) % 4) for i in range(4)]
    polys.append(QPoly.constant(1.0 + 2j))
    stacked = eval_many(polys, q)
    for k, p in enumerate(polys):
        np.testing.assert_allclose(stacked[k], p(q), rtol=1e-14)


def test_zero_coefficients_dropped():
    p = QPoly({(1, 0, 0, 0): 0.0, (0, 1, 0, 0): 2.0})
    assert (1, 0, 0, 0) not in p.terms
    assert len(p.terms) == 1


def test_monomial_basis_rows_and_coefficients_evaluate_the_family(rng):
    q = rng.normal(size=(7, 5, 4))
    polys = [QPoly({(2, 0, 1, 0): 1.5 - 1j, (0, 0, 0, 0): 2.0}),
             QPoly({(0, 3, 0, 0): -0.5j, (2, 0, 1, 0): 4.0})]
    basis = MonomialBasis(polys)
    assert basis.monos == [(0, 0, 0, 0), (0, 3, 0, 0), (2, 0, 1, 0)]
    rows = basis.rows(q)
    assert rows.shape == (3, 35) and rows.dtype == float
    vals = (basis.coeffs @ rows).reshape(2, 7, 5)
    for k, p in enumerate(polys):
        np.testing.assert_allclose(vals[k], p(q), rtol=1e-14)
    assert eval_many([QPoly(), QPoly()], q).shape == (2, 7, 5)


def _sphere_moment(alpha, R):
    """Folland's closed form for the integral of q^alpha over the radius-R 3-sphere."""
    if any(a % 2 for a in alpha):
        return 0.0
    gammas = math.prod(math.gamma((a + 1) / 2) for a in alpha)
    return R ** 3 * 2.0 * gammas / math.gamma((sum(alpha) + 4) / 2)


@pytest.mark.parametrize("R", [1.0, 1.7])
def test_moment_matrix_matches_closed_form_sphere_moments(R):
    # every monomial of degree <= 10 is a product of two of degree <= 5
    grid = build_grid(32, 16, 32, SpaceConfig(R))
    monos = [e for e in product(range(6), repeat=4) if sum(e) <= 5]
    basis = MonomialBasis([QPoly({e: 1.0}) for e in monos])
    G = basis.moment_matrix(grid.q, grid.weight)
    exact = np.array([[_sphere_moment(np.add(a, b), R) for b in basis.monos]
                      for a in basis.monos])
    nonzero = exact != 0.0
    assert len(basis.monos) == 126
    np.testing.assert_allclose(G[nonzero], exact[nonzero], rtol=1e-12)
    assert np.max(np.abs(G[~nonzero])) < 1e-12 * R ** 3
