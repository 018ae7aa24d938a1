import math
from itertools import product

import numpy as np
import pytest

from s3sigma import SpaceConfig
from s3sigma.qpoly import (MonomialBasis, QPoly, _sphere_reduction, embedding, eval_many,
                           monomials, node_blocks)
from s3sigma.quadrature import build_grid

from qpoly_reference import Poly, to_coeffs


def test_constant_and_variable(rng):
    q = rng.normal(size=(10, 4))
    np.testing.assert_allclose(Poly.constant(2.5)(q), 2.5 * np.ones(10))
    for axis in range(4):
        np.testing.assert_allclose(Poly.variable(axis)(q), q[:, axis])


def test_algebra_matches_direct_evaluation(rng):
    q = rng.normal(size=(20, 4))
    p1 = Poly.variable(0) * Poly.variable(1) + Poly.constant(3.0)
    p2 = Poly.variable(2).scale(2.0) - Poly.variable(3)
    prod = p1 * p2
    direct = (q[:, 0] * q[:, 1] + 3.0) * (2.0 * q[:, 2] - q[:, 3])
    np.testing.assert_allclose(prod(q), direct, rtol=1e-14)
    np.testing.assert_allclose((p1 - p1)(q), 0.0)
    np.testing.assert_allclose((-p1)(q), -p1(q))


def test_complex_coefficients_and_conj(rng):
    q = rng.normal(size=(15, 4))
    p = Poly.variable(1) + Poly.variable(2).scale(1j)
    np.testing.assert_allclose(p.conj()(q), np.conj(p(q)), rtol=1e-14)


def test_diff(rng):
    # d/dq1 of q0 q1^3 is 3 q0 q1^2
    p = Poly({(1, 3, 0, 0): 2.0})
    d = p.diff(1)
    q = rng.normal(size=(10, 4))
    np.testing.assert_allclose(d(q), 6.0 * q[:, 0] * q[:, 1] ** 2, rtol=1e-14)
    assert p.diff(2).terms == {}


def test_degree_and_mul_variable():
    p = Poly({(1, 2, 0, 0): 1.0})
    assert p.degree == 3
    assert (p * Poly.variable(3) * Poly.variable(3)).degree == 5


def test_eval_many_matches_individual(rng):
    q = rng.normal(size=(30, 4))
    polys = [Poly.variable(i) * Poly.variable((i + 1) % 4) for i in range(4)]
    polys.append(Poly.constant(1.0 + 2j))
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
    basis = MonomialBasis(np.stack([to_coeffs(p, 3) for p in polys]), 3)
    assert basis.monos == monomials(3) and len(basis.monos) == 35
    rows = basis.rows(q)
    assert rows.shape == (35, 35) and rows.dtype == float
    vals = (basis.coeffs @ rows).reshape(2, 7, 5)
    for k, p in enumerate(polys):
        np.testing.assert_allclose(vals[k], p(q), rtol=1e-14)
    assert eval_many([QPoly(), QPoly()], q).shape == (2, 7, 5)
    # a vector of degree <= 2 lifts onto the monomials of degree <= 3 in place
    assert [monomials(3)[k] for k in embedding(2, 3)] == list(monomials(2))


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
    assert list(monomials(5)) == monos
    basis = MonomialBasis(np.eye(len(monos)), 5)
    G = basis.moment_matrix(grid)
    exact = np.array([[_sphere_moment(np.add(a, b), R) for b in basis.monos]
                      for a in basis.monos])
    nonzero = exact != 0.0
    assert len(basis.monos) == 126
    np.testing.assert_allclose(G[nonzero], exact[nonzero], rtol=1e-12)
    assert np.max(np.abs(G[~nonzero])) < 1e-12 * R ** 3


def _node_block_moment_matrix(basis, grid):
    """Reference G: the node sum over blocks of the rows scaled by sqrt(weight)."""
    G = np.zeros((len(basis.monos),) * 2)
    for b in node_blocks(len(grid)):
        M = basis.rows(grid.q[b])
        M *= np.sqrt(grid.weight[b])
        G += M @ M.T
    return G


@pytest.mark.parametrize("orders,R,degree", [
    ((32, 16, 32), 1.0, 5), ((32, 16, 32), 1.7, 6), ((16, 12, 16), 0.5, 5)])
def test_moment_matrix_from_1d_rules_equals_node_sum(orders, R, degree):
    grid = build_grid(*orders, SpaceConfig(R))
    basis = MonomialBasis(np.zeros((0, len(monomials(degree)))), degree)
    G = basis.moment_matrix(grid)
    ref = _node_block_moment_matrix(basis, grid)
    assert G.shape == (len(monomials(degree)),) * 2
    np.testing.assert_array_equal(G, G.T)
    np.testing.assert_allclose(G, ref, rtol=0.0, atol=2e-15 * np.max(np.abs(ref)))
    # one G per (degree, grid), read-only, whatever the family
    assert not G.flags.writeable
    assert MonomialBasis(np.eye(3, len(monomials(degree))), degree).moment_matrix(grid) is G


@pytest.mark.parametrize("d,support", [(5, 91), (6, 140)])
def test_sphere_reduction_is_exact_on_monomials(d, support):
    monos = monomials(d)
    index = {e: k for k, e in enumerate(monos)}
    red = _sphere_reduction(d)
    assert red.shape == (len(monos),) * 2 and not red.flags.writeable
    np.testing.assert_array_equal(red, np.round(red))
    # (|q|^2 - 1) m reduces to exactly zero for every monomial m of degree <= d - 2
    for e in monomials(d - 2):
        z = np.zeros(len(monos))
        z[index[e]] = -1.0
        for axis in range(4):
            z[index[tuple(np.add(e, 2 * np.eye(4, dtype=int)[axis]))]] += 1.0
        assert not np.any(red @ z), e
    np.testing.assert_array_equal(red @ red, red)
    # the image lies on the sum_{k <= d} (k + 1)^2 monomials of q0-degree <= 1,
    # and Red is the identity there
    kept = np.flatnonzero(red.any(axis=1))
    assert len(kept) == support == sum((k + 1) ** 2 for k in range(d + 1))
    assert [monos[k] for k in kept] == [e for e in monos if e[0] <= 1]
    np.testing.assert_array_equal(red[np.ix_(kept, kept)], np.eye(support))


@pytest.mark.parametrize("d", [5, 6])
def test_sphere_reduction_keeps_values_on_the_sphere(d, rng):
    grid = build_grid(32, 16, 32, SpaceConfig(1.0))
    monos = monomials(d)
    coeffs = rng.uniform(-1.0, 1.0, size=(3, len(monos)))
    vals = MonomialBasis(coeffs, d).values(grid.q)
    reduced = MonomialBasis(coeffs @ _sphere_reduction(d).T, d).values(grid.q)
    np.testing.assert_allclose(reduced, vals, rtol=0.0, atol=1e-13)
