"""Polynomials in the four embedding coordinates, as coefficient vectors.

The eigenbasis functions are restrictions of degree-n polynomials in
q = (q0, q1, q2, q3) to the unit sphere, so every differential operator
of the quantum module maps polynomials to polynomials without truncation
error.  A polynomial of degree <= d is a complex vector on `monomials(d)`;
`MonomialBasis` evaluates a family of them.  `QPoly` (a dict of terms,
evaluated term by term) is the independent evaluator tests compare against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .quadrature import QuadGrid, _read_only, monomial_sums


class QPoly:
    """Sparse polynomial in (q0, q1, q2, q3): exponent 4-tuple -> complex coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for expo, coef in terms.items():
                c = complex(coef)
                if c != 0.0:  # exact zeros are dropped
                    self.terms[tuple(map(int, expo))] = c

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __call__(self, q: np.ndarray):
        """Evaluate at q with shape (..., 4), term by term; returns a complex array."""
        q = np.asarray(q, dtype=float)
        pows = _power_table(q, self.degree)
        out = np.zeros(q.shape[:-1], dtype=complex)
        for (a, b, c, d), coef in self.terms.items():
            out += coef * (pows[0][a] * pows[1][b] * pows[2][c] * pows[3][d])
        return out


def _power_table(q: np.ndarray, max_degree: int) -> list[list[np.ndarray]]:
    """pows[i][d] = q_i ** d computed once per axis."""
    pows = []
    for i in range(4):
        col = [np.ones(q.shape[:-1])]
        for _ in range(max_degree):
            col.append(col[-1] * q[..., i])
        pows.append(col)
    return pows


#: nodes per block of the monomial rows held at once by `MonomialBasis`
#: and by the quadrature sums of the quantum checks.  At 4,096 a block of
#: criterion 3's rows and values (4.1 + 6.0 MB) stayed resident as new heap
#: and raised the `quantum` round's peak RSS 8.4 %; at 2,048 they reuse freed heap.
_NODE_BLOCK = 2048


def node_blocks(count: int) -> list[slice]:
    """Slices of `_NODE_BLOCK` nodes, in order, covering `count` nodes."""
    return [slice(s, s + _NODE_BLOCK) for s in range(0, count, _NODE_BLOCK)]


@lru_cache(maxsize=None)
def monomials(max_degree: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every exponent 4-tuple of degree <= max_degree, in sorted order."""
    return tuple(e for e in product(range(max_degree + 1), repeat=4)
                 if sum(e) <= max_degree)


@lru_cache(maxsize=None)
def exponents(max_degree: int) -> np.ndarray:
    """`monomials(max_degree)` as one read-only integer array (len, 4)."""
    return _read_only(np.array(monomials(max_degree), dtype=np.int64).reshape(-1, 4))


@lru_cache(maxsize=None)
def embedding(d: int, top: int) -> np.ndarray:
    """Positions of `monomials(d)` among `monomials(top)`, top >= d, both sorted: a
    vector c on the first is `c_top[embedding(d, top)] = c` on the second.  Read-only."""
    return _read_only(np.flatnonzero(np.sum(exponents(top), axis=1) <= d))


class MonomialBasis:
    """A family of polynomials of degree <= max_degree, as coefficient rows.

    `coeffs[r, k]` is the coefficient of monomial `monos[k]` in
    polynomial r, where `monos = monomials(max_degree)`, so
    `coeffs @ rows(q)` (`values(q)`) evaluates the whole family.  Any
    linear operation on values (a difference stencil, a quadrature sum)
    can run on the real monomial rows once and meet the real and
    imaginary coefficient parts at the end.
    """

    __slots__ = ("monos", "coeffs", "max_degree")

    def __init__(self, coeffs: np.ndarray, max_degree: int):
        self.monos = monomials(max_degree)
        self.coeffs = coeffs
        self.max_degree = max_degree

    def rows(self, q: np.ndarray) -> np.ndarray:
        """Real monomial values at q (..., 4), shape (len(monos), points)."""
        q = np.asarray(q, dtype=float).reshape(-1, 4)
        pows = _power_table(q, self.max_degree)
        M = np.empty((len(self.monos), q.shape[0]))
        # The monomials are sorted, so those sharing the leading exponents
        # are adjacent and reuse one partial product, formed left to right
        # as q0^a q1^b q2^c q3^d would be.
        prev = (-1, -1, -1, -1)
        for k, e in enumerate(self.monos):
            if e[:2] != prev[:2]:
                ab = pows[0][e[0]] * pows[1][e[1]]
            if e[:3] != prev[:3]:
                abc = ab * pows[2][e[2]]
            np.multiply(abc, pows[3][e[3]], out=M[k])
            prev = e
        return M

    def values(self, q: np.ndarray) -> np.ndarray:
        """Values of the family at q (..., 4), shape (len(polys), points).

        The nodes run in blocks of `_NODE_BLOCK`.  In each block the real
        and imaginary coefficients meet the real rows in one real product
        each, so the rows are never copied as complex.  `quantum.gram_matrix`
        takes the rows instead and forms no complex values at all.
        """
        q = np.asarray(q, dtype=float).reshape(-1, 4)
        out = np.empty((self.coeffs.shape[0], q.shape[0]), dtype=complex)
        for b in node_blocks(q.shape[0]):
            M = self.rows(q[b])
            out.real[:, b] = self.coeffs.real @ M
            out.imag[:, b] = self.coeffs.imag @ M
        return out

    def moment_matrix(self, grid: QuadGrid) -> np.ndarray:
        """G[j, k], the quadrature sum of m_j m_k on `grid`, so <f, g> = conj(c_f) @ G @ c_g.
        One G per (degree, grid), built from the grid's 1-D rules; shared, read-only."""
        return _moment_matrix(self.max_degree, grid)


@lru_cache(maxsize=16)  # keyed by the grid's identity: `build_grid` shares one per orders
def _moment_matrix(max_degree: int, grid: QuadGrid) -> np.ndarray:
    """The moment matrix of every monomial of degree <= max_degree on `grid`."""
    monos = exponents(max_degree)
    G = monomial_sums(grid, monos[:, None, :] + monos[None, :, :])
    G.flags.writeable = False
    return G


@lru_cache(maxsize=None)
def _sphere_reduction(max_degree: int) -> np.ndarray:
    """Red[j, k]: coefficient of monomial j in the reduction of monomial k.

    Red replaces q0^2 by 1 - q1^2 - q2^2 - q3^2 until every monomial has
    q0-degree <= 1, so Red @ c has the values of c on the unit sphere and
    lies on the sum_{k <= d} (k + 1)^2 reduced monomials.  A polynomial
    that vanishes on the sphere reduces to zero.  Integer entries; read-only.
    """
    monos = monomials(max_degree)
    index = {e: k for k, e in enumerate(monos)}
    red = np.zeros((len(monos),) * 2)
    # Sorted order puts q0^(a-2) ... before q0^a ..., so every column used is done.
    for k, (a, b, c, d) in enumerate(monos):
        if a <= 1:
            red[k, k] = 1.0
        else:
            red[:, k] = (red[:, index[a - 2, b, c, d]] - red[:, index[a - 2, b + 2, c, d]]
                         - red[:, index[a - 2, b, c + 2, d]] - red[:, index[a - 2, b, c, d + 2]])
    red.flags.writeable = False
    return red


def eval_many(polys: list[QPoly], q: np.ndarray) -> np.ndarray:
    """Values (len(polys),) + q.shape[:-1] of `QPoly`s at shared points, by `MonomialBasis`."""
    d = max((p.degree for p in polys), default=0)
    index = {e: k for k, e in enumerate(monomials(d))}
    coeffs = np.zeros((len(polys), len(index)), dtype=complex)
    for r, p in enumerate(polys):
        for e, coef in p.terms.items():
            coeffs[r, index[e]] = coef
    return MonomialBasis(coeffs, d).values(q).reshape((len(polys),) + np.shape(q)[:-1])
