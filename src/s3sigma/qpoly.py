"""Sparse complex polynomials in the four embedding coordinates.

The eigenbasis functions are restrictions of degree-n polynomials in
q = (q0, q1, q2, q3) to the unit sphere, so every differential operator
of the quantum module maps polynomials to polynomials and can be
applied without truncation error.  Terms are a dict from exponent
4-tuples to complex coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .quadrature import QuadGrid, monomial_sums

_DROP = 0.0  # coefficients exactly equal to zero are dropped


class QPoly:
    """Immutable-by-convention sparse polynomial in (q0, q1, q2, q3)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for expo, coef in terms.items():
                c = complex(coef)
                if c != _DROP:
                    self.terms[tuple(map(int, expo))] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "QPoly":
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def variable(cls, axis: int) -> "QPoly":
        expo = [0, 0, 0, 0]
        expo[axis] = 1
        return cls({tuple(expo): 1.0})

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0.0) + c
        return QPoly(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0.0) - c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly({e: -c for e, c in self.terms.items()})

    def scale(self, s) -> "QPoly":
        return QPoly({e: s * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, QPoly):
            out: dict = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    expo = (ea[0] + eb[0], ea[1] + eb[1],
                            ea[2] + eb[2], ea[3] + eb[3])
                    out[expo] = out.get(expo, 0.0) + ca * cb
            return QPoly(out)
        return self.scale(other)

    __rmul__ = __mul__

    def diff(self, axis: int) -> "QPoly":
        out = {}
        for expo, c in self.terms.items():
            k = expo[axis]
            if k:
                e = list(expo)
                e[axis] = k - 1
                te = tuple(e)
                out[te] = out.get(te, 0.0) + k * c
        return QPoly(out)

    def conj(self) -> "QPoly":
        return QPoly({e: c.conjugate() for e, c in self.terms.items()})

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, q: np.ndarray):
        """Evaluate at q with shape (..., 4); returns a complex array."""
        q = np.asarray(q, dtype=float)
        pows = _power_table(q, self.degree)
        out = np.zeros(q.shape[:-1], dtype=complex)
        for (a, b, c, d), coef in self.terms.items():
            out += coef * (pows[0][a] * pows[1][b] * pows[2][c] * pows[3][d])
        return out

    def __repr__(self) -> str:
        items = sorted(self.terms.items())[:6]
        body = " + ".join(f"{c:.3g}*q^{e}" for e, c in items)
        more = "" if len(self.terms) <= 6 else f" (+{len(self.terms) - 6} terms)"
        return f"QPoly({body}{more})"


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
#: and by the quadrature sums of the quantum checks.
_NODE_BLOCK = 4096


def node_blocks(count: int) -> list[slice]:
    """Slices of `_NODE_BLOCK` nodes, in order, covering `count` nodes."""
    return [slice(s, s + _NODE_BLOCK) for s in range(0, count, _NODE_BLOCK)]


@lru_cache(maxsize=None)
def monomials(max_degree: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every exponent 4-tuple of degree <= max_degree, in sorted order."""
    return tuple(e for e in product(range(max_degree + 1), repeat=4)
                 if sum(e) <= max_degree)


class MonomialBasis:
    """Monomials, and the coefficients of a family of polynomials on them.

    `coeffs[r, k]` is the coefficient of monomial `monos[k]` in
    polynomial r, so `coeffs @ rows(q)` (`values(q)`) evaluates the whole
    family.  Any linear operation on values (a difference stencil, a
    quadrature sum) can run on the real monomial rows once and meet the
    real and imaginary coefficient parts at the end.  The monomials are
    the distinct ones of the family or, given `max_degree`, all of
    degree <= max_degree.
    """

    __slots__ = ("monos", "coeffs", "max_degree")

    def __init__(self, polys: list[QPoly], max_degree: int | None = None):
        if max_degree is None:
            self.monos = sorted({e for p in polys for e in p.terms})
        else:
            self.monos = list(monomials(max_degree))
        index = {e: k for k, e in enumerate(self.monos)}
        self.max_degree = max((sum(e) for e in self.monos), default=0)
        self.coeffs = np.zeros((len(polys), len(self.monos)), dtype=complex)
        for r, p in enumerate(polys):
            for e, coef in p.terms.items():
                self.coeffs[r, index[e]] = coef

    @classmethod
    def from_coeffs(cls, monos: list, coeffs: np.ndarray) -> "MonomialBasis":
        """The family with coefficient rows `coeffs` on the monomials `monos`."""
        basis = cls.__new__(cls)
        basis.monos, basis.coeffs = list(monos), coeffs
        basis.max_degree = max((sum(e) for e in basis.monos), default=0)
        return basis

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
        each, so the rows are never copied as complex.
        """
        q = np.asarray(q, dtype=float).reshape(-1, 4)
        out = np.empty((self.coeffs.shape[0], q.shape[0]), dtype=complex)
        for b in node_blocks(q.shape[0]):
            M = self.rows(q[b])
            out.real[:, b] = self.coeffs.real @ M
            out.imag[:, b] = self.coeffs.imag @ M
        return out

    def moment_matrix(self, grid: QuadGrid) -> np.ndarray:
        """G[j, k]: the quadrature sum of m_j m_k on `grid`.

        <f, g> = conj(c_f) @ G @ c_g for any two members f, g of the family.
        One G over every monomial of degree <= max_degree is built per
        (degree, grid) from the grid's 1-D rules and shared; a family on
        fewer monomials reads its own rows and columns of it.  Read-only.
        """
        G = _moment_matrix(self.max_degree, grid)
        if self.monos == list(monomials(self.max_degree)):
            return G
        index = {e: k for k, e in enumerate(monomials(self.max_degree))}
        at = [index[e] for e in self.monos]
        return G[np.ix_(at, at)]


@lru_cache(maxsize=16)  # keyed by the grid's identity: `build_grid` shares one per orders
def _moment_matrix(max_degree: int, grid: QuadGrid) -> np.ndarray:
    """The moment matrix of every monomial of degree <= max_degree on `grid`."""
    monos = np.array(monomials(max_degree))
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
    """Evaluate a family of polynomials on shared points.

    Returns an array of shape (len(polys),) + q.shape[:-1].  The shared
    monomial basis is evaluated once for the whole family.
    """
    return MonomialBasis(polys).values(q).reshape((len(polys),) + np.shape(q)[:-1])
