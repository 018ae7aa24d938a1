"""The dict algebra of sparse polynomials: the reference for the coefficient maps.

`Poly` adds to `s3sigma.qpoly.QPoly` (terms and term-by-term evaluation)
the algebra the package once built its eigenbasis with: sums, products,
scaling, derivatives and conjugation, each on the dict of terms.  The
tests compare the coefficient-vector basis and operator maps against it.
"""

import math
from functools import lru_cache

import numpy as np

from s3sigma.qpoly import QPoly, monomials
from s3sigma.specfun import gegenbauer_series_coefficients


class Poly(QPoly):
    """A `QPoly` with the dict algebra; every result is a new `Poly`."""

    __slots__ = ()

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def variable(cls, axis: int) -> "Poly":
        expo = [0, 0, 0, 0]
        expo[axis] = 1
        return cls({tuple(expo): 1.0})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0.0) + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0.0) - c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def scale(self, s) -> "Poly":
        return Poly({e: s * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, QPoly):
            out: dict = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    expo = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                    out[expo] = out.get(expo, 0.0) + ca * cb
            return Poly(out)
        return self.scale(other)

    __rmul__ = __mul__

    def diff(self, axis: int) -> "Poly":
        out = {}
        for expo, c in self.terms.items():
            k = expo[axis]
            if k:
                e = list(expo)
                e[axis] = k - 1
                te = tuple(e)
                out[te] = out.get(te, 0.0) + k * c
        return Poly(out)

    def conj(self) -> "Poly":
        return Poly({e: c.conjugate() for e, c in self.terms.items()})

    def __repr__(self) -> str:
        items = sorted(self.terms.items())[:6]
        body = " + ".join(f"{c:.3g}*q^{e}" for e, c in items)
        more = "" if len(self.terms) <= 6 else f" (+{len(self.terms) - 6} terms)"
        return f"Poly({body}{more})"


def from_coeffs(c, d: int) -> Poly:
    """The polynomial with coefficients c on `monomials(d)`."""
    monos = monomials(d)
    return Poly({monos[k]: c[k] for k in np.flatnonzero(c)})


def to_coeffs(p: QPoly, d: int) -> np.ndarray:
    """The coefficients of p (degree <= d) on `monomials(d)`."""
    index = {e: k for k, e in enumerate(monomials(d))}
    out = np.zeros(len(index), dtype=complex)
    for e, c in p.terms.items():
        out[index[e]] = c
    return out


def wave_poly(wf) -> Poly:
    """A polynomial wave function's coefficients as a `Poly`."""
    return from_coeffs(wf.coeffs, wf.degree)


@lru_cache(maxsize=None)
def solid_harmonic(l: int, m: int) -> Poly:
    """r^l Y_lm as a polynomial in (q1, q2, q3), orthonormal convention."""
    if m < 0:
        return solid_harmonic(l, -m).conj().scale((-1.0) ** (-m))
    if l == 0:
        return Poly.constant(1.0 / (2.0 * math.sqrt(math.pi)))
    x, y, z = (Poly.variable(a) for a in (1, 2, 3))
    if l == m:
        factor = -math.sqrt((2.0 * l + 1.0) / (2.0 * l))
        return (x + y.scale(1j)) * solid_harmonic(l - 1, l - 1) * factor
    if l == m + 1:
        return z * solid_harmonic(m, m) * math.sqrt(2.0 * m + 3.0)
    a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
    b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
    r2 = x * x + y * y + z * z
    return (z * solid_harmonic(l - 1, m) - (r2 * solid_harmonic(l - 2, m)).scale(b)) * a


def basis_raw(n: int, l: int, m_z: int) -> Poly:
    """Unnormalized basis polynomial: Gegenbauer in q0 times solid harmonic."""
    coeffs = gegenbauer_series_coefficients(l + 1.0, n - l)
    return Poly({(k, 0, 0, 0): c for k, c in enumerate(coeffs)}) * solid_harmonic(l, m_z)
