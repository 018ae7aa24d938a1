"""Quantum operators and the eigenbasis on the 3-sphere.

Wave functions are complex functions of the embedded point q; the
eigenbasis functions are sphere restrictions of degree-n polynomials,
held as coefficient vectors on the monomials of `qpoly`, so every operator
below has an exact backend, a sparse integer map on those vectors, next to
the finite-difference one.  Chart conventions follow the geometry module.

Operator dictionary (hbar = 1):

    nu_i      = -(i/m) Z[i, k](eps) d/d eps^k      (velocity operator)
    eps_i     = multiplication by eps_i
    rho_op    = multiplication by (rho - 1)
    H         = (m/2) sum_i nu_i nu_i  =  -(1/2m) Laplace-Beltrami
    J_i       = -i eps_{ijk} eps_j d/d eps^k       (hermitized rotation)

The raw rotation generator (without the -i) is exposed for algebra
checks.  Energies are n (n + 2) / (2 m R^2) with degeneracy (n + 1)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numdiff
from .config import SpaceConfig
from .errors import DomainError
from .classical import _christoffel_many
from .geometry import (LEVI_CIVITA, _dot, _dual, _heights, _metric_inverse,
                       _metric_inverse_deviation, quat_mul)
# eval_many stays bound here, an import-by-name site the benchmark tracer's tests check.
from .qpoly import (MonomialBasis, _sphere_reduction, embedding, eval_many,  # noqa: F401
                    exponents, monomials, node_blocks)
from .quadrature import QuadGrid, _read_only, axis_rules, sphere_points
from .sampling import Draws
from .specfun import gegenbauer_series_coefficients

# Finite-difference steps along the group flows, relative to R, the same
# at every point of the sphere.  Second differences lose more digits to
# roundoff, so they take the larger step.
_H1_REL = 1e-5
_H2_REL = 2e-3

MAX_BASIS_LEVEL = 12
MAX_SPECTRUM_LEVEL = 20


@dataclass(frozen=True)
class SpectralLabel:
    """Quantum numbers (n, l, m_z) with 0 <= l <= n and |m_z| <= l."""

    n: int
    l: int
    m_z: int

    def __post_init__(self) -> None:
        if self.n < 0 or not (0 <= self.l <= self.n) or abs(self.m_z) > self.l:
            raise DomainError(f"invalid spectral label {(self.n, self.l, self.m_z)}")


def labels_up_to(n_max: int) -> list[SpectralLabel]:
    return [SpectralLabel(n, l, m)
            for n in range(n_max + 1)
            for l in range(n + 1)
            for m in range(-l, l + 1)]


def energy(n: int, cfg: SpaceConfig) -> float:
    return n * (n + 2.0) / (2.0 * cfg.m * cfg.R * cfg.R)


def degeneracy(n: int) -> int:
    return (n + 1) ** 2


def spectrum(n_max: int, cfg: SpaceConfig) -> list[dict]:
    """Energy table rows (n, E_n, degeneracy) for n <= n_max <= 20."""
    if n_max > MAX_SPECTRUM_LEVEL:
        raise DomainError(f"spectrum table capped at n = {MAX_SPECTRUM_LEVEL}")
    return [{"n": n, "energy": energy(n, cfg), "degeneracy": degeneracy(n)}
            for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# basis polynomials

def _lifted(c: np.ndarray, d: int, top: int) -> np.ndarray:
    """The coefficients c of degree <= d on the monomials of degree <= top."""
    out = np.zeros(len(monomials(top)), dtype=complex)
    out[embedding(d, top)] = c
    return out


def _times_q(c: np.ndarray, d: int, axis: int) -> np.ndarray:
    """q_axis times the coefficients c of degree <= d - 1, on the monomials of degree <= d."""
    return _operator(d, "X", axis)(_lifted(c, d - 1, d))


@lru_cache(maxsize=None)
def _solid_harmonic(l: int, m: int) -> np.ndarray:
    """r^l Y_lm in (q1, q2, q3), orthonormal convention, on the monomials of degree <= l."""
    if m < 0:
        return _read_only(_solid_harmonic(l, -m).conj() * (-1.0) ** (-m))
    if l == 0:
        return _read_only(np.array([1.0 / (2.0 * math.sqrt(math.pi))], dtype=complex))
    if l == m:
        prev = _solid_harmonic(l - 1, l - 1)
        factor = -math.sqrt((2.0 * l + 1.0) / (2.0 * l))
        return _read_only((_times_q(prev, l, 1) + 1j * _times_q(prev, l, 2)) * factor)
    if l == m + 1:
        return _read_only(_times_q(_solid_harmonic(m, m), l, 3) * math.sqrt(2.0 * m + 3.0))
    a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
    b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
    r2 = sum(_times_q(_times_q(_solid_harmonic(l - 2, m), l - 1, k), l, k) for k in (1, 2, 3))
    return _read_only((_times_q(_solid_harmonic(l - 1, m), l, 3) - r2 * b) * a)


@lru_cache(maxsize=None)
def _basis_polynomial_raw(n: int, l: int, m_z: int) -> np.ndarray:
    """Unnormalized basis polynomial, Gegenbauer in q0 times solid harmonic,
    on the monomials of degree <= n."""
    term = _lifted(_solid_harmonic(l, m_z), l, n)
    out = np.zeros_like(term)
    for c in gegenbauer_series_coefficients(l + 1.0, n - l):
        out += c * term
        term = _operator(n, "X", 0)(term)
    return _read_only(out)


def basis_norm_constant(n: int, l: int, cfg: SpaceConfig) -> float:
    """Normalization constant fixed by the quadrature oracle.

    The constant is independent of m_z and of the mass; the constants of
    every l of level n are found together and cached per (n, R).
    """
    return _level_norm_constants(n, cfg.R)[l]


@lru_cache(maxsize=None)
def _level_norm_constants(n: int, R: float) -> tuple[float, ...]:
    """1 / ||raw|| for l = 0..n, summed over the phi = 0 slice of the level's grid.

    A raw with m_z = 0 depends on q1 and q2 only through q1^2 + q2^2, so
    it takes the same values on every phi slice of the tensor-product
    grid, and the grid's sum of raw^2 factorises exactly into sum w_phi
    times the weighted sum over one slice (as `quadrature.monomial_sums`
    does for G).  The slice has n_chi * n_theta points, from the 1-D rules
    alone (`quadrature.axis_rules`).  Its chi order, Gauss-Legendre in the
    angle, grows as 4 n so that the sum stays exact to rounding up to n = 12.
    """
    (chi, w_chi), (theta, w_u), (_, w_phi) = axis_rules(
        max(32, 4 * n), max(24, 2 * n + 6), max(48, 4 * n + 8))
    q = sphere_points(*np.meshgrid(chi, theta, indexing="ij"), 0.0)
    raws = np.stack([_basis_polynomial_raw(n, l, 0) for l in range(n + 1)])
    vals = MonomialBasis(raws, n).values(q).real
    w = R ** 3 * np.sum(w_phi) * np.outer(w_chi, w_u).ravel()
    return tuple(1.0 / math.sqrt(s) for s in (vals ** 2) @ w)


# ---------------------------------------------------------------------------
# wave functions

@dataclass(eq=False)
class WaveFunction:
    """Complex function on the sphere: a polynomial, or any evaluator.

    A polynomial wave function holds `coeffs`, a complex vector on
    `qpoly.monomials(degree)`, and the analytic operator backends apply
    to it.  Any other holds `evaluator`, which takes embedded points q
    of shape (..., 4).
    """

    evaluator: object = None
    coeffs: np.ndarray | None = None
    degree: int = 0
    label: SpectralLabel | None = None

    def eval_q(self, q: np.ndarray) -> np.ndarray:
        if self.coeffs is None:
            return np.asarray(self.evaluator(q), dtype=complex)
        q = np.asarray(q, dtype=float)
        return MonomialBasis(self.coeffs[None], self.degree).values(q).reshape(q.shape[:-1])

    def eval_nodes(self, chi, theta, phi) -> np.ndarray:
        return self.eval_q(sphere_points(chi, theta, phi))


def psi(label: SpectralLabel, cfg: SpaceConfig) -> WaveFunction:
    """Orthonormal eigenbasis function for the given quantum numbers."""
    if label.n > MAX_BASIS_LEVEL:
        raise DomainError(f"basis construction capped at n = {MAX_BASIS_LEVEL}")
    norm = basis_norm_constant(label.n, label.l, cfg)
    return WaveFunction(coeffs=norm * _basis_polynomial_raw(label.n, label.l, label.m_z),
                        degree=label.n, label=label)


def _basis_coeffs(labels: list[SpectralLabel], cfg: SpaceConfig, d: int) -> np.ndarray:
    """Coefficient rows of psi for every label, on the monomials of degree <= d."""
    out = np.zeros((len(labels), len(monomials(d))), dtype=complex)
    for r, lb in enumerate(labels):
        out[r, embedding(lb.n, d)] = psi(lb, cfg).coeffs
    return out


# ---------------------------------------------------------------------------
# polynomial operator backends
#
# On the monomials of degree <= d (`qpoly.monomials`), multiplication by
# q_a (X_a) and the derivative d_b (D_b) each send a monomial to at most
# one monomial, with an integer factor.  Every operator is an integer sum
# of words in them, so an exact sparse matrix on monomial coefficients,
# built once per d; R, m and i meet its image as one scalar.

def _words(name: str, axis: int = 0) -> list[tuple[float, tuple[int, ...]]]:
    """Operator `name` as (coefficient, word) terms; a word lists X_a as a
    and D_b as 4 + b, as factors of a product, so its last letter acts first.

    'right'/'left': R Z[axis, k] d_k = q0 d_axis +- eta_{k,axis,j} q_j d_k
    - q_axis d_0; 'J': the raw rotation eps_{axis,j,k} q_j d_k; 'J2' =
    -sum_a J_a J_a; 'nu2' = R^2 sum_a Z_a Z_a (right); 'X': q_axis; 'rho':
    q0 - 1; 'lb': R^2 times the chart-formula Laplacian on its own terms,
    -3 q_k d_k (k = 0..3) + (delta_km - q_k q_m) d_k d_m - 2 q0 q_k d_0 d_k
    + (q1^2 + q2^2 + q3^2) d_0^2.
    """
    if name in ("right", "left"):
        side = 1 if name == "right" else -1
        return [(1, (0, 5 + axis)), (-1, (axis + 1, 4))] + [
            (side * LEVI_CIVITA[k, axis, j], (j + 1, 5 + k))
            for k in range(3) for j in range(3) if LEVI_CIVITA[k, axis, j]]
    if name == "J":
        return [(LEVI_CIVITA[axis, j, k], (j + 1, 5 + k))
                for j in range(3) for k in range(3) if LEVI_CIVITA[axis, j, k]]
    if name in ("J2", "nu2"):
        sign, factor = (-1, "J") if name == "J2" else (1, "right")
        return [(sign * ca * cb, wa + wb) for a in range(3)
                for ca, wa in _words(factor, a) for cb, wb in _words(factor, a)]
    if name == "lb":
        return ([(-3, (k, 4 + k)) for k in range(4)] + [(1, (4 + k, 4 + k)) for k in (1, 2, 3)]
                + [(-1, (k, l, 4 + k, 4 + l)) for k in (1, 2, 3) for l in (1, 2, 3)]
                + [(-2, (0, k, 4, 4 + k)) for k in (1, 2, 3)] + [(1, (k, k, 4, 4)) for k in (1, 2, 3)])
    return [(1, (axis,))] if name == "X" else [(1, (0,)), (-1, ())]


@lru_cache(maxsize=None)
def _letters(d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """X_a (letter a) and D_b (4 + b) on the monomials of degree <= d: (target, factor) per
    source, and a sink n, factor 0, for what leaves them (exponent -1 or d + 1 reads slot d + 1)."""
    monos = exponents(d)
    n = len(monos)
    lut = np.full((d + 2,) * 4, n)
    lut[tuple(monos.T)] = np.arange(n)
    return [(np.append(lut[tuple((monos + step * np.eye(4, dtype=int)[a]).T)], n),
             np.append(np.ones(n) if step > 0 else monos[:, a], 0.0))
            for step in (1, -1) for a in range(4)]


class _SparseMap:
    """`_words(name, axis)` as a matrix on the monomials of degree <= d, by rows of nonzeros."""

    __slots__ = ("rows", "starts", "cols", "vals")

    def __init__(self, d: int, name: str, axis: int = 0):
        letters = _letters(d)
        n = len(letters[0][0]) - 1
        source = np.arange(n + 1)
        keys, vals = [], []  # entries as (target (n + 1) + source, value), summed below
        for coef, word in _words(name, axis):
            target, factor = source, np.ones(n + 1)
            for letter in reversed(word):
                t, f = letters[letter]
                target, factor = t[target], factor * f[target]
            keys.append(target * (n + 1) + source)
            vals.append(coef * factor)
        key, at = np.unique(np.concatenate(keys), return_inverse=True)
        r, c = np.divmod(key, n + 1)
        val = np.bincount(at, np.concatenate(vals))
        keep = (val != 0.0) & (r < n) & (c < n)
        self.rows, self.starts = np.unique(r[keep], return_index=True)
        self.cols, self.vals = c[keep], val[keep]

    def __call__(self, c: np.ndarray) -> np.ndarray:
        """Image of the coefficients c, of shape (monomials,) or (monomials, K)."""
        out = np.zeros(c.shape, dtype=np.result_type(c, float))
        if len(self.rows):
            terms = self.vals.reshape((-1,) + (1,) * (c.ndim - 1)) * c[self.cols]
            out[self.rows] = np.add.reduceat(terms, self.starts, axis=0)
        return out


_operator = lru_cache(maxsize=None)(_SparseMap)


def _mapped(wf: WaveFunction, scale, name: str, axis: int = 0,
            raise_degree: int = 0) -> WaveFunction:
    """scale times operator `name` applied to a polynomial wave function, of degree + raise_degree."""
    d = wf.degree + raise_degree
    c = _operator(d, name, axis)(_lifted(wf.coeffs, wf.degree, d))
    return WaveFunction(coeffs=scale * c, degree=d)


# ---------------------------------------------------------------------------
# finite-difference backends (work on any evaluator)

def _q_of_eps(eps: np.ndarray, cfg: SpaceConfig) -> np.ndarray:
    """Upper-hemisphere points (..., 4) of the chart coordinates eps (..., 3)."""
    return np.concatenate([_heights(eps, 1, cfg)[..., None], eps / cfg.R], axis=-1)


def _on_points(fn, q: np.ndarray) -> np.ndarray:
    """fn at points q (..., 4), called on them as one (K, 4) array; values (..., *q.shape[:-1])."""
    vals = np.asarray(fn(q.reshape(-1, 4)))
    return vals.reshape(vals.shape[:-1] + q.shape[:-1])


def _fd_frame_derivs(fn, q: np.ndarray, cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Right- and left-frame derivatives (each (3, N)) of fn at the points q.

    They are d/ds of f(exp(s e_i) q) and f(q exp(s e_i)) at s = 0, by
    central differences along the group flows of the frame fields, whose
    stencil points all lie on the sphere.
    """
    p = np.atleast_2d(np.asarray(q, dtype=float))[:, None, None, :]

    def flows(s: np.ndarray) -> np.ndarray:
        d = _q_of_eps(s, cfg)
        return np.stack([_on_points(fn, quat_mul(d, p)),
                         _on_points(fn, quat_mul(p, d))], axis=-1)

    jac = numdiff.stencil_gradient(flows, np.zeros((p.shape[0], 3)), _H1_REL * cfg.R)
    return jac[:, 0, :].T, jac[:, 1, :].T


#: points per block of the finite-difference Laplacian, which bounds the
#: stencil values held at once when fn returns many rows per point.
_FD_BLOCK = 256


def _fd_laplace_beltrami(fn, q: np.ndarray, cfg: SpaceConfig) -> np.ndarray:
    """Laplace-Beltrami operator by central differences along geodesics at the points q.

    fn maps points (n, 4) to values (..., n); the result keeps those
    leading axes, so one call differences a whole family of functions.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    return np.concatenate([_fd_laplace_block(fn, q[s:s + _FD_BLOCK], cfg)[0]
                           for s in range(0, q.shape[0], _FD_BLOCK)], axis=-1)


def _fd_laplace_block(fn, q: np.ndarray, cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The Laplacian of fn at the points q, and fn's values at the stencil's
    centre q (1, 0, 0, 0), which is q exactly."""
    # The curves s -> q d(s e_a), d = _q_of_eps, are the geodesics
    # q exp(theta e_a) with sin(theta) = s / R, so theta''(0) = 0 and the
    # second derivative at s = 0 is the geodesic one.  Three orthonormal
    # geodesics through q give the Laplacian as the trace of the Hessian.
    d2, centre = numdiff.stencil_second(lambda s: _on_points(fn, quat_mul(q, _q_of_eps(s, cfg))),
                                        np.zeros((q.shape[0], 3)), _H2_REL * cfg.R)
    return d2[..., 0, :] + d2[..., 1, :] + d2[..., 2, :], centre


# ---------------------------------------------------------------------------
# public operators

def _resolve_method(wf: WaveFunction, method: str) -> str:
    if method not in ("auto", "analytic", "fd"):
        raise DomainError("method must be 'auto', 'analytic' or 'fd'")
    if method == "auto":
        return "analytic" if wf.coeffs is not None else "fd"
    if method == "analytic" and wf.coeffs is None:
        raise DomainError("analytic backend needs a polynomial wave function")
    return method


def _fd_operator(wf: WaveFunction, image) -> WaveFunction:
    """Finite-difference operator image: image(wf.eval_q, q) at points q (..., 4),
    which image takes as one (K, 4) array; values in q's shape."""
    fn = wf.eval_q

    def op(q: np.ndarray) -> np.ndarray:
        q = np.asarray(q)
        return image(fn, q.reshape(-1, 4)).reshape(q.shape[:-1])

    return WaveFunction(evaluator=op)


def apply_nu(axis: int, wf: WaveFunction, cfg: SpaceConfig,
             method: str = "auto") -> WaveFunction:
    """Velocity operator nu_axis = -(i/m) Z[axis, k] d_k."""
    if axis not in (0, 1, 2):
        raise DomainError("axis must be 0, 1 or 2")
    method = _resolve_method(wf, method)
    if method == "analytic":
        return _mapped(wf, -1j / (cfg.m * cfg.R), "right", axis)
    return _fd_operator(wf, lambda fn, q: (-1j / cfg.m) * _fd_frame_derivs(fn, q, cfg)[0][axis])


def apply_position(which, wf: WaveFunction, cfg: SpaceConfig) -> WaveFunction:
    """Multiplication by eps_i (which = 0, 1, 2) or by rho - 1 (which = 'rho')."""
    if which not in (0, 1, 2, "rho"):
        raise DomainError("which must be 0, 1, 2 or 'rho'")
    if wf.coeffs is not None:
        return (_mapped(wf, 1.0, "rho", raise_degree=1) if which == "rho"
                else _mapped(wf, cfg.R, "X", which + 1, raise_degree=1))
    fn = wf.eval_q
    if which == "rho":
        return WaveFunction(evaluator=lambda q: (np.asarray(q)[..., 0] - 1.0) * fn(q))
    return WaveFunction(evaluator=lambda q: cfg.R * np.asarray(q)[..., which + 1] * fn(q))


def apply_J(which, wf: WaveFunction, cfg: SpaceConfig, hermitian: bool = True,
            method: str = "auto") -> WaveFunction:
    """Rotation operators: axis 0..2, 'third' (= axis 2) or 'squared'.

    The hermitized operator is -i times the raw generator so that the
    eigenvalues are the real rotation quantum numbers; pass
    hermitian=False for the raw generator itself.
    """
    if which == "third":
        which = 2
    if which not in (0, 1, 2, "squared"):
        raise DomainError("which must be 0, 1, 2, 'third' or 'squared'")
    method = _resolve_method(wf, method)
    if which == "squared":
        if method == "analytic":
            return _mapped(wf, 1.0, "J2")
        return _wf_sum([apply_J(a, apply_J(a, wf, cfg, False, method), cfg, False, method)
                        for a in range(3)], -1.0)  # (-i J)^2 summed = -sum J_raw^2
    if method == "analytic":
        return _mapped(wf, -1j if hermitian else 1.0, "J", which)

    def raw(fn, q: np.ndarray) -> np.ndarray:
        # J_raw = (R/2) (right frame - left frame), regular everywhere.
        fr, fl = _fd_frame_derivs(fn, q, cfg)
        return 0.5 * cfg.R * (fr[which] - fl[which])

    return _fd_operator(wf, (lambda fn, q: -1j * raw(fn, q)) if hermitian else raw)


def left_action_operator(axis: int, wf: WaveFunction, cfg: SpaceConfig,
                         method: str = "auto") -> WaveFunction:
    """Left-frame derivative operator Z_left[axis, k] d_k."""
    if axis not in (0, 1, 2):
        raise DomainError("axis must be 0, 1 or 2")
    if _resolve_method(wf, method) == "analytic":
        return _mapped(wf, 1.0 / cfg.R, "left", axis)
    return _fd_operator(wf, lambda fn, q: _fd_frame_derivs(fn, q, cfg)[1][axis])


def apply_hamiltonian(wf: WaveFunction, cfg: SpaceConfig,
                      backend: str = "via_nu", method: str = "auto") -> WaveFunction:
    """Energy operator through either of two independent routes.

    backend 'via_nu' contracts two velocity operators with (m/2); the
    'laplace_beltrami' backend applies -(1/2m) times the Laplace-Beltrami
    operator: analytically the displayed second-order chart operator
    -(1/2m)[-(3/R^2) eps . d + (d^km - eps^k eps^m / R^2) d^2], and by
    finite differences the sum of second derivatives along three
    orthonormal geodesics q exp(t e_a / R) through each point.
    """
    if backend not in ("via_nu", "laplace_beltrami"):
        raise DomainError("backend must be 'via_nu' or 'laplace_beltrami'")
    if _resolve_method(wf, method) == "analytic":
        return _mapped(wf, -0.5 / (cfg.m * cfg.R ** 2), "nu2" if backend == "via_nu" else "lb")
    if backend == "via_nu":
        return _wf_sum([apply_nu(a, apply_nu(a, wf, cfg, method), cfg, method)
                        for a in range(3)], 0.5 * cfg.m)
    return _fd_operator(wf, lambda fn, q: (-0.5 / cfg.m) * _fd_laplace_beltrami(fn, q, cfg))


def _wf_sum(wfs: list[WaveFunction], s) -> WaveFunction:
    """s times the sum of wave functions, on their evaluators."""
    fns = [w.eval_q for w in wfs]
    return WaveFunction(evaluator=lambda q: s * sum(fn(q) for fn in fns))


# ---------------------------------------------------------------------------
# quadrature-level diagnostics

def _distinct_rows(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of c that differ up to sign: (distinct, which, sign) with
    c == sign[:, None] * distinct[which].  Each row is first turned so that its
    first nonzero entry is positive; zero rows become the one zero row."""
    lead = c[np.arange(len(c)), np.argmax(c != 0, axis=1)]
    sign = np.where(lead < 0, -1.0, 1.0)
    distinct, which = np.unique(sign[:, None] * c + 0.0, axis=0, return_inverse=True)
    return distinct, which.reshape(-1), sign


def gram_matrix(n_max: int, grid: QuadGrid, cfg: SpaceConfig):
    """Labels and Gram matrix of the orthonormal basis through n_max.

    The quadrature sum of conj(psi_j) psi_k on node values, not through
    `moment_matrix`: the oracle independent of G.  All in real arithmetic:
    c = [Re C; Im C] holds its rows only once up to sign (`_distinct_rows`);
    each node block scales its monomial rows by sqrt(weight), forms
    V = c_u @ rows on the distinct rows c_u and adds V V^T (one symmetric
    product) into S_u.  S = outer(sign, sign) * S_u[which][:, which] is
    [[S_rr, S_ri], [S_ri^T, S_ii]], and Gram = (S_rr + S_ii) +
    i (S_ri - S_ri^T) is Hermitian exactly.
    """
    labels = labels_up_to(n_max)
    basis = MonomialBasis(_basis_coeffs(labels, cfg, n_max), n_max)
    c_u, which, sign = _distinct_rows(np.concatenate([basis.coeffs.real, basis.coeffs.imag]))
    S_u = np.zeros((len(c_u), len(c_u)))
    for b in node_blocks(len(grid)):
        rows = basis.rows(grid.q[b])
        rows *= np.sqrt(grid.weight[b])
        V = c_u @ rows
        S_u += V @ V.T
        del rows, V  # freed before the next block's rows are formed
    S = np.outer(sign, sign) * S_u[np.ix_(which, which)]
    n = len(labels)
    s_ri = S[:n, n:]
    return labels, (S[:n, :n] + S[n:, n:]) + 1j * (s_ri - s_ri.T)


def eigen_residual_table(n_max: int, grid: QuadGrid, cfg: SpaceConfig,
                         backend: str = "analytic") -> list[dict]:
    """Rows (n, l, m_z, E, norm/H/J2/J3 residuals) for every label.

    All labels at once, as coefficient columns on the monomials of degree
    <= n_max, with every integral read from their moment matrix G on the
    grid: norm^2 is psi^H G psi.  A residual r = Op psi - lambda psi
    vanishes on the sphere only modulo |q|^2 - 1, so its coefficients are
    O(1) and r^H G r would cancel.  Its reduction (`_sphere_reduction`)
    has r's values on the sphere and coefficients of r's own size, on the
    reduced monomials, where G = L L^T is positive definite: the squared
    residual is ||L^T Red(r)||^2.  backend 'analytic' takes H psi from the
    polynomial operator; 'fd' sums the finite-difference Laplace-Beltrami
    route's |H psi - E psi|^2 over blocks of `_FD_BLOCK` nodes, with E psi
    from the stencil's centre values (the rotation residuals stay analytic).
    """
    if backend not in ("analytic", "fd"):
        raise DomainError("backend must be 'analytic' or 'fd'")
    labels = labels_up_to(n_max)
    basis = MonomialBasis(_basis_coeffs(labels, cfg, n_max), n_max)
    psi_c = basis.coeffs.T
    G = basis.moment_matrix(grid)
    norm2 = sum(np.sum(p * (G @ p), axis=0) for p in (psi_c.real, psi_c.imag))
    l_l1, m_z, e_n = np.array([(lb.l * (lb.l + 1.0), lb.m_z, energy(lb.n, cfg)) for lb in labels]).T
    resid = [_operator(n_max, "J2")(psi_c) - l_l1 * psi_c,
             -1j * _operator(n_max, "J", 2)(psi_c) - m_z * psi_c]
    if backend == "analytic":
        resid.append((-0.5 / (cfg.m * cfg.R ** 2)) * _operator(n_max, "nu2")(psi_c) - e_n * psi_c)
    red = _sphere_reduction(n_max)
    keep = np.flatnonzero(red.any(axis=1))
    L = np.linalg.cholesky(G[np.ix_(keep, keep)])
    resid = np.stack(resid)
    y = L.T @ (red[keep] @ np.stack([resid.real, resid.imag]))
    squares = np.sum(y * y, axis=(0, 2))  # J2, J3 and, analytic, H
    if backend == "analytic":
        j22, j32, h2 = squares
    else:
        j22, j32 = squares
        h2 = np.zeros(len(labels))
        for s in range(0, len(grid), _FD_BLOCK):
            lap, rows = _fd_laplace_block(basis.rows, grid.q[s:s + _FD_BLOCK], cfg)
            for coeffs in (basis.coeffs.real, basis.coeffs.imag):
                d = coeffs @ lap
                d *= -0.5 / cfg.m
                ev = coeffs @ rows
                ev *= e_n[:, None]
                d -= ev
                h2 += np.square(d, out=d) @ grid.weight[s:s + _FD_BLOCK]
            del lap, rows  # rows views all of the block's stencil values: free them
    return [{"n": lb.n, "l": lb.l, "m_z": lb.m_z, "energy": float(e_n[i]),
             "norm_residual": abs(float(norm2[i]) - 1.0),
             "h_residual": math.sqrt(h2[i]) / math.sqrt(norm2[i]),
             "j2_residual": math.sqrt(j22[i]) / math.sqrt(norm2[i]),
             "j3_residual": math.sqrt(j32[i]) / math.sqrt(norm2[i])}
            for i, lb in enumerate(labels)]


def hermiticity_check(pair_count: int, grid: QuadGrid, cfg: SpaceConfig,
                      seed: int = 0, n_max: int = 4) -> dict:
    """Max |<a, Op b> - <Op a, b>| per operator over random basis pairs.

    The operator maps give every image of the sampled basis functions,
    on the monomials of degree <= n_max + 1 (the positions raise the
    degree by one).  Every inner product is read as conj(c_f) @ G @ c_g
    from the grid's moment matrix G of those monomials, the one criterion
    2 reads at n_max = 5.
    """
    rng = Draws(seed)
    labels = labels_up_to(n_max)
    m, R = cfg.m, cfg.R
    ops = {f"nu_{a + 1}": (-1j / (m * R), "right", a) for a in range(3)}  # (scalar, operator, axis)
    ops.update({f"eps_{a}": (R, "X", a) for a in (1, 2, 3)}, rho=(1.0, "rho", 0))
    ops.update({f"J_{a + 1}": (-1j, "J", a) for a in range(3)}, H=(-0.5 / (m * R * R), "nu2", 0))
    pairs = [[labels[i] for i in pair]
             for pair in rng.integers(0, len(labels), size=(pair_count, 2)).tolist()]
    picked = {lb: k for k, lb in enumerate(dict.fromkeys(lb for pair in pairs for lb in pair))}
    d = n_max + 1
    basis = MonomialBasis(_basis_coeffs(list(picked), cfg, d), d)
    psi_c = basis.coeffs.T
    coeffs = np.stack([psi_c] + [s * _operator(d, name, axis)(psi_c)
                                 for s, name, axis in ops.values()])
    g_c = basis.moment_matrix(grid) @ coeffs
    a = [picked[lb] for lb, _ in pairs]
    b = [picked[lb] for _, lb in pairs]
    worst = {}
    for k, name in enumerate(ops, start=1):
        lhs = np.sum(coeffs[0][:, a].conj() * g_c[k][:, b], axis=0)
        rhs = np.sum(coeffs[k][:, a].conj() * g_c[0][:, b], axis=0)
        worst[name] = float(np.max(np.abs(lhs - rhs), initial=0.0))
    worst["max"] = max(worst.values())
    return worst


# ---------------------------------------------------------------------------
# flat-space contraction study

class SmoothBump:
    """Compactly supported test function b(|eps|/r0) times a polynomial.

    value and grad are closed-form and vectorized over points of shape
    (..., 3); everything vanishes identically outside |eps| < r0.  grad
    is analytic inside the support, so hess is its complex step.
    """

    KINDS = ("one", "linear", "cross")

    def __init__(self, r0: float, poly_kind: str = "one"):
        if poly_kind not in self.KINDS:
            raise DomainError(f"unknown poly_kind {poly_kind!r}; expected one of {self.KINDS}")
        self.r0 = r0
        self.poly_kind = poly_kind

    def _parts(self, eps: np.ndarray):
        r0 = self.r0
        s2 = _dot(eps, eps) / (r0 ** 2)
        inside = s2.real < 1.0 - 1e-12
        u = np.where(inside, 1.0 - s2, 1.0)
        b = np.where(inside, np.exp(-1.0 / u), 0.0)
        dg = np.zeros_like(eps)
        if self.poly_kind == "one":
            g = np.ones(eps.shape[:-1])
        elif self.poly_kind == "linear":
            g = eps[..., 0] / r0
            dg[..., 0] = 1.0 / r0
        else:
            g = eps[..., 0] * eps[..., 1] / r0 ** 2
            dg[..., 0] = eps[..., 1] / r0 ** 2
            dg[..., 1] = eps[..., 0] / r0 ** 2
        return b, u, inside, g, dg

    def value(self, eps: np.ndarray) -> np.ndarray:
        b, _, _, g, _ = self._parts(eps)
        return b * g

    def grad(self, eps: np.ndarray) -> np.ndarray:
        b, u, inside, g, dg = self._parts(eps)
        w = np.where(inside, 1.0 / u, 0.0)
        db = (-2.0 * b * w * w / self.r0 ** 2)[..., None] * eps
        return db * g[..., None] + b[..., None] * dg

    def hess(self, eps: np.ndarray) -> np.ndarray:
        return numdiff.complex_step_gradient(self.grad, eps)


def contraction_study(R_values, cfg: SpaceConfig | None = None, r0: float = 1.0) -> dict:
    """Deviation of the curved operators from their flat limits.

    On the three `SmoothBump` kinds over a fixed box of chart points, for
    each radius R: nu_i = -(i/m) Z[i, k] d_k, Z the right frame of
    `geometry._dual`, against -(i/m) d_i, and H = -(1/2m) (g^ij d_i d_j
    - g^ij Gamma^k_ij d_k), g^ij and g^ij - delta^ij from `geometry` and Gamma
    from `classical._christoffel_many`, against -(1/2m) nabla^2.  Reports
    the max deviations D(R) and the fitted log-log slopes.
    """
    m = (cfg or SpaceConfig()).m
    radii = [float(r) for r in R_values]
    if min(radii) < 10.0 * r0:
        raise DomainError(
            "test-function support must be well inside the chart: require "
            f"min(R) >= 10 r0, got min(R) = {min(radii)}, r0 = {r0}")
    bumps = [SmoothBump(r0, kind) for kind in SmoothBump.KINDS]
    axis = np.linspace(-0.9 * r0, 0.9 * r0, 5)
    box = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grad = np.stack([f.grad(box) for f in bumps])  # (function, point, k)
    hess = np.stack([f.hess(box) for f in bumps])
    d_nu, d_h = [], []
    for R in radii:
        space = SpaceConfig(R, m)
        frame = _dual(box, _heights(box, 1, space), 1.0, R)
        d_nu.append(float(np.max(np.abs(np.einsum("pik,fpk->fpi", frame, grad) - grad) / m)))
        ginv = _metric_inverse(box, space)
        trace_gamma = np.einsum("pij,pkij->pk", ginv, _christoffel_many(box, 1, space))
        # g^ij - delta^ij against the Hessian: the curved minus the flat Laplacian
        lap_dev = (np.einsum("pij,fpij->fp", _metric_inverse_deviation(box, space), hess)
                   - np.einsum("pk,fpk->fp", trace_gamma, grad))
        d_h.append(float(np.max(np.abs(lap_dev)) / (2.0 * m)))

    def series(ds):
        # the least-squares slope of log D against log R, on Python floats
        # in a fixed order, so no LAPACK kernel rounds it
        slope = math.nan
        if min(ds) > 0.0:
            lx, ly = [math.log(r) for r in radii], [math.log(d) for d in ds]
            mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
            slope = (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
                     / sum((a - mx) ** 2 for a in lx))
        return {"deviation": ds, "slope": slope,
                "strictly_decreasing": all(a > b for a, b in zip(ds, ds[1:]))}

    return {
        "radii": radii,
        "r0": r0,
        "nu": series(d_nu),
        "hamiltonian": series(d_h),
        # apply_position multiplies by eps_i = R q_i at every R: no deviation to measure
        "position": {"deviation": [0.0] * len(radii), "identically_zero": True},
    }
