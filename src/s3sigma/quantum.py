"""Quantum operators and the eigenbasis on the 3-sphere.

Wave functions are complex functions of the embedded point q; the
eigenbasis functions are sphere restrictions of degree-n polynomials,
so every operator below has an exact polynomial backend next to the
finite-difference one.  Chart-coordinate conventions and layouts follow
the geometry module.

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

from .config import SpaceConfig
from .errors import DomainError
from .geometry import LEVI_CIVITA, quat_mul, rho
from .numdiff import _D1_OFFSETS, _D1_WEIGHTS, _D2_OFFSETS, _D2_WEIGHTS
from .qpoly import MonomialBasis, QPoly, eval_many
from .quadrature import QuadGrid, build_grid, integrate_values
from .specfun import gegenbauer_series_coefficients

# Relative finite-difference steps.  Second derivatives use a larger
# base step and both shrink toward the chart equator, where the chart
# representation of a smooth sphere function develops large higher
# derivatives (scale rho^{1.5} and rho^{1.83} keep truncation and
# roundoff balanced there).
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

@lru_cache(maxsize=None)
def _solid_harmonic(l: int, m: int) -> QPoly:
    """r^l Y_lm as a polynomial in (q1, q2, q3), orthonormal convention."""
    if m < 0:
        p = _solid_harmonic(l, -m)
        return p.conj().scale((-1.0) ** (-m))
    if l == 0:
        return QPoly.constant(1.0 / (2.0 * math.sqrt(math.pi)))
    x = QPoly.variable(1)
    y = QPoly.variable(2)
    z = QPoly.variable(3)
    if l == m:
        prev = _solid_harmonic(l - 1, l - 1)
        factor = -math.sqrt((2.0 * l + 1.0) / (2.0 * l))
        return (x + y.scale(1j)) * prev * factor
    if l == m + 1:
        return z * _solid_harmonic(m, m) * math.sqrt(2.0 * m + 3.0)
    a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
    b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
    r2 = x * x + y * y + z * z
    return (z * _solid_harmonic(l - 1, m) - (r2 * _solid_harmonic(l - 2, m)).scale(b)) * a


@lru_cache(maxsize=None)
def _basis_polynomial_raw(n: int, l: int, m_z: int) -> QPoly:
    """Unnormalized basis polynomial: Gegenbauer in q0 times solid harmonic."""
    coeffs = gegenbauer_series_coefficients(l + 1.0, n - l)
    radial = QPoly.from_coeffs_1d(0, coeffs)
    return radial * _solid_harmonic(l, m_z)


@lru_cache(maxsize=None)
def _normalization_grid_orders(n: int) -> tuple[int, int, int]:
    return (max(32, 2 * n + 10), max(24, 2 * n + 6), max(48, 4 * n + 8))


def basis_norm_constant(n: int, l: int, cfg: SpaceConfig) -> float:
    """Normalization constant fixed by the quadrature oracle.

    The constant is independent of m_z and of the mass, so it is cached
    per (n, l, R).
    """
    return _norm_constant(n, l, cfg.R)


@lru_cache(maxsize=None)
def _normalization_grid(orders: tuple[int, int, int], R: float) -> QuadGrid:
    return build_grid(*orders, SpaceConfig(R))


@lru_cache(maxsize=None)
def _norm_constant(n: int, l: int, R: float) -> float:
    grid = _normalization_grid(_normalization_grid_orders(n), R)
    vals = _basis_polynomial_raw(n, l, 0)(grid.q)
    norm2 = float(np.real(integrate_values(np.abs(vals) ** 2, grid)))
    return 1.0 / math.sqrt(norm2)


def closed_form_norm_constant(n: int, l: int, cfg: SpaceConfig) -> float:
    """Closed-form normalization, published next to the measured one.

    N_nl = 2^l l! sqrt(2 (n + 1) (n - l)! / (pi R^3 (n + l + 1)!)); the
    pi R^3 factor is the fitted value of the otherwise free constant in
    the normalization, confirmed by the quadrature oracle.
    """
    num = 2.0 * (n + 1.0) * math.factorial(n - l)
    den = math.pi * cfg.R ** 3 * math.factorial(n + l + 1)
    return (2.0 ** l) * math.factorial(l) * math.sqrt(num / den)


def measured_normalization_factor(n: int, l: int, cfg: SpaceConfig) -> float:
    """Fit the free constant nu in N = 2^l l! sqrt(2(n+1)(n-l)!/(nu (n+l+1)!)).

    Comes out as pi R^3 for every (n, l); reported, not assumed.
    """
    n_quad = basis_norm_constant(n, l, cfg)
    pref = (2.0 ** l) * math.factorial(l)
    return (pref ** 2) * 2.0 * (n + 1.0) * math.factorial(n - l) / (
        math.factorial(n + l + 1) * n_quad ** 2)


# ---------------------------------------------------------------------------
# wave functions

@dataclass(eq=False)
class WaveFunction:
    """Complex function on the sphere, optionally with a polynomial form.

    evaluator takes embedded points q of shape (..., 4); when a
    polynomial form is present the analytic operator backends apply.
    """

    evaluator: object
    poly: QPoly | None = None
    label: SpectralLabel | None = None

    @classmethod
    def from_poly(cls, poly: QPoly, label: SpectralLabel | None = None) -> "WaveFunction":
        return cls(evaluator=poly, poly=poly, label=label)

    def eval_q(self, q: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(q), dtype=complex)

    def eval_nodes(self, chi, theta, phi) -> np.ndarray:
        chi = np.asarray(chi, dtype=float)
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        schi = np.sin(chi)
        q = np.stack([np.cos(chi),
                      schi * np.sin(theta) * np.cos(phi),
                      schi * np.sin(theta) * np.sin(phi),
                      schi * np.cos(theta)], axis=-1)
        return self.eval_q(q)


def psi(label: SpectralLabel, cfg: SpaceConfig) -> WaveFunction:
    """Orthonormal eigenbasis function for the given quantum numbers."""
    if label.n > MAX_BASIS_LEVEL:
        raise DomainError(f"basis construction capped at n = {MAX_BASIS_LEVEL}")
    p = _basis_polynomial_raw(label.n, label.l, label.m_z)
    norm = basis_norm_constant(label.n, label.l, cfg)
    return WaveFunction.from_poly(p.scale(norm), label)


# ---------------------------------------------------------------------------
# polynomial operator backends

def _frame_poly(p: QPoly, axis: int, R: float, side: int) -> QPoly:
    """Frame derivative Z[axis, k] d_k of a polynomial, exact.

    In embedded form: (1/R) [ (q0 d_axis + side eta_{k,axis,j} q_j d_k)
    - q_axis d_0 ], with side +1 for the right frame and -1 for the left.
    """
    out = QPoly.variable(0) * p.diff(axis + 1)
    for k in range(3):
        for j in range(3):
            s = LEVI_CIVITA[k, axis, j]
            if s:
                out = out + (QPoly.variable(j + 1) * p.diff(k + 1)).scale(side * s)
    out = out - QPoly.variable(axis + 1) * p.diff(0)
    return out.scale(1.0 / R)


def _j_raw_poly(p: QPoly, axis: int) -> QPoly:
    """Rotation generator eps_{axis,j,k} eps_j d_k; radius independent."""
    out = QPoly()
    for j in range(3):
        for k in range(3):
            s = LEVI_CIVITA[axis, j, k]
            if s:
                out = out + (QPoly.variable(j + 1) * p.diff(k + 1)).scale(s)
    return out


def _laplace_beltrami_poly(p: QPoly, R: float) -> QPoly:
    """Sphere Laplacian of a polynomial through the chart formula.

    Equals (1/R^2) [ -3 q.grad F - 3 q0 F_0 + (d_km - q_k q_m) F_km
    - 2 q0 q_k F_0k + (1 - q0^2) F_00 ] with all derivatives ambient.
    """
    f0 = p.diff(0)
    fk = [p.diff(k) for k in (1, 2, 3)]
    out = QPoly()
    for k in range(3):
        out = out - (QPoly.variable(k + 1) * fk[k]).scale(3.0)
    out = out - (QPoly.variable(0) * f0).scale(3.0)
    for k in range(3):
        for m_ in range(3):
            fkm = fk[k].diff(m_ + 1)
            if k == m_:
                out = out + fkm
            out = out - QPoly.variable(k + 1) * QPoly.variable(m_ + 1) * fkm
    for k in range(3):
        out = out - (QPoly.variable(0) * QPoly.variable(k + 1) * f0.diff(k + 1)).scale(2.0)
    s2 = (QPoly.variable(1) * QPoly.variable(1) + QPoly.variable(2) * QPoly.variable(2)
          + QPoly.variable(3) * QPoly.variable(3))
    out = out + s2 * f0.diff(0)
    return out.scale(1.0 / (R * R))


# ---------------------------------------------------------------------------
# finite-difference backends (work on any evaluator)

def _q_of_eps(eps: np.ndarray, sign: np.ndarray, R: float) -> np.ndarray:
    s2 = np.sum(eps * eps, axis=-1) / (R * R)
    q0 = sign * np.sqrt(np.clip(1.0 - s2, 0.0, None))
    return np.concatenate([q0[..., None], eps / R], axis=-1)


def _fd_steps(q: np.ndarray, R: float, order: int) -> np.ndarray:
    rho_abs = np.abs(q[..., 0])
    eps_norm = R * np.sqrt(np.clip(1.0 - rho_abs ** 2, 0.0, None))
    if order == 1:
        h = _H1_REL * R * np.clip(rho_abs, 1e-2, 1.0) ** 1.5
    else:
        h = _H2_REL * R * np.clip(rho_abs, 2e-2, 1.0) ** 1.83
    return np.minimum(h, (R - eps_norm) / 3.0)


def _fd_frame_derivs(fn, q: np.ndarray, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Right- and left-frame derivatives (each (3, N)) of fn at the points q.

    Where the chart stencil fits, the frame derivative is the contraction
    Z[i, k] d_k f with d_k f taken by central differences; near the
    equator the stencil is replaced by differencing f along the group
    flow of the frame field itself, which never leaves the sphere.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    npts = q.shape[0]
    eps = R * q[:, 1:]
    sign = np.where(q[:, 0] >= 0.0, 1.0, -1.0)
    h = _fd_steps(q, R, order=1)
    usable = h > 1e-11 * R
    fr = np.zeros((3, npts), dtype=complex)
    fl = np.zeros((3, npts), dtype=complex)

    if usable.any():
        e_u, s_u, h_u = eps[usable], sign[usable], h[usable]
        q_u = q[usable]
        derivs = []
        for k in range(3):
            acc = 0.0
            for o, w in zip(_D1_OFFSETS, _D1_WEIGHTS):
                shifted = e_u.copy()
                shifted[:, k] += o * h_u
                acc = acc + w * np.asarray(fn(_q_of_eps(shifted, s_u, R)))
            derivs.append(acc / (12.0 * h_u))
        for i in range(3):
            acc_r = q_u[:, 0] * derivs[i]
            acc_l = q_u[:, 0] * derivs[i]
            for k in range(3):
                eta = LEVI_CIVITA[k, i] @ (q_u[:, 1:].T)
                acc_r = acc_r + eta * derivs[k]
                acc_l = acc_l - eta * derivs[k]
            fr[i, usable] = acc_r
            fl[i, usable] = acc_l

    if (~usable).any():
        idx = np.flatnonzero(~usable)
        h0 = _H1_REL * R
        for i in range(3):
            acc_r = np.zeros(idx.size, dtype=complex)
            acc_l = np.zeros(idx.size, dtype=complex)
            for o, w in zip(_D1_OFFSETS, _D1_WEIGHTS):
                s = o * h0
                delta = np.zeros(4)
                delta[0] = math.sqrt(max(0.0, 1.0 - (s / R) ** 2))
                delta[1 + i] = s / R
                dd = np.broadcast_to(delta, (idx.size, 4))
                acc_r = acc_r + w * np.asarray(fn(quat_mul(dd, q[idx])))
                acc_l = acc_l + w * np.asarray(fn(quat_mul(q[idx], dd)))
            fr[i, idx] = acc_r / (12.0 * h0)
            fl[i, idx] = acc_l / (12.0 * h0)
    return fr, fl


#: below this |rho| the chart stencil loses accuracy faster than any step
#: law can recover (derivatives of the chart representation grow like
#: rho^(1-2k)); those points are routed through a left translation to the
#: chart origin, where the operator reduces to the flat second-derivative
#: stencil.
_ROUTE_RHO = 0.15


#: points per block of the finite-difference Laplacian, which bounds the
#: stencil values held at once when fn returns many rows per point.
_FD_BLOCK = 1024

_D2_WEIGHT_AT = dict(zip(_D2_OFFSETS, _D2_WEIGHTS))


def _fd_laplace_beltrami(fn, q: np.ndarray, R: float) -> np.ndarray:
    """Chart-formula Laplacian by central differences at the points q.

    fn maps points (n, 4) to values (..., n); the result keeps those
    leading axes, so one call differences a whole family of functions.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    return np.concatenate([_fd_laplace_block(fn, q[s:s + _FD_BLOCK], R)
                           for s in range(0, q.shape[0], _FD_BLOCK)], axis=-1)


def _fd_laplace_block(fn, q: np.ndarray, R: float) -> np.ndarray:
    npts = q.shape[0]
    eps = R * q[:, 1:]
    sign = np.where(q[:, 0] >= 0.0, 1.0, -1.0)
    h = _fd_steps(q, R, order=2)
    usable = (h > 1e-10 * R) & (np.abs(q[:, 0]) >= _ROUTE_RHO)
    parts = []

    if usable.any():
        e_u, s_u, h_u = eps[usable], sign[usable], h[usable]

        def ev(offsets: np.ndarray) -> np.ndarray:
            return np.asarray(fn(_q_of_eps(e_u + offsets, s_u, R)))

        f0 = ev(np.zeros_like(e_u))
        d1 = []
        d2 = []
        for k in range(3):
            # each axis shift feeds both the first- and second-derivative sums
            acc1 = 0.0
            acc2 = -30.0 * f0
            for o, w in zip(_D1_OFFSETS, _D1_WEIGHTS):
                off = np.zeros_like(e_u)
                off[:, k] = o * h_u
                val = ev(off)
                acc1 = acc1 + w * val
                acc2 = acc2 + _D2_WEIGHT_AT[o] * val
            d1.append(acc1 / (12.0 * h_u))
            d2.append(acc2 / (12.0 * h_u * h_u))
        mixed = {}
        for a in range(3):
            for b in range(a + 1, 3):
                acc = 0.0
                for oa, wa in zip(_D1_OFFSETS, _D1_WEIGHTS):
                    for ob, wb in zip(_D1_OFFSETS, _D1_WEIGHTS):
                        off = np.zeros_like(e_u)
                        off[:, a] = oa * h_u
                        off[:, b] = ob * h_u
                        acc = acc + wa * wb * ev(off)
                mixed[(a, b)] = acc / (144.0 * h_u * h_u)

        lap = 0.0
        for k in range(3):
            lap = lap - (3.0 / (R * R)) * e_u[:, k] * d1[k]
        for k in range(3):
            akk = 1.0 - e_u[:, k] * e_u[:, k] / (R * R)
            lap = lap + akk * d2[k]
        for a in range(3):
            for b in range(a + 1, 3):
                aab = -e_u[:, a] * e_u[:, b] / (R * R)
                lap = lap + 2.0 * aab * mixed[(a, b)]
        parts.append((usable, lap))

    if (~usable).any():
        # Equator routing: the Laplacian commutes with left translations,
        # so evaluate it at the chart origin of the translated functions.
        # At the origin the displayed operator is the flat second
        # derivative sum, so only the diagonal stencils are needed.
        idx = np.flatnonzero(~usable)
        p = q[idx]
        h0 = _H2_REL * R

        def moved(offset: np.ndarray) -> np.ndarray:
            qq = _q_of_eps(np.broadcast_to(offset, (idx.size, 3)),
                           np.ones(idx.size), R)
            return np.asarray(fn(quat_mul(p, qq)))

        base = moved(np.zeros(3))
        acc = 0.0
        for k in range(3):
            acc2 = -30.0 * base
            for o, w in zip(_D2_OFFSETS, _D2_WEIGHTS):
                if o != 0.0:
                    off = np.zeros(3)
                    off[k] = o * h0
                    acc2 = acc2 + w * moved(off)
            acc = acc + acc2 / (12.0 * h0 * h0)
        parts.append((~usable, acc))

    lead = parts[0][1]
    out = np.zeros(lead.shape[:-1] + (npts,), dtype=lead.dtype)
    for mask, vals in parts:
        out[..., mask] = vals
    return out


# ---------------------------------------------------------------------------
# public operators

def _resolve_method(wf: WaveFunction, method: str) -> str:
    if method == "auto":
        return "analytic" if wf.poly is not None else "fd"
    if method == "analytic" and wf.poly is None:
        raise DomainError("analytic backend needs a polynomial wave function")
    return method


def apply_nu(axis: int, wf: WaveFunction, cfg: SpaceConfig,
             method: str = "auto") -> WaveFunction:
    """Velocity operator nu_axis = -(i/m) Z[axis, k] d_k."""
    if axis not in (0, 1, 2):
        raise DomainError("axis must be 0, 1 or 2")
    method = _resolve_method(wf, method)
    if method == "analytic":
        return WaveFunction.from_poly(
            _frame_poly(wf.poly, axis, cfg.R, +1).scale(-1j / cfg.m))
    fn = wf.eval_q
    R, m = cfg.R, cfg.m

    def op(q: np.ndarray) -> np.ndarray:
        fr, _ = _fd_frame_derivs(fn, q, R)
        out = (-1j / m) * fr[axis]
        return out.reshape(np.asarray(q).shape[:-1])

    return WaveFunction(evaluator=op)


def apply_position(which, wf: WaveFunction, cfg: SpaceConfig) -> WaveFunction:
    """Multiplication by eps_i (which = 0, 1, 2) or by rho - 1 (which = 'rho')."""
    if which == "rho":
        if wf.poly is not None:
            factor = QPoly({(1, 0, 0, 0): 1.0, (0, 0, 0, 0): -1.0})
            return WaveFunction.from_poly(wf.poly * factor)
        fn = wf.eval_q
        return WaveFunction(evaluator=lambda q: (np.asarray(q)[..., 0] - 1.0) * fn(q))
    if which not in (0, 1, 2):
        raise DomainError("which must be 0, 1, 2 or 'rho'")
    if wf.poly is not None:
        return WaveFunction.from_poly(wf.poly.mul_variable(which + 1).scale(cfg.R))
    fn = wf.eval_q
    return WaveFunction(
        evaluator=lambda q: cfg.R * np.asarray(q)[..., which + 1] * fn(q))


def apply_J(which, wf: WaveFunction, cfg: SpaceConfig, hermitian: bool = True,
            method: str = "auto") -> WaveFunction:
    """Rotation operators: axis 0..2, 'third' (= axis 2) or 'squared'.

    The hermitized operator is -i times the raw generator so that the
    eigenvalues are the real rotation quantum numbers; pass
    hermitian=False for the raw generator itself.
    """
    if which == "third":
        which = 2
    if which == "squared":
        total = None
        for axis in range(3):
            once = apply_J(axis, wf, cfg, hermitian=False, method=method)
            twice = apply_J(axis, once, cfg, hermitian=False, method=method)
            total = twice if total is None else _wf_add(total, twice)
        return _wf_scale(total, -1.0)  # (-i J)^2 summed = -sum J_raw^2
    if which not in (0, 1, 2):
        raise DomainError("which must be 0, 1, 2, 'third' or 'squared'")
    method = _resolve_method(wf, method)
    if method == "analytic":
        p = _j_raw_poly(wf.poly, which)
        return WaveFunction.from_poly(p.scale(-1j) if hermitian else p)
    fn = wf.eval_q
    R = cfg.R

    def op(q: np.ndarray) -> np.ndarray:
        # J_raw = (R/2) (right frame - left frame), regular everywhere.
        fr, fl = _fd_frame_derivs(fn, q, R)
        acc = 0.5 * R * (fr[which] - fl[which])
        if hermitian:
            acc = -1j * acc
        return acc.reshape(np.asarray(q).shape[:-1])

    return WaveFunction(evaluator=op)


def left_action_operator(axis: int, wf: WaveFunction, cfg: SpaceConfig,
                         method: str = "auto") -> WaveFunction:
    """Left-frame derivative operator Z_left[axis, k] d_k."""
    if axis not in (0, 1, 2):
        raise DomainError("axis must be 0, 1 or 2")
    method = _resolve_method(wf, method)
    if method == "analytic":
        return WaveFunction.from_poly(_frame_poly(wf.poly, axis, cfg.R, -1))
    fn = wf.eval_q
    R = cfg.R

    def op(q: np.ndarray) -> np.ndarray:
        _, fl = _fd_frame_derivs(fn, q, R)
        return fl[axis].reshape(np.asarray(q).shape[:-1])

    return WaveFunction(evaluator=op)


def right_action_operator(axis: int, wf: WaveFunction, cfg: SpaceConfig,
                          method: str = "auto") -> WaveFunction:
    """Right-frame derivative operator Z_right[axis, k] d_k (= i m nu)."""
    out = apply_nu(axis, wf, cfg, method)
    return _wf_scale(out, 1j * cfg.m)


def apply_hamiltonian(wf: WaveFunction, cfg: SpaceConfig,
                      backend: str = "via_nu", method: str = "auto") -> WaveFunction:
    """Energy operator through either of two independent routes.

    backend 'via_nu' contracts two velocity operators with (m/2); the
    'laplace_beltrami' backend applies the displayed second-order chart
    operator -(1/2m)[-(3/R^2) eps . d + (d^km - eps^k eps^m / R^2) d^2].
    """
    if backend == "via_nu":
        total = None
        for axis in range(3):
            once = apply_nu(axis, wf, cfg, method)
            twice = apply_nu(axis, once, cfg, method)
            total = twice if total is None else _wf_add(total, twice)
        return _wf_scale(total, 0.5 * cfg.m)
    if backend != "laplace_beltrami":
        raise DomainError("backend must be 'via_nu' or 'laplace_beltrami'")
    method = _resolve_method(wf, method)
    if method == "analytic":
        p = _laplace_beltrami_poly(wf.poly, cfg.R)
        return WaveFunction.from_poly(p.scale(-0.5 / cfg.m))
    fn = wf.eval_q
    R, m = cfg.R, cfg.m

    def op(q: np.ndarray) -> np.ndarray:
        lap = _fd_laplace_beltrami(fn, q, R)
        return (-0.5 / m) * lap.reshape(np.asarray(q).shape[:-1])

    return WaveFunction(evaluator=op)


def _wf_add(a: WaveFunction, b: WaveFunction) -> WaveFunction:
    if a.poly is not None and b.poly is not None:
        return WaveFunction.from_poly(a.poly + b.poly)
    fa, fb = a.eval_q, b.eval_q
    return WaveFunction(evaluator=lambda q: fa(q) + fb(q))


def _wf_scale(a: WaveFunction, s) -> WaveFunction:
    if a.poly is not None:
        return WaveFunction.from_poly(a.poly.scale(s))
    fa = a.eval_q
    return WaveFunction(evaluator=lambda q: s * fa(q))


# ---------------------------------------------------------------------------
# quadrature-level diagnostics

def inner_product(a: WaveFunction, b: WaveFunction, grid: QuadGrid) -> complex:
    va = a.eval_q(grid.q)
    vb = b.eval_q(grid.q)
    return integrate_values(np.conj(va) * vb, grid)


#: rows per block of the weighted Gram product, which bounds the
#: weighted copy of the values held at once.
_GRAM_BLOCK = 16


def gram_matrix(n_max: int, grid: QuadGrid, cfg: SpaceConfig):
    """Labels and Gram matrix of the orthonormal basis through n_max."""
    labels = labels_up_to(n_max)
    polys = [psi(lb, cfg).poly for lb in labels]
    vals = eval_many(polys, grid.q)
    gram = np.empty((len(labels), len(labels)), dtype=complex)
    for s in range(0, len(labels), _GRAM_BLOCK):
        gram[s:s + _GRAM_BLOCK] = (vals[s:s + _GRAM_BLOCK].conj() * grid.weight) @ vals.T
    return labels, gram


@lru_cache(maxsize=None)
def _eigen_images(label: SpectralLabel, cfg: SpaceConfig) -> tuple[QPoly, ...]:
    """psi, J^2 psi, J_3 psi and H psi (via nu) of a basis function."""
    wf = psi(label, cfg)
    return (wf.poly, apply_J("squared", wf, cfg).poly, apply_J("third", wf, cfg).poly,
            apply_hamiltonian(wf, cfg, "via_nu", "analytic").poly)


def eigen_residual_table(n_max: int, grid: QuadGrid, cfg: SpaceConfig,
                         backend: str = "analytic") -> list[dict]:
    """Rows (n, l, m_z, E, norm/H/J2/J3 residuals) for every label.

    backend 'analytic' uses the polynomial operators; 'fd' runs the
    finite-difference Laplace-Beltrami route for the energy residual
    (the rotation residuals stay analytic).  Each label's psi and its
    operator images are evaluated from their own monomial rows, and every
    residual is a quadrature sum over those node values.
    """
    labels = labels_up_to(n_max)
    q = grid.q
    if backend != "analytic":
        # The stencil is linear: difference the real monomial rows of all
        # labels once, then apply the coefficients.
        basis = MonomialBasis([psi(lb, cfg).poly for lb in labels])
        lap = basis.coeffs @ _fd_laplace_beltrami(basis.rows, q, cfg.R)
        h_fd = (-0.5 / cfg.m) * lap
    rows = []
    for i, lb in enumerate(labels):
        images = _eigen_images(lb, cfg)
        if backend != "analytic":
            images = images[:3]  # H psi comes from the stencil pass
        vals, j2vals, j3vals, *h = MonomialBasis(images).values(q)
        e_n = energy(lb.n, cfg)
        diffs = np.stack([vals, (h[0] if h else h_fd[i]) - e_n * vals,
                          j2vals - lb.l * (lb.l + 1.0) * vals, j3vals - lb.m_z * vals])
        norm2, h2, j22, j32 = (diffs.real ** 2 + diffs.imag ** 2) @ grid.weight
        rows.append({
            "n": lb.n, "l": lb.l, "m_z": lb.m_z, "energy": e_n,
            "norm_residual": abs(float(norm2) - 1.0),
            "h_residual": math.sqrt(h2) / math.sqrt(norm2),
            "j2_residual": math.sqrt(j22) / math.sqrt(norm2),
            "j3_residual": math.sqrt(j32) / math.sqrt(norm2),
        })
    return rows


def hermiticity_check(pair_count: int, grid: QuadGrid, cfg: SpaceConfig,
                      seed: int = 0, n_max: int = 4) -> dict:
    """Max |<a, Op b> - <Op a, b>| per operator over random basis pairs.

    Every inner product is read as conj(c_f) @ G @ c_g from one moment
    matrix G of the monomials of the sampled basis functions and their
    operator images on the grid.
    """
    rng = np.random.default_rng(seed)
    labels = labels_up_to(n_max)
    ops = {
        "nu_1": lambda w: apply_nu(0, w, cfg),
        "nu_2": lambda w: apply_nu(1, w, cfg),
        "nu_3": lambda w: apply_nu(2, w, cfg),
        "eps_1": lambda w: apply_position(0, w, cfg),
        "eps_2": lambda w: apply_position(1, w, cfg),
        "eps_3": lambda w: apply_position(2, w, cfg),
        "rho": lambda w: apply_position("rho", w, cfg),
        "J_1": lambda w: apply_J(0, w, cfg),
        "J_2": lambda w: apply_J(1, w, cfg),
        "J_3": lambda w: apply_J(2, w, cfg),
        "H": lambda w: apply_hamiltonian(w, cfg),
    }
    pairs = [[labels[int(i)] for i in rng.integers(0, len(labels), size=2)]
             for _ in range(pair_count)]
    row = {}  # (label, operator name or None) -> row of the coefficient matrix
    polys = []
    for lb in dict.fromkeys(lb for pair in pairs for lb in pair):
        wf = psi(lb, cfg)
        row[lb, None] = len(polys)
        polys.append(wf.poly)
        for name, op in ops.items():
            row[lb, name] = len(polys)
            polys.append(op(wf).poly)
    basis = MonomialBasis(polys)
    coeffs = basis.coeffs
    g_c = basis.moment_matrix(grid.q, grid.weight) @ coeffs.T

    def inner(f: list, g: list) -> np.ndarray:
        return np.sum(coeffs[f].conj() * g_c[:, g].T, axis=-1)

    worst = {}
    for name in ops:
        lhs = inner([row[a, None] for a, _ in pairs], [row[b, name] for _, b in pairs])
        rhs = inner([row[a, name] for a, _ in pairs], [row[b, None] for _, b in pairs])
        worst[name] = float(np.max(np.abs(lhs - rhs), initial=0.0))
    worst["max"] = max(worst.values())
    return worst


def level_leakage(n: int, grid: QuadGrid, cfg: SpaceConfig,
                  n_max: int | None = None) -> float:
    """Worst projection outside level n of rotation and velocity images.

    The images cover every J_a, every nu_a, and every velocity quadratic
    nu_a nu_b applied to each basis function of the level; all of them
    must stay inside the (n + 1)^2-dimensional eigenspace.
    """
    if n_max is None:
        n_max = n + 2
    others = [psi(lb, cfg).poly for lb in labels_up_to(n_max) if lb.n != n]
    other_vals = eval_many(others, grid.q)
    worst = 0.0
    for lb in labels_up_to(n):
        if lb.n != n:
            continue
        wf = psi(lb, cfg)
        images = [apply_nu(a, wf, cfg) for a in range(3)]
        images += [apply_J(a, wf, cfg) for a in range(3)]
        images += [apply_nu(a, apply_nu(b, wf, cfg), cfg)
                   for a in range(3) for b in range(3)]
        image_vals = eval_many([img.poly for img in images], grid.q)
        overlaps = (other_vals.conj() * grid.weight) @ image_vals.T
        worst = max(worst, float(np.max(np.abs(overlaps))))
    return worst


# ---------------------------------------------------------------------------
# flat-space contraction study

class SmoothBump:
    """Compactly supported test function b(|eps|/r0) times a polynomial.

    value, grad and hess are closed-form and vectorized over points of
    shape (N, 3); everything vanishes identically outside |eps| < r0.
    """

    def __init__(self, r0: float, poly_kind: str = "one"):
        self.r0 = r0
        self.poly_kind = poly_kind

    def _bump(self, eps: np.ndarray):
        s2 = np.sum(eps * eps, axis=-1) / (self.r0 ** 2)
        inside = s2 < 1.0 - 1e-12
        u = np.where(inside, 1.0 - s2, 1.0)
        b = np.where(inside, np.exp(-1.0 / u), 0.0)
        return b, u, inside

    def _poly(self, eps: np.ndarray):
        r0 = self.r0
        if self.poly_kind == "one":
            g = np.ones(eps.shape[:-1])
            dg = np.zeros_like(eps)
            hg = np.zeros(eps.shape[:-1] + (3, 3))
        elif self.poly_kind == "linear":
            g = eps[..., 0] / r0
            dg = np.zeros_like(eps)
            dg[..., 0] = 1.0 / r0
            hg = np.zeros(eps.shape[:-1] + (3, 3))
        elif self.poly_kind == "cross":
            g = eps[..., 0] * eps[..., 1] / r0 ** 2
            dg = np.zeros_like(eps)
            dg[..., 0] = eps[..., 1] / r0 ** 2
            dg[..., 1] = eps[..., 0] / r0 ** 2
            hg = np.zeros(eps.shape[:-1] + (3, 3))
            hg[..., 0, 1] = hg[..., 1, 0] = 1.0 / r0 ** 2
        else:
            raise DomainError(f"unknown poly_kind {self.poly_kind!r}")
        return g, dg, hg

    def value(self, eps: np.ndarray) -> np.ndarray:
        b, _, _ = self._bump(eps)
        g, _, _ = self._poly(eps)
        return b * g

    def grad(self, eps: np.ndarray) -> np.ndarray:
        b, u, inside = self._bump(eps)
        g, dg, _ = self._poly(eps)
        w = np.where(inside, 1.0 / u, 0.0)
        db = (-2.0 * b * w * w / self.r0 ** 2)[..., None] * eps
        return db * g[..., None] + b[..., None] * dg

    def hess(self, eps: np.ndarray) -> np.ndarray:
        b, u, inside = self._bump(eps)
        g, dg, hg = self._poly(eps)
        r0sq = self.r0 ** 2
        w = np.where(inside, 1.0 / u, 0.0)
        db = (-2.0 * b * w * w / r0sq)[..., None] * eps
        coeff = (4.0 * w ** 4 - 8.0 * w ** 3) * b / (r0sq * r0sq)
        hb = coeff[..., None, None] * (eps[..., :, None] * eps[..., None, :])
        diag = (-2.0 * b * w * w / r0sq)[..., None, None] * np.eye(3)
        hb = hb + diag
        out = hb * g[..., None, None]
        out = out + db[..., :, None] * dg[..., None, :]
        out = out + dg[..., :, None] * db[..., None, :]
        out = out + b[..., None, None] * hg
        return out


def default_test_functions(r0: float) -> list[SmoothBump]:
    return [SmoothBump(r0, "one"), SmoothBump(r0, "linear"), SmoothBump(r0, "cross")]


def contraction_study(R_values, test_functions=None, cfg: SpaceConfig | None = None,
                      r0: float = 1.0, box_points: int = 5) -> dict:
    """Deviation of the curved operators from their flat limits.

    For each radius R the curved velocity operator is compared against
    -(i/m) d_i and the curved energy operator against -(1/2m) nabla^2 on
    compactly supported test functions evaluated over a fixed box; the
    position operator is radius independent by construction.  Reports
    the max deviations D(R) and the fitted log-log slopes.
    """
    if cfg is None:
        cfg = SpaceConfig()
    radii = [float(r) for r in R_values]
    if min(radii) < 10.0 * r0:
        raise DomainError(
            "test-function support must be well inside the chart: require "
            f"min(R) >= 10 r0, got min(R) = {min(radii)}, r0 = {r0}")
    if test_functions is None:
        test_functions = default_test_functions(r0)

    axis = np.linspace(-0.9 * r0, 0.9 * r0, box_points)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    box = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=-1)

    d_nu, d_h, d_pos = [], [], []
    for R in radii:
        m = cfg.m
        rho_box = np.sqrt(1.0 - np.sum(box * box, axis=-1) / (R * R))
        worst_nu = worst_h = worst_pos = 0.0
        for f in test_functions:
            grad = f.grad(box)
            hess = f.hess(box)
            for i in range(3):
                zdot = rho_box * grad[:, i]
                for k in range(3):
                    zdot = zdot + (LEVI_CIVITA[k, i] @ box.T) * grad[:, k] / R
                dev = np.abs(zdot - grad[:, i]) / m
                worst_nu = max(worst_nu, float(np.max(dev)))
            eps_dot_grad = np.sum(box * grad, axis=-1)
            quad = np.einsum("pk,pkm,pm->p", box, hess, box)
            dev_h = np.abs(-(1.0 / (2.0 * m)) * (
                -(3.0 / (R * R)) * eps_dot_grad - quad / (R * R)))
            worst_h = max(worst_h, float(np.max(dev_h)))
            worst_pos = max(worst_pos, 0.0)
        d_nu.append(worst_nu)
        d_h.append(worst_h)
        d_pos.append(worst_pos)

    def slope(ds):
        if min(ds) <= 0.0:
            return float("nan")
        return float(np.polyfit(np.log(radii), np.log(ds), 1)[0])

    return {
        "radii": radii,
        "r0": r0,
        "nu": {"deviation": d_nu, "slope": slope(d_nu),
               "strictly_decreasing": all(a > b for a, b in zip(d_nu, d_nu[1:]))},
        "hamiltonian": {"deviation": d_h, "slope": slope(d_h),
                        "strictly_decreasing": all(a > b for a, b in zip(d_h, d_h[1:]))},
        "position": {"deviation": d_pos,
                     "identically_zero": all(v == 0.0 for v in d_pos)},
    }


# ---------------------------------------------------------------------------
# polarized lift over the full symmetry group

def polarized_wavefunction(phi_wf: WaveFunction, cfg: SpaceConfig):
    """Lift a configuration-space wave function to the group.

    Psi(zeta, eps, nu, z) = zeta exp(-i m (eps . nu + R (rho - 1) z))
    phi(eps); the right-frame derivatives of this lift reduce to the
    configuration-space operator dictionary, which is what the dedicated
    reduction test exercises.
    """
    m, R = cfg.m, cfg.R

    def lift(g) -> complex:
        c = g.chart()
        r = rho(c, cfg)
        q = np.concatenate(([r], g.eps / R))
        phase = -m * (float(np.dot(g.eps, g.nu)) + R * (r - 1.0) * g.z)
        return g.zeta * complex(np.exp(1j * phase)) * complex(phi_wf.eval_q(q))

    return lift
