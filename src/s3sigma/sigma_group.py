"""The centrally extended 7-parameter symmetry group of the sphere particle.

Elements carry (eps, rho; nu; z; zeta): the SU(2) part as the unit
quaternion (rho, eps / R) with its signed height stored, two
velocity-type translation blocks nu and z, and a U(1) phase zeta.
Composition, inversion, both invariant frames, the quantization
1-form dual to the central generator, its Noether invariants, and the
numerical machinery that verifies the commutator table live here.
Everything is batch-first: ElementBatch is the one stored form of an
element and the group law works on its arrays; both frames and Theta
come from one kernel over coordinate arrays (..., 8).  A
SigmaGroupElement is the N = 1 row view of a batch, and the
per-element functions are the N = 1 case of the batched ones.

Coordinate order for all 8-component objects: (eps1, eps2, eps3,
nu1, nu2, nu3, z, phi) with zeta = exp(i phi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numdiff
from .config import SpaceConfig
from .errors import DomainError
# dual_field stays bound here, an import-by-name site that the benchmark
# tracer's tests check, though the frames below no longer call it.
from .geometry import (ChartCoords, LEVI_CIVITA, _dot, _dual, _heights,  # noqa: F401
                       cross_matrix, dual_field, quat_mul)
from .sampling import Draws


@dataclass(frozen=True, eq=False)
class ElementBatch:
    """N group elements held as arrays, the one stored form of an element.

    eps (N, 3) and the signed heights rho (N,) are the unit quaternions
    (rho, eps / R), kept as given; nu (N, 3), z (N,) and zeta (N,).
    from_chart makes elements from chart data; the fields of the plain
    constructor are taken as they are, as the group law returns them.
    Indexing with an integer gives the SigmaGroupElement view of that
    row, with a slice or an index array a smaller batch.
    """

    eps: np.ndarray
    rho: np.ndarray
    nu: np.ndarray
    z: np.ndarray
    zeta: np.ndarray

    @classmethod
    def from_chart(cls, eps, rho_sign, nu, z, zeta, cfg: SpaceConfig) -> "ElementBatch":
        """Elements from chart points eps (N, 3) of the closed ball |eps| <= R and
        hemisphere signs rho_sign (N,); each height is computed here, once.

        DomainError for a sign other than +1 or -1, an eps outside the ball
        or not finite, or a |zeta| more than 1e-9 away from 1.
        """
        e = np.array(eps, dtype=float).reshape(-1, 3)
        n = len(e)
        sign = np.asarray(rho_sign).reshape(n)
        if not np.all((sign == 1) | (sign == -1)):
            raise DomainError("rho_sign must be +1 or -1")
        return cls(e, _heights(e, sign, cfg), np.array(nu, dtype=float).reshape(n, 3),
                   np.array(z, dtype=float).reshape(n),
                   _unit_phase(np.array(zeta, dtype=complex).reshape(n)))

    @cached_property
    def rho_sign(self) -> np.ndarray:
        """Hemisphere labels +-1 (N,), formed once; a height of -0.0 is in the lower hemisphere."""
        return np.where(np.signbit(self.rho), -1, 1)

    def __len__(self) -> int:
        return len(self.z)

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            k = range(len(self))[k]  # an IndexError past the end ends iteration
            row = SigmaGroupElement.__new__(SigmaGroupElement)
            row.batch = self[k:k + 1]
            return row
        return ElementBatch(self.eps[k], self.rho[k], self.nu[k], self.z[k], self.zeta[k])


class SigmaGroupElement:
    """One group element: the N = 1 row view of an ElementBatch, held as batch.

    SigmaGroupElement(eps, rho_sign, nu, z, zeta, cfg) makes it from chart
    data through ElementBatch.from_chart; nu and z carry velocity units,
    zeta is a phase.
    """

    __slots__ = ("batch",)

    def __init__(self, eps, rho_sign: int, nu, z: float, zeta: complex,
                 cfg: SpaceConfig) -> None:
        self.batch = ElementBatch.from_chart(eps, rho_sign, nu, z, zeta, cfg)

    eps = property(lambda self: self.batch.eps[0])
    rho = property(lambda self: float(self.batch.rho[0]))
    rho_sign = property(lambda self: int(self.batch.rho_sign[0]))
    nu = property(lambda self: self.batch.nu[0])
    z = property(lambda self: float(self.batch.z[0]))
    zeta = property(lambda self: complex(self.batch.zeta[0]))

    @property
    def phi(self) -> float:
        return math.atan2(self.zeta.imag, self.zeta.real)

    def chart(self) -> ChartCoords:
        return ChartCoords(self.eps, self.rho_sign)


def _unit_phase(zeta: np.ndarray) -> np.ndarray:
    """Phases zeta (N,) renormalized onto |zeta| = 1, keeping them exactly unimodular
    after arithmetic; DomainError when a modulus is more than 1e-9 away from 1.

    hypot and a division of each part round as abs() and / of a Python complex.
    """
    mod = np.hypot(zeta.real, zeta.imag)
    off = np.abs(mod - 1.0) > 1e-9
    if np.any(off):
        raise DomainError(f"|zeta| = {mod[off][0]} is not 1")
    return zeta.real / mod + 1j * (zeta.imag / mod)


def identity(cfg: SpaceConfig) -> SigmaGroupElement:
    return SigmaGroupElement(np.zeros(3), +1, np.zeros(3), 0.0, 1.0 + 0.0j, cfg)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product with the rounding of Python complex arithmetic."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def element_from_coords(x: np.ndarray, rho_sign: int, cfg: SpaceConfig) -> SigmaGroupElement:
    """Build an element from the 8 coordinates (eps, nu, z, phi)."""
    x = np.asarray(x, dtype=float)
    return SigmaGroupElement(x[0:3], rho_sign, x[3:6], float(x[6]),
                             cmath.exp(1j * float(x[7])), cfg)


def compose_many(gp: ElementBatch, g: ElementBatch, cfg: SpaceConfig) -> ElementBatch:
    """Group law gp[k] * g[k] for every k (gp acts from the left).

    The eps sector is quaternion multiplication in the embedding, so
    products are defined on both hemispheres and keep the product's
    height; nu, z and the phase follow the closed composition rules of
    the extension, with the nu block rotated by the left-frame matrix
    of gp.
    """
    R = cfg.R
    rho_p = gp.rho
    qq = quat_mul(np.column_stack((rho_p, gp.eps / R)), np.column_stack((g.rho, g.eps / R)))
    eps_nu = _dot(gp.eps, g.nu)
    nu2 = (gp.nu + rho_p[:, None] * g.nu + np.cross(gp.eps, g.nu) / R
           + gp.eps * (g.z / R)[:, None])
    z2 = gp.z + rho_p * g.z - eps_nu / R
    phase = -cfg.m * (R * (rho_p - 1.0) * g.z - eps_nu)
    zeta2 = _cmul(_cmul(gp.zeta, g.zeta), np.exp(1j * phase))
    return ElementBatch(R * qq[:, 1:], qq[:, 0], nu2, z2, _unit_phase(zeta2))


def inverse_many(g: ElementBatch, cfg: SpaceConfig) -> ElementBatch:
    """Two-sided inverses, solved in closed form from the group law; the
    inverse quaternion is the conjugate, so the height is kept."""
    r = g.rho
    R = cfg.R
    eps_nu = _dot(g.eps, g.nu)
    nu_i = (-r[:, None] * g.nu + np.cross(g.eps, g.nu) / R
            + g.eps * (g.z / R)[:, None])
    z_i = -r * g.z - eps_nu / R
    phase = cfg.m * (R * (r - 1.0) * g.z + eps_nu)
    zeta_i = _cmul(np.conjugate(g.zeta), np.exp(1j * phase))
    return ElementBatch(-g.eps, r, nu_i, z_i, _unit_phase(zeta_i))


def distance_many(a: ElementBatch, b: ElementBatch, cfg: SpaceConfig) -> np.ndarray:
    """Componentwise distances with eps measured in units of R.

    The signed height enters so hemisphere disagreements register even
    when the eps components coincide.
    """
    dzeta = a.zeta - b.zeta
    return np.max(np.stack([
        np.max(np.abs(a.eps - b.eps), axis=1) / cfg.R,
        np.abs(a.rho - b.rho),
        np.max(np.abs(a.nu - b.nu), axis=1),
        np.abs(a.z - b.z),
        np.hypot(dzeta.real, dzeta.imag),
    ]), axis=0)


def compose(gp: SigmaGroupElement, g: SigmaGroupElement,
            cfg: SpaceConfig) -> SigmaGroupElement:
    """Group law gp * g; the N = 1 case of compose_many."""
    return compose_many(gp.batch, g.batch, cfg)[0]


def inverse(g: SigmaGroupElement, cfg: SpaceConfig) -> SigmaGroupElement:
    """Two-sided inverse; the N = 1 case of inverse_many."""
    return inverse_many(g.batch, cfg)[0]


# ---------------------------------------------------------------------------
# invariant frames

def _theta(x: np.ndarray, rho_sign, cfg: SpaceConfig):
    """Theta (..., 8) at coordinates x (..., 8), and the heights rho it was built from.

    Theta = -m eps_i d nu^i - m R (rho - 1) d z + d phi, the invariant
    1-form dual to the central generator.  rho_sign broadcasts against
    x[..., 0].  Analytic in x: a complex x gives complex Theta.
    """
    eps = x[..., 0:3]
    r = _heights(eps, rho_sign, cfg)
    theta = np.zeros(x.shape[:-1] + (8,), dtype=x.dtype)
    theta[..., 3:6] = -cfg.m * eps
    theta[..., 6] = -cfg.m * cfg.R * (r - 1.0)
    theta[..., 7] = 1.0
    return theta, r


def _frames(x: np.ndarray, rho_sign, cfg: SpaceConfig):
    """Left frame (..., 8, 8), right frame (..., 8, 8) and Theta (..., 8) at x (..., 8).

    Rows of a frame are generators, columns coordinates: the three
    eps-type generators, the three nu-type ones, the z generator and the
    central one (plain d/dphi).  Every entry is elementwise in eps, nu
    and z (phi is not read); the rotation blocks are geometry's dual
    fields.  Analytic in x, as `_theta` is, so complex steps differentiate it.
    """
    R, m = cfg.R, cfg.m
    eps, nu, z = x[..., 0:3], x[..., 3:6], x[..., 6]
    theta, r = _theta(x, rho_sign, cfg)
    left = np.zeros(x.shape[:-1] + (8, 8), dtype=x.dtype)
    left[..., 0:3, 0:3] = left[..., 3:6, 3:6] = _dual(eps, r, -1.0, R)
    left[..., 3:6, 6] = -eps / R
    left[..., 3:6, 7] = m * eps
    left[..., 6, 3:6] = eps / R
    left[..., 6, 6] = r
    left[..., 6, 7] = theta[..., 6]
    left[..., 7, 7] = 1.0
    right = np.zeros_like(left)
    right[..., 0:3, 0:3] = _dual(eps, r, 1.0, R)
    # eps_{jik} nu_k / R, plus z / R on the diagonal
    right[..., 0:3, 3:6] = cross_matrix(-nu) / R + (z / R)[..., None, None] * np.eye(3)
    right[..., 0:3, 6] = -nu / R
    right[..., 0:3, 7] = m * nu
    right[..., 3:8, 3:8] = np.eye(5)
    return left, right, theta


def _coords(b: ElementBatch) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 8) coordinates (eps, nu, z, phi) of a batch and its (N,) hemisphere
    signs, the arguments of the frame kernels."""
    return np.column_stack((b.eps, b.nu, b.z, np.angle(b.zeta))), b.rho_sign


def left_fields(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """Components of the 8 left-invariant fields at g, rows per generator."""
    return _frames(*_coords(g.batch), cfg)[0][0]


def right_fields(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """Components of the 8 right-invariant fields at g, rows per generator."""
    return _frames(*_coords(g.batch), cfg)[1][0]


def quantization_form(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """Components of the invariant 1-form Theta dual to the central generator,
    an 8-covector in the (eps, nu, z, phi) basis."""
    return _theta(*_coords(g.batch), cfg)[0][0]


def noether_many(b: ElementBatch, cfg: SpaceConfig) -> np.ndarray:
    """The seven conserved pairings of Theta with the right frame, (N, 7).

    Order: the three eps-type invariants m (Z[i, k] nu_k - z eps_i / R),
    with Z the right dual field, the three nu-type ones -m eps_i, then
    -m R (rho - 1).
    """
    _, right, theta = _frames(*_coords(b), cfg)
    zr3 = right[:, 0:3, 0:3]
    return np.concatenate((
        cfg.m * ((zr3 @ b.nu[:, :, None])[..., 0] - (b.z / cfg.R)[:, None] * b.eps),
        theta[:, 3:7]), axis=1)


def noether_invariants(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """noether_many at one element."""
    return noether_many(g.batch, cfg)[0]


# ---------------------------------------------------------------------------
# numerical differential machinery on the group

def _dtheta(x: np.ndarray, rho_sign, cfg: SpaceConfig) -> np.ndarray:
    """dTheta[n, a, b] at coordinates x (N, 8), the antisymmetrized complex-step Jacobian."""
    sign = np.asarray(rho_sign)[:, None]
    jac = numdiff.complex_step_gradient(lambda y: _theta(y, sign, cfg)[0], x)
    return np.swapaxes(jac, -1, -2) - jac  # jac[n, b, a] = d Theta_b / d x^a


def dtheta_matrix(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """Exterior derivative dTheta[a, b] at one element."""
    return _dtheta(*_coords(g.batch), cfg)[0]


def _frame_with_jacobian(x: np.ndarray, rho_sign, cfg: SpaceConfig):
    """Both frames at coordinates x (N, 8) and their Jacobians J[n, a, k, i] = d F[n, a, k] / d x^i.

    One complex-step gradient of both 8x8 matrices serves every bracket
    of both frames; it carries no truncation error, so the brackets hold
    up to the chart equator.  Returns (left, right, left Jacobian, right
    Jacobian).
    """
    sign = np.asarray(rho_sign)[:, None]

    def both(y: np.ndarray) -> np.ndarray:
        left, right, _ = _frames(y, sign, cfg)
        return np.concatenate((left, right), axis=-2).reshape(y.shape[:-1] + (128,))

    left, right, _ = _frames(x, rho_sign, cfg)
    # C order: the bracket products round differently on a transposed layout
    jac = np.ascontiguousarray(numdiff.complex_step_gradient(both, x).reshape(-1, 16, 8, 8))
    return left, right, jac[:, :8], jac[:, 8:]


def _brackets(fa: np.ndarray, ja: np.ndarray, fb: np.ndarray, jb: np.ndarray) -> np.ndarray:
    """[F_a, F_b]^k = F_a^i d_i F_b^k - F_b^i d_i F_a^k from stacks of fields and Jacobians.

    DomainError when a component is not finite.
    """
    out = (jb @ fa[..., None])[..., 0] - (ja @ fb[..., None])[..., 0]
    if not np.all(np.isfinite(out)):
        raise DomainError("tangent components must be finite")
    return out


#: The 28 generator pairs a < b, in the order of the bracket table.
_PAIRS = np.triu_indices(8, 1)


def expected_right_bracket_coefficients(cfg: SpaceConfig) -> dict:
    """Structure-constant table of the right frame, keyed (a, b) -> 8-vector.

    Indices 0-2 are the eps generators, 3-5 the nu ones, 6 the z
    generator, 7 the central one.  Only nonzero entries appear.
    """
    R, m = cfg.R, cfg.m
    table: dict = {}
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            c = np.zeros(8)
            for k in range(3):
                c[k] = -(2.0 / R) * LEVI_CIVITA[k, i, j]
            table[(i, j)] = c
    for i in range(3):
        for j in range(3):
            c = np.zeros(8)
            for k in range(3):
                c[3 + k] = -(1.0 / R) * LEVI_CIVITA[k, i, j]
            if i == j:
                c[6] = 1.0 / R
                c[7] = -m
            table[(i, 3 + j)] = c
    for i in range(3):
        c = np.zeros(8)
        c[3 + i] = -1.0 / R
        table[(i, 6)] = c
    return table


def _right_structure_constants(fr: np.ndarray, jr: np.ndarray) -> np.ndarray:
    """Each right-frame bracket of the pairs a < b expanded in the right frame, (N, 28, 8)."""
    a, b = _PAIRS
    br = _brackets(fr[:, a], jr[:, a], fr[:, b], jr[:, b])
    return np.linalg.solve(np.swapaxes(fr, -1, -2)[:, None], br[..., None])[..., 0]


def measured_right_bracket_coefficients(g: SigmaGroupElement,
                                        cfg: SpaceConfig) -> dict:
    """Expand each numerical right-frame bracket back in the right frame.

    Returns (a, b) -> 8-vector of measured structure constants for all
    pairs a < b over the 8 generators.
    """
    _, fr, _, jr = _frame_with_jacobian(*_coords(g.batch), cfg)
    coeffs = _right_structure_constants(fr, jr)[0]
    return {(int(a), int(b)): c for a, b, c in zip(*_PAIRS, coeffs)}


def bracket_residuals(b: ElementBatch, cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per element of a batch, the largest deviation of the measured right-frame
    structure constants from the expected table, and the largest component
    of any [left, right] bracket (which should vanish)."""
    fl, fr, jl, jr = _frame_with_jacobian(*_coords(b), cfg)
    table = expected_right_bracket_coefficients(cfg)
    expected = np.array([table.get(pair, np.zeros(8)) for pair in zip(*_PAIRS)])
    deviation = np.abs(_right_structure_constants(fr, jr) - expected)
    mixed = _brackets(fl[:, :, None], jl[:, :, None], fr[:, None], jr[:, None])
    return np.max(deviation, axis=(1, 2)), np.max(np.abs(mixed), axis=(1, 2, 3))


def bracket_table_report(g: SigmaGroupElement, cfg: SpaceConfig) -> dict:
    """Measured vs expected right-frame structure constants at one element."""
    measured = measured_right_bracket_coefficients(g, cfg)
    expected = expected_right_bracket_coefficients(cfg)
    worst = 0.0
    rows = {}
    for (a, b), coeffs in measured.items():
        exp = expected.get((a, b), np.zeros(8))
        dev = float(np.max(np.abs(coeffs - exp)))
        worst = max(worst, dev)
        if np.max(np.abs(exp)) > 0.0 or dev > 1e-9:
            rows[f"{a},{b}"] = {
                "measured": [float(v) for v in coeffs],
                "expected": [float(v) for v in exp],
                "max_deviation": dev,
            }
    return {"max_coefficient_deviation": worst, "pairs": rows}


def characteristic_many(b: ElementBatch, cfg: SpaceConfig) -> dict:
    """characteristic_check at every element of a batch, as (N,) arrays,
    plus "theta_on_right" (N, 8), the pairings of Theta with the right fields."""
    x, sign = _coords(b)
    left, right, theta = _frames(x, sign, cfg)
    dth = _dtheta(x, sign, cfg)
    on_left = (theta[:, None, None, :] @ left[..., None])[..., 0, 0]
    on_right = (theta[:, None, None, :] @ right[..., None])[..., 0, 0]
    # rows: zl_z, zl_nu1 and the central generator xi
    d_on = np.max(np.abs((np.stack((left[:, 6], left[:, 3], right[:, 7]), 1)[:, :, None]
                          @ dth[:, None])[:, :, 0]), axis=-1)
    return {
        "theta_on_central": on_right[:, 7],
        "theta_on_zl_z": on_left[:, 6],
        "dtheta_on_zl_z": d_on[:, 0],
        "dtheta_on_central": d_on[:, 2],
        "theta_on_zl_nu1": on_left[:, 3],
        "theta_on_zl_eps1": on_left[:, 0],
        "dtheta_on_zl_nu1": d_on[:, 1],
        "theta_on_right": on_right,
    }


def characteristic_check(g: SigmaGroupElement, cfg: SpaceConfig) -> dict:
    """Contractions certifying the characteristic direction of Theta.

    The z-type left generator must annihilate both Theta and dTheta;
    the central generator is degenerate in dTheta; a nu-type left
    generator annihilates Theta but not dTheta (symplectic contrast).
    """
    chk = characteristic_many(g.batch, cfg)
    del chk["theta_on_right"]
    return {key: float(v[0]) for key, v in chk.items()}


def sample_batch(rng: Draws, cfg: SpaceConfig, count: int,
                 radius_fraction: float | None = None) -> ElementBatch:
    """Random elements with |eps| <= R sin(pi/8) unless told otherwise.

    That radius bound keeps pairwise and triple products away from the chart
    equator, where single-chart comparisons are made.  One draw x =
    rng.standard_normal((count, 11)), rng a Draws stream or a numpy Generator,
    gives element k from row k alone: eps = R f x[:3] / |x[:5]|, uniform in the
    ball of radius R f (the first three of five normal coordinates over the norm
    of all five; Voelker, Gosmann & Stewart, 2017), nu = x[5:8], z = x[8] and
    zeta = (x[9] + i x[10]) / |x[9] + i x[10]|.  So the first k elements do not
    depend on count and a seed keeps naming the elements its reports were made from.
    """
    if radius_fraction is None:
        radius_fraction = math.sin(math.pi / 8.0)
    x = rng.standard_normal((count, 11))
    # the squares of each row summed in order, rounding as a Python sum
    scale = (cfg.R * radius_fraction) / np.sqrt(np.sum(x[:, :5] ** 2, axis=1))
    # hypot and a division of each part round as abs() and / of a Python complex
    mod = np.hypot(x[:, 9], x[:, 10])
    zeta = x[:, 9] / mod + 1j * (x[:, 10] / mod)
    return ElementBatch.from_chart(x[:, :3] * scale[:, None], np.ones(count, dtype=int),
                                   x[:, 5:8], x[:, 8], zeta, cfg)


def group_axiom_residuals(rng: Draws, cfg: SpaceConfig,
                          samples: int) -> dict:
    """Worst associativity / inverse / identity residuals over random draws."""
    triples = sample_batch(rng, cfg, 3 * samples)
    a, b, c = triples[0::3], triples[1::3], triples[2::3]
    e = ElementBatch(np.zeros((samples, 3)), np.ones(samples), np.zeros((samples, 3)),
                     np.zeros(samples), np.ones(samples, dtype=complex))
    lhs = compose_many(compose_many(a, b, cfg), c, cfg)
    rhs = compose_many(a, compose_many(b, c, cfg), cfg)
    assoc = distance_many(lhs, rhs, cfg)
    ai = inverse_many(a, cfg)
    inv = np.maximum(distance_many(compose_many(ai, a, cfg), e, cfg),
                     distance_many(compose_many(a, ai, cfg), e, cfg))
    ident = np.maximum(distance_many(compose_many(e, a, cfg), a, cfg),
                       distance_many(compose_many(a, e, cfg), a, cfg))
    return {
        "samples": samples,
        "max_associativity_residual": float(np.max(assoc, initial=0.0)),
        "max_inverse_residual": float(np.max(inv, initial=0.0)),
        "max_identity_residual": float(np.max(ident, initial=0.0)),
    }
