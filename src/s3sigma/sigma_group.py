"""The centrally extended 7-parameter symmetry group of the sphere particle.

Elements carry (eps, rho_sign; nu; z; zeta): a quaternion-tracked SU(2)
part, two velocity-type translation blocks nu and z, and a U(1) phase
zeta.  Composition, inversion, both invariant frames, the quantization
1-form dual to the central generator, its Noether invariants, and the
numerical machinery that verifies the commutator table live here.
Everything is batch-first: the group law works on ElementBatch arrays,
and both frames and Theta come from one kernel over coordinate arrays
(..., 8); the per-element functions are their N = 1 case.

Coordinate order for all 8-component objects: (eps1, eps2, eps3,
nu1, nu2, nu3, z, phi) with zeta = exp(i phi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .config import SpaceConfig
from .errors import DomainError
# dual_field stays bound here, an import-by-name site that the benchmark
# tracer's tests check, though the frames below no longer call it.
from .geometry import (ChartCoords, LEVI_CIVITA, _dot, _dual, _heights,  # noqa: F401
                       _off_equator, cross_matrix, dual_field, quat_mul, rho)

@dataclass(frozen=True, eq=False)
class SigmaGroupElement:
    """One group element; nu and z carry velocity units, zeta is a phase."""

    eps: np.ndarray
    rho_sign: int
    nu: np.ndarray
    z: float
    zeta: complex

    def __post_init__(self) -> None:
        e = np.array(self.eps, dtype=float).reshape(3)
        n = np.array(self.nu, dtype=float).reshape(3)
        object.__setattr__(self, "eps", e)
        object.__setattr__(self, "nu", n)
        object.__setattr__(self, "zeta", complex(self.zeta))
        if self.rho_sign not in (-1, +1):
            raise DomainError("rho_sign must be +1 or -1")
        if abs(abs(self.zeta) - 1.0) > 1e-9:
            raise DomainError(f"|zeta| = {abs(self.zeta)} is not 1")
        # keep the phase exactly unimodular after arithmetic
        object.__setattr__(self, "zeta", self.zeta / abs(self.zeta))

    @property
    def phi(self) -> float:
        return math.atan2(self.zeta.imag, self.zeta.real)

    def chart(self) -> ChartCoords:
        return ChartCoords(self.eps, self.rho_sign)


@dataclass(frozen=True, eq=False)
class ElementBatch:
    """N group elements held as arrays, the form the group law works on.

    eps (N, 3), rho_sign (N,), nu (N, 3), z (N,) and zeta (N,).  Indexing
    with an integer gives a SigmaGroupElement, with a slice or an index
    array a smaller batch.
    """

    eps: np.ndarray
    rho_sign: np.ndarray
    nu: np.ndarray
    z: np.ndarray
    zeta: np.ndarray

    def __post_init__(self) -> None:
        e = np.array(self.eps, dtype=float).reshape(-1, 3)
        n = len(e)
        sign = np.asarray(self.rho_sign).reshape(n)
        if not np.all((sign == 1) | (sign == -1)):
            raise DomainError("rho_sign must be +1 or -1")
        zeta = np.array(self.zeta, dtype=complex).reshape(n)
        object.__setattr__(self, "eps", e)
        object.__setattr__(self, "rho_sign", sign.astype(int))
        object.__setattr__(self, "nu", np.array(self.nu, dtype=float).reshape(n, 3))
        object.__setattr__(self, "z", np.array(self.z, dtype=float).reshape(n))
        mod = np.hypot(zeta.real, zeta.imag)
        off = np.abs(mod - 1.0) > 1e-9
        if np.any(off):
            raise DomainError(f"|zeta| = {mod[off][0]} is not 1")
        # keep the phase exactly unimodular after arithmetic; hypot and a
        # division of each part round as abs() and / of a Python complex
        object.__setattr__(self, "zeta", zeta.real / mod + 1j * (zeta.imag / mod))

    @classmethod
    def of(cls, elements) -> "ElementBatch":
        """Stack already validated elements without renormalizing them."""
        return _unchecked(cls, eps=np.array([g.eps for g in elements]).reshape(-1, 3),
                          rho_sign=np.array([g.rho_sign for g in elements], dtype=int),
                          nu=np.array([g.nu for g in elements]).reshape(-1, 3),
                          z=np.array([g.z for g in elements], dtype=float),
                          zeta=np.array([g.zeta for g in elements], dtype=complex))

    def __len__(self) -> int:
        return len(self.z)

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            return _unchecked(SigmaGroupElement, eps=self.eps[k].copy(),
                              rho_sign=int(self.rho_sign[k]), nu=self.nu[k].copy(),
                              z=float(self.z[k]), zeta=complex(self.zeta[k]))
        return _unchecked(ElementBatch, eps=self.eps[k], rho_sign=self.rho_sign[k],
                          nu=self.nu[k], z=self.z[k], zeta=self.zeta[k])


def _unchecked(cls, **fields):
    """Instance of a frozen element type from fields that are already valid.

    Validation renormalizes zeta; skipping it here keeps the phase of an
    element renormalized once, when it is made, however often it moves
    between the scalar and the batch form.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def identity(cfg: SpaceConfig) -> SigmaGroupElement:
    return SigmaGroupElement(np.zeros(3), +1, np.zeros(3), 0.0, 1.0 + 0.0j)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product with the rounding of Python complex arithmetic."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def element_from_coords(x: np.ndarray, rho_sign: int = +1) -> SigmaGroupElement:
    """Build an element from the 8 coordinates (eps, nu, z, phi)."""
    x = np.asarray(x, dtype=float)
    return SigmaGroupElement(x[0:3], rho_sign, x[3:6], float(x[6]),
                             cmath.exp(1j * float(x[7])))


def element_coords(g: SigmaGroupElement) -> np.ndarray:
    return np.concatenate((g.eps, g.nu, [g.z], [g.phi]))


def compose_many(gp: ElementBatch, g: ElementBatch, cfg: SpaceConfig) -> ElementBatch:
    """Group law gp[k] * g[k] for every k (gp acts from the left).

    The eps sector is quaternion multiplication in the embedding, so
    products are defined on both hemispheres; nu, z and the phase follow
    the closed composition rules of the extension, with the nu block
    rotated by the left-frame matrix of gp.
    """
    R = cfg.R
    rho_p = _heights(gp.eps, gp.rho_sign, cfg)
    qp = np.concatenate((rho_p[:, None], gp.eps / R), axis=1)
    q = np.concatenate((_heights(g.eps, g.rho_sign, cfg)[:, None], g.eps / R), axis=1)
    qq = quat_mul(qp, q)
    eps_nu = _dot(gp.eps, g.nu)
    nu2 = (gp.nu + rho_p[:, None] * g.nu + np.cross(gp.eps, g.nu) / R
           + gp.eps * (g.z / R)[:, None])
    z2 = gp.z + rho_p * g.z - eps_nu / R
    phase = -cfg.m * (R * (rho_p - 1.0) * g.z - eps_nu)
    zeta2 = _cmul(_cmul(gp.zeta, g.zeta), np.exp(1j * phase))
    return ElementBatch(R * qq[:, 1:], np.where(qq[:, 0] >= 0.0, 1, -1), nu2, z2, zeta2)


def inverse_many(g: ElementBatch, cfg: SpaceConfig) -> ElementBatch:
    """Two-sided inverses, solved in closed form from the group law."""
    r = _heights(g.eps, g.rho_sign, cfg)
    R = cfg.R
    eps_nu = _dot(g.eps, g.nu)
    nu_i = (-r[:, None] * g.nu + np.cross(g.eps, g.nu) / R
            + g.eps * (g.z / R)[:, None])
    z_i = -r * g.z - eps_nu / R
    phase = cfg.m * (R * (r - 1.0) * g.z + eps_nu)
    zeta_i = _cmul(np.conjugate(g.zeta), np.exp(1j * phase))
    return ElementBatch(-g.eps, g.rho_sign, nu_i, z_i, zeta_i)


def distance_many(a: ElementBatch, b: ElementBatch, cfg: SpaceConfig) -> np.ndarray:
    """Componentwise distances with eps measured in units of R.

    The signed height enters so hemisphere disagreements register even
    when the eps components coincide.
    """
    dzeta = a.zeta - b.zeta
    return np.max(np.stack([
        np.max(np.abs(a.eps - b.eps), axis=1) / cfg.R,
        np.abs(_heights(a.eps, a.rho_sign, cfg) - _heights(b.eps, b.rho_sign, cfg)),
        np.max(np.abs(a.nu - b.nu), axis=1),
        np.abs(a.z - b.z),
        np.hypot(dzeta.real, dzeta.imag),
    ]), axis=0)


def compose(gp: SigmaGroupElement, g: SigmaGroupElement,
            cfg: SpaceConfig) -> SigmaGroupElement:
    """Group law gp * g; the N = 1 case of compose_many."""
    return compose_many(ElementBatch.of([gp]), ElementBatch.of([g]), cfg)[0]


def inverse(g: SigmaGroupElement, cfg: SpaceConfig) -> SigmaGroupElement:
    """Two-sided inverse; the N = 1 case of inverse_many."""
    return inverse_many(ElementBatch.of([g]), cfg)[0]


def element_distance(a: SigmaGroupElement, b: SigmaGroupElement,
                     cfg: SpaceConfig) -> float:
    """Distance of two elements; the N = 1 case of distance_many."""
    return float(distance_many(ElementBatch.of([a]), ElementBatch.of([b]), cfg)[0])


# ---------------------------------------------------------------------------
# invariant frames

def _theta(x: np.ndarray, rho_sign, cfg: SpaceConfig):
    """Theta (..., 8) at coordinates x (..., 8), and the heights rho it was built from.

    Theta = -m eps_i d nu^i - m R (rho - 1) d z + d phi, the invariant
    1-form dual to the central generator.  rho_sign broadcasts against
    x[..., 0].
    """
    eps = x[..., 0:3]
    r = _heights(eps, rho_sign, cfg)
    theta = np.zeros(x.shape[:-1] + (8,))
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
    fields.
    """
    R, m = cfg.R, cfg.m
    eps, nu, z = x[..., 0:3], x[..., 3:6], x[..., 6]
    theta, r = _theta(x, rho_sign, cfg)
    left = np.zeros(x.shape[:-1] + (8, 8))
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


def _coords(b: ElementBatch) -> np.ndarray:
    """The (N, 8) coordinates (eps, nu, z, phi) of a batch."""
    return np.column_stack((b.eps, b.nu, b.z, np.angle(b.zeta)))


def _one(g: SigmaGroupElement):
    """A single element as the (1, 8) coordinates and (1,) sign of a batch."""
    return element_coords(g)[None], np.array([g.rho_sign])


def left_fields(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """Components of the 8 left-invariant fields at g, rows per generator."""
    return _frames(*_one(g), cfg)[0][0]


def right_fields(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """Components of the 8 right-invariant fields at g, rows per generator."""
    return _frames(*_one(g), cfg)[1][0]


def quantization_form(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """Components of the invariant 1-form Theta dual to the central generator,
    an 8-covector in the (eps, nu, z, phi) basis."""
    return _theta(*_one(g), cfg)[0][0]


def noether_many(b: ElementBatch, cfg: SpaceConfig) -> np.ndarray:
    """The seven conserved pairings of Theta with the right frame, (N, 7).

    Order: the three eps-type invariants m (Z[i, k] nu_k - z eps_i / R),
    with Z the right dual field, the three nu-type ones -m eps_i, then
    -m R (rho - 1).
    """
    _, right, theta = _frames(_coords(b), b.rho_sign, cfg)
    zr3 = right[:, 0:3, 0:3]
    return np.concatenate((
        cfg.m * ((zr3 @ b.nu[:, :, None])[..., 0] - (b.z / cfg.R)[:, None] * b.eps),
        theta[:, 3:7]), axis=1)


def noether_invariants(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """noether_many at one element."""
    return noether_many(ElementBatch.of([g]), cfg)[0]


# ---------------------------------------------------------------------------
# numerical differential machinery on the group

def _coord_steps(cfg: SpaceConfig) -> np.ndarray:
    return numdiff.DEFAULT_REL_STEP * np.array([cfg.R] * 3 + [1.0] * 5)


def _dtheta(x: np.ndarray, rho_sign, cfg: SpaceConfig) -> np.ndarray:
    """dTheta[n, a, b] at coordinates x (N, 8), by antisymmetrized differentiation."""
    sign = np.asarray(rho_sign)[:, None, None]
    jac = numdiff.stencil_gradient(lambda y: _theta(y, sign, cfg)[0], x, _coord_steps(cfg))
    return np.swapaxes(jac, -1, -2) - jac  # jac[n, b, a] = d Theta_b / d x^a


def dtheta_matrix(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """Exterior derivative dTheta[a, b] at one element."""
    return _dtheta(*_one(g), cfg)[0]


def dtheta_exact(g: SigmaGroupElement, cfg: SpaceConfig) -> np.ndarray:
    """Closed-form dTheta for the chart interior, used as a cross-check."""
    r = _off_equator(rho(g.chart(), cfg))
    out = np.zeros((8, 8))
    m, R = cfg.m, cfg.R
    for k in range(3):
        out[k, 3 + k] = -m
        out[3 + k, k] = +m
        out[k, 6] = m * g.eps[k] / (R * r)
        out[6, k] = -m * g.eps[k] / (R * r)
    return out


def _frame_with_jacobian(x: np.ndarray, rho_sign, cfg: SpaceConfig):
    """Both frames at coordinates x (N, 8) and their Jacobians J[n, a, k, i] = d F[n, a, k] / d x^i.

    One stencil over both 8x8 matrices serves every bracket of both
    frames; row a of it is, bit for bit, the stencil of field a alone.
    Returns (left, right, left Jacobian, right Jacobian).
    """
    sign = np.asarray(rho_sign)[:, None, None]

    def both(y: np.ndarray) -> np.ndarray:
        left, right, _ = _frames(y, sign, cfg)
        return np.concatenate((left, right), axis=-2).reshape(y.shape[:-1] + (128,))

    left, right, _ = _frames(x, rho_sign, cfg)
    # C order: the bracket products round differently on a transposed layout
    jac = np.ascontiguousarray(numdiff.stencil_gradient(both, x, _coord_steps(cfg))
                               .reshape(-1, 16, 8, 8))
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
    _, fr, _, jr = _frame_with_jacobian(*_one(g), cfg)
    coeffs = _right_structure_constants(fr, jr)[0]
    return {(int(a), int(b)): c for a, b, c in zip(*_PAIRS, coeffs)}


def bracket_residuals(b: ElementBatch, cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per element of a batch, the largest deviation of the measured right-frame
    structure constants from the expected table, and the largest component
    of any [left, right] bracket (which should vanish)."""
    fl, fr, jl, jr = _frame_with_jacobian(_coords(b), b.rho_sign, cfg)
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


def mixed_bracket_residual(g: SigmaGroupElement, cfg: SpaceConfig) -> float:
    """Max norm over all [left, right] numerical brackets (should vanish)."""
    return float(bracket_residuals(ElementBatch.of([g]), cfg)[1][0])


def characteristic_many(b: ElementBatch, cfg: SpaceConfig) -> dict:
    """characteristic_check at every element of a batch, as (N,) arrays,
    plus "theta_on_right" (N, 8), the pairings of Theta with the right fields."""
    x = _coords(b)
    left, right, theta = _frames(x, b.rho_sign, cfg)
    dth = _dtheta(x, b.rho_sign, cfg)
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
    chk = characteristic_many(ElementBatch.of([g]), cfg)
    del chk["theta_on_right"]
    return {key: float(v[0]) for key, v in chk.items()}


def sample_batch(rng: np.random.Generator, cfg: SpaceConfig, count: int,
                 radius_fraction: float | None = None) -> ElementBatch:
    """Random elements with |eps| <= R sin(pi/8) unless told otherwise.

    That radius bound keeps pairwise and triple products away from the
    chart equator, where single-chart comparisons are made.  Draws go
    element by element, so the first k elements do not depend on count
    and a seed keeps naming the elements its reports were made from.
    """
    if radius_fraction is None:
        radius_fraction = math.sin(math.pi / 8.0)
    eps = np.empty((count, 3))
    nu = np.empty((count, 3))
    z = np.empty(count)
    zeta = np.empty(count, dtype=complex)
    for k in range(count):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        eps[k] = cfg.R * radius_fraction * rng.uniform() ** (1.0 / 3.0) * v
        nu[k] = rng.normal(size=3)
        z[k] = rng.normal()
        zeta[k] = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return ElementBatch(eps, np.ones(count, dtype=int), nu, z, zeta)


def sample_elements(rng: np.random.Generator, cfg: SpaceConfig, count: int,
                    radius_fraction: float | None = None) -> list[SigmaGroupElement]:
    """sample_batch as a list of elements."""
    return list(sample_batch(rng, cfg, count, radius_fraction))


def group_axiom_residuals(rng: np.random.Generator, cfg: SpaceConfig,
                          samples: int) -> dict:
    """Worst associativity / inverse / identity residuals over random draws."""
    triples = sample_batch(rng, cfg, 3 * samples)
    a, b, c = triples[0::3], triples[1::3], triples[2::3]
    e = ElementBatch.of([identity(cfg)] * samples)
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
