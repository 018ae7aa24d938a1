"""The verification suite behind both the CLI and the acceptance tests.

Each check returns a CheckResult whose details dictionary is stable under a
fixed configuration and seed (the seed names its sampling.Draws streams); it
passes when every bound it states holds (CheckResult.judged, the one pass rule).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import classical, quantum, sigma_group
from .config import SpaceConfig
from .errors import DomainError
from .geometry import ChartCoords, _dot, _heights
from .quadrature import QuadGrid, build_grid, exact_volume, volume
from .reports import DEFAULT_TOLERANCES
from .sampling import Draws


@dataclass
class RunConfig:
    """Everything a suite run depends on; identical configs give identical reports."""

    R: float = 1.0
    m: float = 1.0
    seed: int = 0
    grid: tuple[int, int, int] = (24, 16, 32)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise DomainError(f"unknown tolerance name {name!r}")
            if name != "contraction_slope" and not value > 0.0:
                raise DomainError(f"tolerance {name!r} must be positive")

    def space(self) -> SpaceConfig:
        return SpaceConfig(self.R, self.m)

    def quantum_grid(self) -> QuadGrid:
        """Grid of the quantum checks: the configured orders, at least (32, 16, 32)."""
        return build_grid(max(self.grid[0], 32), max(self.grid[1], 16),
                          max(self.grid[2], 32), self.space())

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def as_dict(self) -> dict:
        tols = dict(DEFAULT_TOLERANCES)
        tols.update(self.tolerances)
        return {"R": self.R, "m": self.m, "seed": self.seed,
                "grid": list(self.grid), "tolerances": tols}


_COMPARE = {"<": operator.lt, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


class Bound(NamedTuple):
    """One judged metric: `value` must stand in `comparison` to `limit`."""
    metric: str
    value: float
    comparison: str  # "<" an upper bound, ">" or ">=" a lower one, "==" a flag
    limit: float

    def holds(self) -> bool:
        return bool(_COMPARE[self.comparison](self.value, self.limit))

    def headroom(self) -> float:
        """limit / value for an upper bound, value / limit for a lower one."""
        num, den = (self.limit, self.value) if self.comparison == "<" else (self.value, self.limit)
        return num / den if den else math.inf

    def __str__(self) -> str:
        return f"{self.metric}={self.value:.3g} {self.comparison} {self.limit:.3g}"


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict
    bounds: tuple = ()  # the Bounds `passed` was judged from; not serialised

    @staticmethod
    def judged(name: str, details: dict, *bounds) -> "CheckResult":
        """The pass rule of every check: it passes when all its bounds hold."""
        bounds = tuple(Bound(*b) for b in bounds)
        return CheckResult(name, all(b.holds() for b in bounds), details, bounds)

    def thinnest(self) -> Bound | None:
        """The bound with the least headroom, failing ones first; flags have none."""
        numeric = [b for b in self.bounds if b.comparison != "=="]
        return min(numeric, key=lambda b: (b.holds(), b.headroom()), default=None)

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


# ---------------------------------------------------------------------------

def check_volume(rc: RunConfig) -> CheckResult:
    """Criterion 1: the grid weights recover the invariant volume."""
    cfg = rc.space()
    grid = build_grid(*rc.grid, cfg)
    exact = exact_volume(cfg)
    rel = abs(volume(grid) - exact) / exact
    return CheckResult.judged("volume", {
        "grid": list(rc.grid),
        "relative_error": rel,
        "tolerance": rc.tol("volume"),
    }, ("relative_error", rel, "<", rc.tol("volume")))


def check_spectrum(rc: RunConfig, n_max: int = 5) -> CheckResult:
    """Criterion 2: energy and rotation eigenvalue residuals, both backends."""
    cfg = rc.space()
    grid = rc.quantum_grid()
    rows = quantum.eigen_residual_table(n_max, grid, cfg, backend="analytic")
    worst_h = max(r["h_residual"] for r in rows)
    worst_j2 = max(r["j2_residual"] for r in rows)
    worst_j3 = max(r["j3_residual"] for r in rows)
    fd_grid = build_grid(16, 12, 16, cfg)
    fd_rows = quantum.eigen_residual_table(n_max, fd_grid, cfg, backend="fd")
    worst_h_fd = max(r["h_residual"] for r in fd_rows)
    return CheckResult.judged("spectrum", {
        "n_max": n_max,
        "max_h_residual_analytic": worst_h,
        "max_h_residual_fd": worst_h_fd,
        "max_j2_residual": worst_j2,
        "max_j3_residual": worst_j3,
        "tolerance_analytic": rc.tol("h_residual"),
        "tolerance_fd": rc.tol("h_residual_fd"),
    }, ("max_h_residual_analytic", worst_h, "<", rc.tol("h_residual")),
        ("max_h_residual_fd", worst_h_fd, "<", rc.tol("h_residual_fd")),
        ("max_j2_residual", worst_j2, "<", rc.tol("j_residual")),
        ("max_j3_residual", worst_j3, "<", rc.tol("j_residual")))


def check_orthonormality(rc: RunConfig, n_max: int = 5) -> CheckResult:
    """Criterion 3: the Gram matrix of the basis equals the identity."""
    cfg = rc.space()
    grid = rc.quantum_grid()
    labels, gram = quantum.gram_matrix(n_max, grid, cfg)
    dev = float(np.max(np.abs(gram - np.eye(len(labels)))))
    return CheckResult.judged("orthonormality", {
        "n_max": n_max,
        "basis_size": len(labels),
        "max_gram_deviation": dev,
        "tolerance": rc.tol("gram"),
    }, ("max_gram_deviation", dev, "<", rc.tol("gram")))


def check_group_axioms(rc: RunConfig, samples: int = 1000) -> CheckResult:
    """Criterion 4: associativity, inverse and identity residuals."""
    cfg = rc.space()
    rng = Draws(rc.seed, 4)
    res = sigma_group.group_axiom_residuals(rng, cfg, samples)
    res["tolerance"] = rc.tol("associativity")
    return CheckResult.judged("group_axioms", res, *(
        (f"max_{key}_residual", res[f"max_{key}_residual"], "<", rc.tol(tol)) for key, tol in
        (("associativity", "associativity"), ("inverse", "inverse"), ("identity", "inverse"))))


def check_lie_algebra(rc: RunConfig, samples: int = 12) -> CheckResult:
    """Criterion 5: the measured bracket table and left-right commutation."""
    cfg = rc.space()
    rng = Draws(rc.seed, 5)
    table, mixed = sigma_group.bracket_residuals(sigma_group.sample_batch(rng, cfg, samples), cfg)
    worst_table = float(np.max(table, initial=0.0))
    worst_mixed = float(np.max(mixed, initial=0.0))
    return CheckResult.judged("lie_algebra", {
        "samples": samples,
        "max_structure_constant_deviation": worst_table,
        "max_left_right_bracket": worst_mixed,
        "tolerance": rc.tol("bracket"),
    }, ("max_structure_constant_deviation", worst_table, "<", rc.tol("bracket")),
        ("max_left_right_bracket", worst_mixed, "<", rc.tol("lr_commute")))


def check_poisson(rc: RunConfig, samples: int = 100,
                  jacobi_points: int = 10) -> CheckResult:
    """Criterion 6: the five bracket families and the Jacobi identity."""
    cfg = rc.space()
    report = classical.verify_basic_algebra(samples, cfg, seed=rc.seed,
                                            jacobi_points=jacobi_points)
    tol = rc.tol("poisson")
    coef_dev = max(
        abs(report["theta_theta_coefficient_measured"]
            - report["theta_theta_coefficient_model"]),
        abs(report["theta_rho_coefficient_measured"]
            - report["theta_rho_coefficient_model"]))
    report["tolerance"] = tol
    report["coefficient_fit_deviation"] = coef_dev
    return CheckResult.judged(
        "poisson_algebra", report,
        *((key, report[key], "<", tol) for key in (
            "max_residual_eps_eps", "max_residual_eps_theta_model", "max_residual_eps_rho",
            "coefficient_fit_deviation")),
        ("max_jacobi_residual", report.get("max_jacobi_residual", 0.0), "<", rc.tol("jacobi")))


def geodesic_deviations(rc: RunConfig, init: classical.PhaseState,
                        traj: classical.Trajectory, t_end: float) -> tuple[Bound, ...]:
    """Bounds on the energy drift over |H(0)| (absolute when H(0) = 0), the
    largest drift of either invariant triple, and the last state's deviation
    from the closed form at t_end (positions over R)."""
    cfg = rc.space()
    h0 = traj.energy[0]
    h_drift = float(np.max(np.abs(traj.energy - h0))) / (abs(h0) if h0 != 0.0 else 1.0)
    th_drift = max(
        float(np.max(np.abs(traj.theta_right - traj.theta_right[0]))),
        float(np.max(np.abs(traj.theta_left - traj.theta_left[0]))))
    final_exact = classical.geodesic_exact(init, t_end, cfg)
    endpoint = max(
        float(np.max(np.abs(final_exact.point.eps - traj.x[-1, 1:]))) / cfg.R,
        float(np.max(np.abs(final_exact.vel - traj.v[-1, 1:]))))
    return (Bound("relative_h_drift", h_drift, "<", rc.tol("h_drift")),
            Bound("max_theta_drift", th_drift, "<", rc.tol("theta_drift")),
            Bound("endpoint_deviation", endpoint, "<", rc.tol("endpoint")))


def _start_state(rng: Draws, cfg: SpaceConfig, radius_fraction: float) -> classical.PhaseState:
    """Upper-hemisphere start: a normal eps scaled to radius_fraction R, then a normal velocity."""
    eps0 = rng.standard_normal(3)
    eps0 *= radius_fraction * cfg.R / np.linalg.norm(eps0)
    return classical.PhaseState(ChartCoords(eps0, +1), rng.standard_normal(3))


def check_conservation(rc: RunConfig, omega_t: float = 20.0,
                       steps: int = 2000) -> CheckResult:
    """Criterion 7: drifts of energy and both invariant triples; endpoint."""
    cfg = rc.space()
    init = _start_state(Draws(rc.seed, 7), cfg, 0.3)
    w = classical.angular_frequency(init, cfg)
    t_end = omega_t / w
    traj = classical.geodesic_integrate(init, t_end, steps, cfg)
    drifts = geodesic_deviations(rc, init, traj, t_end)
    return CheckResult.judged("conservation", {
        "omega_t": omega_t,
        "steps": steps,
        **{b.metric: b.value for b in drifts},
        "warnings": traj.warnings,
        "tolerance": rc.tol("h_drift"),
    }, *drifts)


def check_closed_form(rc: RunConfig, sample_times: int = 50) -> CheckResult:
    """Criterion 8: the closed form solves the geodesic equation with the
    metric frequency, and fails with the doubled (energy-form) frequency."""
    cfg = rc.space()
    init = _start_state(Draws(rc.seed, 8), cfg, 0.25)
    w = classical.angular_frequency(init, cfg)
    dt = 2.0 * math.pi / w / 211.0

    def residual_at(omega: float, max_norm: float) -> float:
        # the first sample_times of the times 0, dt, 2 dt, ... (running sums,
        # as t += dt) where the closed form stays well inside the chart
        # (|eps| < max_norm, |rho| > 0.35); one period more while too few are kept
        n, t, kept = 0, np.zeros(0), np.zeros(0, dtype=int)
        while len(kept) < sample_times:
            n += 211
            t = np.cumsum(np.concatenate(([0.0], np.full(n - 1, dt))))
            e = classical.closed_form_chart(init, t, omega)[0]
            kept = np.flatnonzero((np.sqrt(_dot(e, e)) < max_norm) & (_heights(e, 1, cfg) > 0.35))
        return classical.geodesic_equation_residual(init, t[kept[:sample_times]], cfg, omega=omega)

    residual = residual_at(w, math.inf)
    h = classical.hamiltonian(init, cfg)
    w_energy_form = math.sqrt(8.0 * h / (cfg.m * cfg.R * cfg.R))
    residual_alt = residual_at(w_energy_form, 0.9 * cfg.R)
    return CheckResult.judged("closed_form", {
        "sampled_times": sample_times,
        "residual_metric_frequency": residual,
        "residual_energy_form_frequency": residual_alt,
        "frequency_ratio": w_energy_form / w,
        "tolerance": rc.tol("geodesic_residual"),
        "note": ("the energy-form frequency is exactly twice the metric one "
                 "and does not solve the equation of motion"),
    }, ("residual_metric_frequency", residual, "<", rc.tol("geodesic_residual")),
        ("residual_energy_form_frequency", residual_alt, ">", 1e-3))


def check_quantization_form(rc: RunConfig, samples: int = 100) -> CheckResult:
    """Criterion 9: contractions of the invariant 1-form and the Noether table."""
    cfg = rc.space()
    rng = Draws(rc.seed, 9)
    batch = sigma_group.sample_batch(rng, cfg, samples)
    chk = sigma_group.characteristic_many(batch, cfg)
    worst_central = float(np.max(np.abs(chk["theta_on_central"] - 1.0), initial=0.0))
    worst_char = float(np.max([np.abs(chk["theta_on_zl_z"]), chk["dtheta_on_zl_z"],
                               chk["dtheta_on_central"], np.abs(chk["theta_on_zl_nu1"]),
                               np.abs(chk["theta_on_zl_eps1"])], initial=0.0))
    min_symplectic_contrast = float(np.min(chk["dtheta_on_zl_nu1"], initial=math.inf))
    worst_noether = float(np.max(np.abs(chk["theta_on_right"][:, :7]
                                        - sigma_group.noether_many(batch, cfg)), initial=0.0))
    tol = rc.tol("theta_contraction")
    return CheckResult.judged("quantization_form", {
        "samples": samples,
        "max_central_pairing_deviation": worst_central,
        "max_characteristic_contraction": worst_char,
        "max_noether_deviation": worst_noether,
        "min_symplectic_contrast": min_symplectic_contrast,
        "tolerance": tol,
    }, ("max_central_pairing_deviation", worst_central, "<", tol),
        ("max_characteristic_contraction", worst_char, "<", tol),
        ("max_noether_deviation", worst_noether, "<", rc.tol("noether")),
        ("min_symplectic_contrast", min_symplectic_contrast, ">", 1e-3))


def check_contraction(rc: RunConfig, factors=(10.0, 100.0, 1000.0)) -> CheckResult:
    """Criterion 10: flat-limit deviations decrease with slope at most -0.7."""
    rep = quantum.contraction_study(factors, cfg=SpaceConfig(1.0, rc.space().m))  # r0 = 1
    slope_max = rc.tol("contraction_slope")
    rep["slope_threshold"] = slope_max
    return CheckResult.judged("contraction", rep, *(b for op in ("nu", "hamiltonian") for b in (
        (f"{op}.strictly_decreasing", rep[op]["strictly_decreasing"], "==", True),
        # a slope at most slope_max is a decay rate -slope of at least -slope_max
        (f"-{op}.slope", -rep[op]["slope"], ">=", -slope_max))))


def check_selfadjointness(rc: RunConfig, pairs: int = 50) -> CheckResult:
    """Criterion 11: hermiticity of every exposed observable."""
    cfg = rc.space()
    grid = rc.quantum_grid()
    worst = quantum.hermiticity_check(pairs, grid, cfg, seed=rc.seed)
    worst["pairs"] = pairs
    worst["tolerance"] = rc.tol("hermiticity")
    return CheckResult.judged("selfadjointness", worst,
                              ("max", worst["max"], "<", rc.tol("hermiticity")))


ALL_CHECKS = [
    ("1", check_volume),
    ("2", check_spectrum),
    ("3", check_orthonormality),
    ("4", check_group_axioms),
    ("5", check_lie_algebra),
    ("6", check_poisson),
    ("7", check_conservation),
    ("8", check_closed_form),
    ("9", check_quantization_form),
    ("10", check_contraction),
    ("11", check_selfadjointness),
]


def run_all(rc: RunConfig, progress=None) -> list[tuple[str, CheckResult]]:
    out = []
    for number, fn in ALL_CHECKS:
        result = fn(rc)
        out.append((number, result))
        if progress is not None:
            progress(number, result)
    return out
