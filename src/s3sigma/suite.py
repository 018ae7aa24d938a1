"""The verification suite behind both the CLI and the acceptance tests.

Each check returns a CheckResult whose details dictionary is stable
under a fixed configuration and seed; the pass flag compares measured
residuals against the tolerance registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classical, quantum, sigma_group
from .config import SpaceConfig
from .errors import DomainError
from .geometry import ChartCoords, rho
from .quadrature import QuadGrid, build_grid, exact_volume, volume
from .reports import DEFAULT_TOLERANCES


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


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


# ---------------------------------------------------------------------------

def check_volume(rc: RunConfig) -> CheckResult:
    """Criterion 1: the grid weights recover the invariant volume."""
    cfg = rc.space()
    grid = build_grid(*rc.grid, cfg)
    exact = exact_volume(cfg)
    rel = abs(volume(grid) - exact) / exact
    return CheckResult("volume", rel < rc.tol("volume"), {
        "grid": list(rc.grid),
        "relative_error": rel,
        "tolerance": rc.tol("volume"),
    })


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
    ok = (worst_h < rc.tol("h_residual") and worst_h_fd < rc.tol("h_residual_fd")
          and worst_j2 < rc.tol("j_residual") and worst_j3 < rc.tol("j_residual"))
    return CheckResult("spectrum", ok, {
        "n_max": n_max,
        "max_h_residual_analytic": worst_h,
        "max_h_residual_fd": worst_h_fd,
        "max_j2_residual": worst_j2,
        "max_j3_residual": worst_j3,
        "tolerance_analytic": rc.tol("h_residual"),
        "tolerance_fd": rc.tol("h_residual_fd"),
    })


def check_orthonormality(rc: RunConfig, n_max: int = 5) -> CheckResult:
    """Criterion 3: the Gram matrix of the basis equals the identity."""
    cfg = rc.space()
    grid = rc.quantum_grid()
    labels, gram = quantum.gram_matrix(n_max, grid, cfg)
    dev = float(np.max(np.abs(gram - np.eye(len(labels)))))
    return CheckResult("orthonormality", dev < rc.tol("gram"), {
        "n_max": n_max,
        "basis_size": len(labels),
        "max_gram_deviation": dev,
        "tolerance": rc.tol("gram"),
    })


def check_group_axioms(rc: RunConfig, samples: int = 1000) -> CheckResult:
    """Criterion 4: associativity, inverse and identity residuals."""
    cfg = rc.space()
    rng = np.random.default_rng([rc.seed, 4])
    res = sigma_group.group_axiom_residuals(rng, cfg, samples)
    ok = (res["max_associativity_residual"] < rc.tol("associativity")
          and res["max_inverse_residual"] < rc.tol("inverse"))
    res["tolerance"] = rc.tol("associativity")
    return CheckResult("group_axioms", ok, res)


def check_lie_algebra(rc: RunConfig, samples: int = 12) -> CheckResult:
    """Criterion 5: the measured bracket table and left-right commutation."""
    cfg = rc.space()
    rng = np.random.default_rng([rc.seed, 5])
    table, mixed = sigma_group.bracket_residuals(sigma_group.sample_batch(rng, cfg, samples), cfg)
    worst_table = float(np.max(table, initial=0.0))
    worst_mixed = float(np.max(mixed, initial=0.0))
    ok = worst_table < rc.tol("bracket") and worst_mixed < rc.tol("lr_commute")
    return CheckResult("lie_algebra", ok, {
        "samples": samples,
        "max_structure_constant_deviation": worst_table,
        "max_left_right_bracket": worst_mixed,
        "tolerance": rc.tol("bracket"),
    })


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
    ok = (report["max_residual_eps_eps"] < tol
          and report["max_residual_eps_theta_model"] < tol
          and report["max_residual_eps_rho"] < tol
          and coef_dev < tol
          and report.get("max_jacobi_residual", 0.0) < rc.tol("jacobi"))
    report["tolerance"] = tol
    report["coefficient_fit_deviation"] = coef_dev
    return CheckResult("poisson_algebra", ok, report)


def geodesic_deviations(rc: RunConfig, init: classical.PhaseState,
                        traj: classical.Trajectory, t_end: float):
    """Energy drift over |H(0)| (absolute when H(0) = 0), the largest drift of
    either invariant triple, the last state's deviation from the closed form
    at t_end (positions over R), and whether all three are within tolerance."""
    cfg = rc.space()
    h0 = traj.energy[0]
    h_drift = float(np.max(np.abs(traj.energy - h0))) / (abs(h0) if h0 != 0.0 else 1.0)
    th_drift = max(
        float(np.max(np.abs(traj.theta_right - traj.theta_right[0]))),
        float(np.max(np.abs(traj.theta_left - traj.theta_left[0]))))
    final_exact = classical.geodesic_exact(init, t_end, cfg)
    final = traj.states[-1]
    endpoint = max(
        float(np.max(np.abs(final_exact.point.eps - final.point.eps))) / cfg.R,
        float(np.max(np.abs(final_exact.vel - final.vel))))
    ok = (h_drift < rc.tol("h_drift") and th_drift < rc.tol("theta_drift")
          and endpoint < rc.tol("endpoint"))
    return h_drift, th_drift, endpoint, ok


def check_conservation(rc: RunConfig, omega_t: float = 20.0,
                       steps: int = 2000) -> CheckResult:
    """Criterion 7: drifts of energy and both invariant triples; endpoint."""
    cfg = rc.space()
    rng = np.random.default_rng([rc.seed, 7])
    eps0 = 0.3 * cfg.R * rng.normal(size=3)
    eps0 *= 0.3 * cfg.R / np.linalg.norm(eps0)
    vel0 = rng.normal(size=3)
    init = classical.PhaseState(ChartCoords(eps0, +1), vel0)
    w = classical.angular_frequency(init, cfg)
    t_end = omega_t / w
    traj = classical.geodesic_integrate(init, t_end, steps, cfg)
    h_drift, th_drift, endpoint, ok = geodesic_deviations(rc, init, traj, t_end)
    return CheckResult("conservation", ok, {
        "omega_t": omega_t,
        "steps": steps,
        "relative_h_drift": h_drift,
        "max_theta_drift": th_drift,
        "endpoint_deviation": endpoint,
        "warnings": traj.warnings,
        "tolerance": rc.tol("h_drift"),
    })


def check_closed_form(rc: RunConfig, sample_times: int = 50) -> CheckResult:
    """Criterion 8: the closed form solves the geodesic equation with the
    metric frequency, and fails with the doubled (energy-form) frequency."""
    cfg = rc.space()
    rng = np.random.default_rng([rc.seed, 8])
    eps0 = rng.normal(size=3)
    eps0 *= 0.25 * cfg.R / np.linalg.norm(eps0)
    vel0 = rng.normal(size=3)
    init = classical.PhaseState(ChartCoords(eps0, +1), vel0)
    w = classical.angular_frequency(init, cfg)
    period = 2.0 * math.pi / w

    def residual_at(omega: float, max_norm: float) -> float:
        # sample the closed form every period / 211 where it stays well
        # inside the chart (|eps| < max_norm, rho > 0.35)
        times = []
        t = 0.0
        while len(times) < sample_times:
            e, _, _ = classical.closed_form_chart(init, t, omega)
            if float(np.linalg.norm(e)) < max_norm and rho(ChartCoords(e, +1), cfg) > 0.35:
                times.append(t)
            t += period / 211.0
        return classical.geodesic_equation_residual(init, times, cfg, omega=omega)

    residual = residual_at(w, math.inf)
    h = classical.hamiltonian(init, cfg)
    w_energy_form = math.sqrt(8.0 * h / (cfg.m * cfg.R * cfg.R))
    residual_alt = residual_at(w_energy_form, 0.9 * cfg.R)
    ok = residual < rc.tol("geodesic_residual") and residual_alt > 1e-3
    return CheckResult("closed_form", ok, {
        "sampled_times": sample_times,
        "residual_metric_frequency": residual,
        "residual_energy_form_frequency": residual_alt,
        "frequency_ratio": w_energy_form / w,
        "tolerance": rc.tol("geodesic_residual"),
        "note": ("the energy-form frequency is exactly twice the metric one "
                 "and does not solve the equation of motion"),
    })


def check_quantization_form(rc: RunConfig, samples: int = 100) -> CheckResult:
    """Criterion 9: contractions of the invariant 1-form and the Noether table."""
    cfg = rc.space()
    rng = np.random.default_rng([rc.seed, 9])
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
    ok = (worst_central < tol and worst_char < tol
          and worst_noether < rc.tol("noether") and min_symplectic_contrast > 1e-3)
    return CheckResult("quantization_form", ok, {
        "samples": samples,
        "max_central_pairing_deviation": worst_central,
        "max_characteristic_contraction": worst_char,
        "max_noether_deviation": worst_noether,
        "min_symplectic_contrast": min_symplectic_contrast,
        "tolerance": tol,
    })


def check_contraction(rc: RunConfig, factors=(10.0, 100.0, 1000.0)) -> CheckResult:
    """Criterion 10: flat-limit deviations decrease with slope at most -0.7."""
    cfg = rc.space()
    r0 = 1.0
    radii = [f * r0 for f in factors]
    rep = quantum.contraction_study(radii, cfg=SpaceConfig(1.0, cfg.m), r0=r0)
    slope_max = rc.tol("contraction_slope")
    ok = (rep["nu"]["strictly_decreasing"] and rep["hamiltonian"]["strictly_decreasing"]
          and rep["nu"]["slope"] <= slope_max
          and rep["hamiltonian"]["slope"] <= slope_max
          and rep["position"]["identically_zero"])
    rep["slope_threshold"] = slope_max
    return CheckResult("contraction", ok, rep)


def check_selfadjointness(rc: RunConfig, pairs: int = 50) -> CheckResult:
    """Criterion 11: hermiticity of every exposed observable."""
    cfg = rc.space()
    grid = rc.quantum_grid()
    worst = quantum.hermiticity_check(pairs, grid, cfg, seed=rc.seed)
    ok = worst["max"] < rc.tol("hermiticity")
    worst["pairs"] = pairs
    worst["tolerance"] = rc.tol("hermiticity")
    return CheckResult("selfadjointness", ok, worst)


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
