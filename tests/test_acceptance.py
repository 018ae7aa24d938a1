"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them inline).
Criteria 1-11 call the suite directly; criterion 12 runs the command
line front end as a subprocess and enforces the wall-time budget.
"""

import json
import subprocess
import sys
import time

import pytest

from s3sigma import suite


RC = suite.RunConfig(R=1.0, m=1.0, seed=0)


def _run(number, fn, budget_s=None, **kwargs):
    t0 = time.monotonic()
    result = fn(RC, **kwargs)
    elapsed = time.monotonic() - t0
    status = "PASS" if result.passed else "FAIL"
    # the bound with the least headroom, as the CLI progress line shows it
    print(f"ACCEPTANCE {number} ({result.name}): {status} [{elapsed:.2f}s] {result.thinnest()}")
    assert result.passed, f"criterion {number} failed: {result.details}"
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.1f}s")
    return result


def test_c01_volume():
    res = _run(1, suite.check_volume, budget_s=1.0)
    assert res.details["relative_error"] < 1e-12


def test_c02_spectrum_residuals():
    res = _run(2, suite.check_spectrum, budget_s=1.0)
    assert res.details["max_h_residual_analytic"] < 1e-7
    assert res.details["max_h_residual_fd"] < 1e-4
    assert res.details["max_j2_residual"] < 1e-7
    assert res.details["max_j3_residual"] < 1e-7


def test_c03_orthonormality():
    res = _run(3, suite.check_orthonormality, budget_s=2.0)
    assert res.details["basis_size"] == 91
    assert res.details["max_gram_deviation"] < 1e-9


def test_c04_group_axioms():
    res = _run(4, suite.check_group_axioms, budget_s=1.0, samples=1000)
    assert res.details["max_associativity_residual"] < 1e-12
    assert res.details["max_inverse_residual"] < 1e-12


def test_c05_lie_algebra():
    res = _run(5, suite.check_lie_algebra, budget_s=1.0)
    assert res.details["max_structure_constant_deviation"] < 1e-7
    assert res.details["max_left_right_bracket"] < 1e-7


def test_c06_poisson_algebra():
    res = _run(6, suite.check_poisson, budget_s=2.0, samples=100, jacobi_points=10)
    assert res.details["max_residual_eps_eps"] < 1e-7
    assert res.details["max_residual_eps_theta_model"] < 1e-7
    assert res.details["max_residual_eps_rho"] < 1e-7
    assert res.details["max_jacobi_residual"] < 1e-6
    # measured mass placement of the two coefficient families is reported
    assert "theta_theta_coefficient_measured" in res.details
    assert "theta_rho_coefficient_measured" in res.details


def test_c07_classical_conservation():
    res = _run(7, suite.check_conservation, budget_s=1.0)
    assert res.details["relative_h_drift"] < 1e-8
    assert res.details["max_theta_drift"] < 1e-8
    assert res.details["endpoint_deviation"] < 1e-8


def test_c08_closed_form_frequency():
    res = _run(8, suite.check_closed_form)
    assert res.details["residual_metric_frequency"] < 1e-7
    # the energy-form frequency is twice the metric one and fails the
    # equation of motion by a wide margin
    assert res.details["frequency_ratio"] == pytest.approx(2.0, rel=1e-9)
    assert res.details["residual_energy_form_frequency"] > 1e-3


def test_c09_quantization_form():
    res = _run(9, suite.check_quantization_form, budget_s=1.0, samples=100)
    assert res.details["max_central_pairing_deviation"] < 1e-8
    assert res.details["max_characteristic_contraction"] < 1e-8
    assert res.details["max_noether_deviation"] < 1e-8


def test_c10_contraction():
    res = _run(10, suite.check_contraction)
    assert res.details["nu"]["strictly_decreasing"]
    assert res.details["hamiltonian"]["strictly_decreasing"]
    assert res.details["nu"]["slope"] <= -0.7
    assert res.details["hamiltonian"]["slope"] <= -0.7
    assert res.details["position"]["identically_zero"]


def test_c11_selfadjointness():
    res = _run(11, suite.check_selfadjointness, budget_s=2.0, pairs=50)
    assert res.details["max"] < 1e-8


def test_c12_cli_full_run(tmp_path):
    out = tmp_path / "report.json"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "s3sigma.cli", "all", "--out", str(out)],
        capture_output=True, text=True, timeout=330)
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE 12 (cli all): "
          f"{'PASS' if proc.returncode == 0 else 'FAIL'} [{elapsed:.1f}s]")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 11
    # each progress line names the metric with the least headroom
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("criterion ")]
    assert len(lines) == 11 and all("=" in ln for ln in lines), proc.stdout
    assert lines[6].startswith("criterion 7 (conservation): PASS endpoint_deviation=")
