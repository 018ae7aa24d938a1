"""The one pass rule: every check states its bounds, and `passed` is derived from them."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import s3sigma
from s3sigma import sigma_group, suite
from s3sigma.reports import DEFAULT_TOLERANCES

RC = suite.RunConfig(R=1.0, m=1.0, seed=0)

#: the criterion and the metrics each tolerance bounds (README lists the same)
TOLERANCE_METRICS = {
    "volume": ("1", {"relative_error"}),
    "h_residual": ("2", {"max_h_residual_analytic"}),
    "h_residual_fd": ("2", {"max_h_residual_fd"}),
    "j_residual": ("2", {"max_j2_residual", "max_j3_residual"}),
    "gram": ("3", {"max_gram_deviation"}),
    "associativity": ("4", {"max_associativity_residual"}),
    "inverse": ("4", {"max_inverse_residual", "max_identity_residual"}),
    "bracket": ("5", {"max_structure_constant_deviation"}),
    "lr_commute": ("5", {"max_left_right_bracket"}),
    "poisson": ("6", {"max_residual_eps_eps", "max_residual_eps_theta_model",
                      "max_residual_eps_rho", "coefficient_fit_deviation"}),
    "jacobi": ("6", {"max_jacobi_residual"}),
    "h_drift": ("7", {"relative_h_drift"}),
    "theta_drift": ("7", {"max_theta_drift"}),
    "endpoint": ("7", {"endpoint_deviation"}),
    "geodesic_residual": ("8", {"residual_metric_frequency"}),
    "theta_contraction": ("9", {"max_central_pairing_deviation",
                                "max_characteristic_contraction"}),
    "noether": ("9", {"max_noether_deviation"}),
    "contraction_slope": ("10", {"-nu.slope", "-hamiltonian.slope"}),
    "hermiticity": ("11", {"max"}),
}
CHECKS = dict(suite.ALL_CHECKS)


@pytest.fixture(scope="module")
def results():
    return {number: fn(RC) for number, fn in suite.ALL_CHECKS}


def test_only_the_judging_constructor_builds_check_results():
    # one pass rule: src/ builds a CheckResult, and so a pass flag, only in
    # CheckResult.judged; every check and command goes through it
    builders = set()
    for path in sorted(Path(s3sigma.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckResult"
                    for node in ast.walk(fn)):
                builders.add(f"{path.stem}.{fn.name}")
    assert builders == {"suite.judged"}, builders


def test_a_suite_run_builds_no_qpoly(monkeypatch):
    # wave functions are coefficient vectors: the dict polynomial is only
    # the evaluator tests compare against.  A radius and mass no other test
    # uses, so that no cached basis hides a build.
    from s3sigma.qpoly import QPoly

    built = []
    init = QPoly.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QPoly, "__init__", counted)
    results = suite.run_all(suite.RunConfig(R=0.77, m=1.2, seed=3))
    assert len(results) == len(suite.ALL_CHECKS)
    assert all(res.passed for _, res in results)
    assert not built


def _detail(details: dict, metric: str):
    """The report entry a metric names: a dotted path, negated by a leading '-'."""
    value = details
    for key in metric.lstrip("-").split("."):
        value = value[key]
    return -value if metric.startswith("-") else value


def _just_failing(b: suite.Bound):
    """The bound's limit moved just past its measured value."""
    if b.comparison == "==":
        return not b.value
    return np.nextafter(b.value, -math.inf if b.comparison == "<" else math.inf)


@pytest.mark.parametrize("number", list(CHECKS))
def test_passed_is_all_bounds_holding(results, number):
    res = results[number]
    assert res.passed is True and res.bounds
    assert all(b.holds() for b in res.bounds)
    assert res.thinnest() is not None  # the progress line names a metric
    for b in res.bounds:
        assert b.value == _detail(res.details, b.metric), b.metric  # judged as reported
    for k, b in enumerate(res.bounds):
        moved = (*res.bounds[:k], b._replace(limit=_just_failing(b)), *res.bounds[k + 1:])
        flipped = suite.CheckResult.judged(res.name, res.details, *moved)
        assert flipped.passed is False, b.metric
        assert flipped.thinnest() == (b._replace(limit=_just_failing(b))
                                      if b.comparison != "==" else res.thinnest())


@pytest.mark.parametrize("name", list(DEFAULT_TOLERANCES))
def test_each_tolerance_bounds_its_metrics(results, name):
    # the tolerance just under the worst of its metrics fails exactly those metrics
    number, metrics = TOLERANCE_METRICS[name]
    mine = [b for b in results[number].bounds if b.metric in metrics]
    assert {b.metric for b in mine} == metrics
    sign = -1.0 if name == "contraction_slope" else 1.0  # a limit on -slope
    assert all(b.limit == sign * RC.tol(name) for b in mine)
    worst = max(sign * b.value for b in mine)
    tight = suite.RunConfig(tolerances={name: float(np.nextafter(worst, -math.inf))})
    res = CHECKS[number](tight)
    assert res.passed is False
    assert {b.metric for b in res.bounds if not b.holds()} <= metrics


def test_failed_energy_drift_is_a_plain_false_the_report_can_hold():
    # the drift is a numpy scalar; its verdict must still serialise
    res = suite.check_conservation(suite.RunConfig(tolerances={"h_drift": 1e-300}))
    assert res.passed is False
    assert json.loads(json.dumps(res.as_dict()))["passed"] is False
    assert [b.metric for b in res.bounds if not b.holds()] == ["relative_h_drift"]


def test_identity_residual_is_held_to_the_inverse_tolerance(monkeypatch):
    def residuals(rng, cfg, samples):
        return {"samples": samples, "max_associativity_residual": 0.0,
                "max_inverse_residual": 0.0, "max_identity_residual": 1e-9}
    monkeypatch.setattr(sigma_group, "group_axiom_residuals", residuals)
    res = suite.check_group_axioms(RC)
    assert res.passed is False
    assert str(res.thinnest()) == "max_identity_residual=1e-09 < 1e-12"


def test_thinnest_bound_uses_headroom_in_both_directions():
    res = suite.CheckResult.judged(
        "demo", {}, ("upper", 1e-9, "<", 1e-8), ("lower", 0.5, ">", 0.1),
        ("flag", True, "==", True))
    assert res.passed is True
    assert res.thinnest().metric == "lower"  # 5x against 10x
    res = suite.CheckResult.judged("demo", {}, ("upper", 0.0, "<", 1e-8),
                                   ("lower", 0.5, ">=", 0.1))
    assert res.thinnest().metric == "lower"  # a zero residual has unbounded headroom
    assert suite.CheckResult("demo", True, {}).thinnest() is None
