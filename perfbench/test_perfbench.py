"""Self-tests of the benchmark: its oracles, its tracer and its metric names.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import oracles
import run
import worker
from s3sigma import classical, geometry, qpoly, quantum, sigma_group, suite
from tracer import TRACED_MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
RC = suite.RunConfig(R=1.3, m=0.7, seed=5)  # non-unit R and m catch unit slips
# The keyword arguments each check runs with in the workloads, by the name
# its report carries; for criterion 6, those of the call with Jacobi points.
JACOBI_OP = next(op for op in worker.WORKLOADS["poisson"] if op.kwargs["jacobi_points"])
PARAMS = {op.check: op.kwargs
          for ops in worker.WORKLOADS.values() for op in ops if op.check != "poisson"}
PARAMS["poisson_algebra"] = JACOBI_OP.kwargs


def _details(name: str) -> dict:
    res = getattr(suite, f"check_{name}")(RC, **PARAMS[name])
    assert res.passed
    return json.loads(json.dumps(res.details))


def _synthetic() -> dict:
    """Correct outputs of the expensive checks, written from their closed forms."""
    ops = ["nu_1", "nu_2", "nu_3", "eps_1", "eps_2", "eps_3", "rho", "J_1", "J_2", "J_3", "H"]
    return {
        "volume": {"grid": list(RC.grid), "relative_error": 1e-15, "tolerance": 1e-12},
        "spectrum": {"n_max": 5, "max_h_residual_analytic": 1e-14,
                     "max_h_residual_fd": 5e-9, "max_j2_residual": 1e-14,
                     "max_j3_residual": 1e-15},
        "orthonormality": {"n_max": 5, "basis_size": 91, "max_gram_deviation": 1e-14},
        "selfadjointness": {**{op: 1e-16 for op in ops}, "max": 1e-16, "pairs": 50},
        "poisson_algebra": {
            "samples": 100, "jacobi_points": 10, "jacobi_triples": 35,
            "max_residual_eps_eps": 1e-12, "max_residual_eps_theta_model": 1e-11,
            "max_residual_eps_rho": 1e-12, "max_residual_theta_antisymmetry": 0.0,
            "theta_theta_coefficient_measured": 2.0 / (RC.m * RC.R) + 1e-12,
            "theta_rho_coefficient_measured": 1.0 / (RC.m * RC.R ** 2) - 1e-12,
            "max_jacobi_residual": 5e-7},
    }


@pytest.fixture(scope="module")
def good() -> dict:
    out = _synthetic()
    for name in ("contraction", "group_axioms", "lie_algebra", "conservation",
                 "closed_form", "quantization_form"):
        out[name] = _details(name)
    return out


def test_every_oracle_accepts_correct_output(good):
    assert set(good) == set(oracles.ORACLES)
    for name, details in good.items():
        assert oracles.judge(name, RC, PARAMS[name], details, True) == [], name


WRONG = [
    ("volume", "relative_error", 1e-9),
    ("volume", "grid", [24, 16, 30]),
    ("spectrum", "max_h_residual_fd", 2e-4),
    ("spectrum", "n_max", 4),
    ("orthonormality", "basis_size", 90),
    ("orthonormality", "n_max", 4),
    ("orthonormality", "max_gram_deviation", 1e-8),
    ("contraction", "radii", [10.0, 100.0]),
    ("selfadjointness", "pairs", 49),
    ("selfadjointness", "max", 1e-7),
    ("selfadjointness", "H", 1e-7),  # no longer the reported max
    ("poisson_algebra", "max_residual_theta_antisymmetry", 1e-17),
    ("poisson_algebra", "theta_theta_coefficient_measured", 2.0 * RC.m / RC.R),
    ("poisson_algebra", "theta_rho_coefficient_measured", 1.0 / RC.R ** 2),
    ("poisson_algebra", "jacobi_triples", 34),
    ("poisson_algebra", "max_jacobi_residual", 2.34e-6),
    ("group_axioms", "max_associativity_residual", 1e-11),
    ("group_axioms", "samples", 999),
    ("lie_algebra", "samples", 11),
    ("conservation", "steps", 1000),
    ("closed_form", "sampled_times", 49),
    ("quantization_form", "samples", 99),
    ("lie_algebra", "max_left_right_bracket", 1e-6),
    ("conservation", "warnings", ["step too coarse"]),
    ("conservation", "endpoint_deviation", 1e-7),
    ("closed_form", "frequency_ratio", 1.0),
    ("closed_form", "residual_energy_form_frequency", 1e-9),
    ("quantization_form", "min_symplectic_contrast", 0.0),
    ("quantization_form", "max_noether_deviation", 1e-7),
]


@pytest.mark.parametrize("name,key,value", WRONG)
def test_every_oracle_rejects_a_wrong_value(good, name, key, value):
    details = dict(good[name], **{key: value})
    assert oracles.judge(name, RC, PARAMS[name], details, True)


@pytest.mark.parametrize("name", sorted(oracles.ORACLES))
def test_a_reported_failure_is_a_problem(good, name):
    assert oracles.judge(name, RC, PARAMS[name], good[name], False)


def _jacobi_fault(**changes) -> dict:
    """The known fault's report: every output right, the Jacobi residual just
    above its tolerance."""
    return {**_synthetic()["poisson_algebra"], "max_jacobi_residual": 1.0508e-6, **changes}


def test_the_known_fault_is_failed_but_correct():
    assert oracles.judge("poisson_algebra", RC, JACOBI_OP.kwargs, _jacobi_fault(),
                         False, known_fault=True) == []
    # mended, it passes and its oracle applies in full
    assert oracles.judge("poisson_algebra", RC, JACOBI_OP.kwargs, _synthetic()["poisson_algebra"],
                         True, known_fault=True) == []


@pytest.mark.parametrize("passed,changes", [
    (False, {"jacobi_triples": 34}),
    (False, {"jacobi_points": 3}),
    (False, {"samples": 10}),
    (False, {"theta_rho_coefficient_measured": 1.0 / RC.R ** 2}),
    (False, {"max_residual_eps_rho": 1e-6}),
    (False, {"max_jacobi_residual": 5e-7}),  # a failure the residual does not explain
    (False, {"max_jacobi_residual": 2e-5}),
    (False, {"max_jacobi_residual": float("nan")}),
    (True, {}),  # a pass with the residual above its tolerance
])
def test_the_known_fault_is_judged_in_full(passed, changes):
    assert oracles.judge("poisson_algebra", RC, JACOBI_OP.kwargs, _jacobi_fault(**changes),
                         passed, known_fault=True)


def test_a_wrong_failed_operation_makes_the_run_incorrect():
    bad = suite.CheckResult("poisson_algebra", False, _jacobi_fault(jacobi_triples=34))
    record = worker.assess(JACOBI_OP, RC, bad)
    assert record["failed"] and record["problems"]
    right = worker.assess(JACOBI_OP, RC, suite.CheckResult("poisson_algebra", False,
                                                           _jacobi_fault()))
    assert right["failed"] and not right["problems"]
    assert run.summarise([{"checks": [right]}], {})["correct"]
    result = run.summarise([{"checks": [right, record]}], {})
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 2)


def test_a_raised_exception_makes_the_run_incorrect():
    record = worker.assess(worker.WORKLOADS["group"][0], RC, "Traceback ...\nValueError")
    assert record["failed"] and record["problems"]
    assert not run.summarise([{"checks": [record]}], {})["correct"]


def test_contraction_oracle_refits_the_slope(good):
    d = json.loads(json.dumps(good["contraction"]))
    d["nu"]["slope"] = -0.75  # below the threshold, but not the slope of the deviations
    assert oracles.judge("contraction", RC, PARAMS["contraction"], d, True)
    d = json.loads(json.dumps(good["contraction"]))
    d["hamiltonian"]["deviation"] = [1e-2, 1e-3, 2e-3]
    assert oracles.judge("contraction", RC, PARAMS["contraction"], d, True)


def test_volume_oracle_sums_the_weights_itself(good, monkeypatch):
    from s3sigma import quadrature
    build = quadrature.build_grid

    def off(*args):
        g = build(*args)
        object.__setattr__(g, "weight", g.weight * (1.0 + 1e-9))
        return g
    monkeypatch.setattr(quadrature, "build_grid", off)
    assert oracles.judge("volume", RC, {}, good["volume"], True)


@pytest.mark.parametrize("fn", [
    lambda n, cfg: n * (n + 2) / (2.0 * cfg.m * cfg.R),  # wrong power of R
    lambda n, cfg: 1.0 if n == 3 else n * (n + 2) / (2.0 * cfg.m * cfg.R ** 2),
])
def test_spectrum_oracle_rejects_a_wrong_energy(good, monkeypatch, fn):
    monkeypatch.setattr(quantum, "energy", fn)
    assert oracles.judge("spectrum", RC, PARAMS["spectrum"], good["spectrum"], True)


def test_spectrum_oracle_rejects_a_wrong_degeneracy(good, monkeypatch):
    monkeypatch.setattr(quantum, "degeneracy", lambda n: n * n + 1)
    assert oracles.judge("spectrum", RC, PARAMS["spectrum"], good["spectrum"], True)


def test_compose_oracle_rejects_a_wrong_group_law(good, monkeypatch):
    law = sigma_group.compose_many
    monkeypatch.setattr(sigma_group, "compose_many", lambda gp, g, cfg: law(g, gp, cfg))
    assert oracles.judge("group_axioms", RC, PARAMS["group_axioms"], good["group_axioms"], True)


def test_poisson_oracle_follows_the_jacobi_points_asked_for(good):
    brackets = {k: v for k, v in good["poisson_algebra"].items() if "jacobi" not in k}
    brackets_only = worker.WORKLOADS["poisson"][0].kwargs
    assert oracles.judge("poisson_algebra", RC, brackets_only, brackets, True) == []
    # the Jacobi part asked for but missing, or reported but not asked for
    assert oracles.judge("poisson_algebra", RC, PARAMS["poisson_algebra"], brackets, True)
    assert oracles.judge("poisson_algebra", RC, brackets_only, good["poisson_algebra"], True)


def test_hamilton_product_is_the_quaternion_product():
    i, j, k = (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)
    assert oracles._hamilton(i, j) == k
    assert oracles._hamilton(j, i) == (0.0, 0.0, 0.0, -1.0)
    assert oracles._hamilton(i, i) == (-1.0, 0.0, 0.0, 0.0)


# -- tracer --------------------------------------------------------------------

def _bindings() -> dict:
    import sys
    owners = [m for key, m in sys.modules.items()
              if m is not None and (key == "s3sigma" or key.startswith("s3sigma."))]
    owners += [qpoly.QPoly, geometry.ChartCoords]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_function_it_wrapped():
    before = _bindings()
    dual_field = geometry.dual_field
    tracer = Tracer().install()
    try:
        assert geometry.dual_field is not dual_field
        # the import-by-name sites see the same wrapper
        assert classical.dual_field is geometry.dual_field
        assert sigma_group.dual_field is geometry.dual_field
        assert quantum.eval_many is qpoly.eval_many
        assert qpoly.eval_many.__wrapped__ is before[(id(qpoly), "eval_many")]
        assert qpoly.QPoly.__call__.__wrapped__ is before[(id(qpoly.QPoly), "__call__")]
        changed = [key for key, value in _bindings().items() if before.get(key) is not value]
        assert len(changed) > 100
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_covers_every_traced_module():
    tracer = Tracer()
    with tracer:
        pass
    modules = {name.split(".")[0] for name in tracer.stats}
    assert modules == set(TRACED_MODULES)


def test_traced_round_returns_the_same_details_as_an_untraced_one():
    plain = worker.run_round("group", 3, "plain")
    traced = worker.run_round("group", 3, "traced")
    assert [c["details"] for c in traced["checks"]] == [c["details"] for c in plain["checks"]]
    assert all(not c["failed"] and not c["problems"] for c in traced["checks"])
    layers = traced["layers"]
    assert layers["sigma_group.compose_many.elements"] == 8 * 1000
    assert layers["suite.check_group_axioms.s"] > 0.0
    assert layers["suite.check_volume.s"] == 0.0


@pytest.mark.parametrize("check,kwargs", [
    ("volume", {}),
    ("orthonormality", {"n_max": 2}),
    ("contraction", {}),
    ("poisson", {"samples": 2, "jacobi_points": 1}),
])
def test_tracer_leaves_quantum_and_poisson_details_unchanged(check, kwargs):
    rc = suite.RunConfig(seed=4)
    fn = getattr(suite, f"check_{check}")
    plain = fn(rc, **kwargs).details
    tracer = Tracer()
    with tracer:
        traced = getattr(suite, f"check_{check}")(rc, **kwargs).details
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    layers = tracer.layer_metrics()
    assert layers[f"suite.check_{check}.s"] > 0.0
    if check == "poisson":
        assert layers["classical.theta_of_darboux.calls"] > 0
        assert 0.0 < layers["classical.theta_of_darboux.distinct_ratio"] < 1.0
        assert layers["numdiff.partial.calls"] > 0


# -- names ---------------------------------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    tracer = Tracer()
    with tracer:
        pass
    produced = set(tracer.layer_metrics()) | {"process.cpu_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    for m in spec["per_layer"]:
        assert run.unit(m["name"]) == m["unit"], m["name"]
    assert sum(1 for m in spec["per_layer"] if m["name"].startswith("suite.")) == 11
