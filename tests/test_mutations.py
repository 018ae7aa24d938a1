"""Each judged bound of criteria 7 and 8 fails under a small error in a kernel it measures.

The error is patched onto a kernel of the construction, never onto the
check or its tolerance, and the check runs at the default RunConfig.
"""

from s3sigma import classical, suite

RC = suite.RunConfig()


def _failed_bounds(check) -> set:
    return {b.metric for b in check(RC).bounds if not b.holds()}


def test_c7_fails_with_a_velocity_error_in_the_step(monkeypatch):
    # the step's velocity times (1 + 1e-9): h drift 4e-6, theta drift 3.5e-6,
    # endpoint 2.5e-5, against 1e-8 each
    step = classical._rk4_step

    def fast(s, dt, R2):
        out = step(s, dt, R2)
        return out[:4] + tuple(v * (1.0 + 1e-9) for v in out[4:])

    monkeypatch.setattr(classical, "_rk4_step", fast)
    assert _failed_bounds(suite.check_conservation) == {
        "relative_h_drift", "max_theta_drift", "endpoint_deviation"}


def test_c7_endpoint_fails_with_a_step_length_error(monkeypatch):
    # each step advances dt (1 + 1e-9): the run stays on a great circle with
    # its energy and invariants, but ends 2.45e-8 from the closed form
    step = classical._rk4_step
    monkeypatch.setattr(classical, "_rk4_step", lambda s, dt, R2: step(s, dt * (1.0 + 1e-9), R2))
    assert _failed_bounds(suite.check_conservation) == {"endpoint_deviation"}


def test_c8_metric_frequency_fails_with_wrong_christoffel_symbols(monkeypatch):
    # Gamma times (1 + 1e-6): the residual reads 2.5e-6 against 1e-7
    christoffel = classical._christoffel_many
    monkeypatch.setattr(classical, "_christoffel_many",
                        lambda eps, sign, cfg: christoffel(eps, sign, cfg) * (1.0 + 1e-6))
    assert _failed_bounds(suite.check_closed_form) == {"residual_metric_frequency"}


def test_c8_energy_form_fails_with_a_quartered_energy(monkeypatch):
    # H / 4 makes sqrt(8 H / (m R^2)) the metric frequency itself, which
    # solves the equation: the residual reads 6e-15, not above 1e-3
    hamiltonian = classical.hamiltonian
    monkeypatch.setattr(classical, "hamiltonian",
                        lambda s, cfg, route="velocity": hamiltonian(s, cfg, route) / 4.0)
    assert _failed_bounds(suite.check_closed_form) == {"residual_energy_form_frequency"}
