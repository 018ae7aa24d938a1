import json
import subprocess
import sys

import pytest

from s3sigma import cli
from s3sigma.cli import main


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "s3sigma.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_spectrum_levels(tmp_path):
    out = tmp_path / "spec.json"
    code = main(["spectrum", "--n-max", "3", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    assert [r["energy"] for r in rows] == pytest.approx([0.0, 1.5, 4.0, 7.5])
    assert [r["degeneracy"] for r in rows] == [1, 4, 9, 16]
    assert payload["suite"].startswith("s3sigma-suite/")
    assert payload["config"]["seed"] == 0


def test_spectrum_labels_csv(tmp_path):
    out = tmp_path / "labels.csv"
    code = main(["spectrum", "--n-max", "2", "--labels", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,l,m_z,E,norm_residual,H_residual,J2_residual,J3_residual"
    assert len(lines) == 1 + 14  # labels through n = 2


def test_reports_are_byte_identical(tmp_path):
    for name, args in (("group", ["groupcheck", "--samples", "40"]),
                       ("labels", ["spectrum", "--labels", "--n-max", "4",
                                   "--format", "json"])):
        a, b = tmp_path / f"{name}-a.json", tmp_path / f"{name}-b.json"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name


def test_seed_changes_report(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["groupcheck", "--samples", "40", "--out", str(a)])
    main(["groupcheck", "--samples", "40", "--seed", "1", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_usage_error_exit_codes(capsys):
    for argv, flag in ((["groupcheck", "--samples", "0"], "--samples"),
                       (["poisson", "--samples", "0"], "--samples"),
                       (["poisson", "--jacobi-points", "-3"], "--jacobi-points"),
                       (["spectrum", "--n-max", "-1"], "--n-max"),
                       (["orthonormality", "--n-max", "-1"], "--n-max")):
        assert main(argv) == 2, argv
        assert f"argument {flag}: must be at least" in capsys.readouterr().err, argv
    proc = run_cli(["nonsense-command"])
    assert proc.returncode == 2


def test_geodesic_exports(tmp_path):
    base = tmp_path / "traj"
    code = main(["geodesic", "--eps0", "0.2,0,0", "--vel0", "0,1,0",
                 "--t-end", "20", "--steps", "2000", "--out", str(base)])
    assert code == 0
    lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
    assert lines[0] == ("t,eps1,eps2,eps3,vel1,vel2,vel3,H,"
                       "thetaR1,thetaR2,thetaR3,thetaL1,thetaL2,thetaL3")
    assert len(lines) == 1 + 2001
    summary = json.loads((tmp_path / "traj.json").read_text())
    assert summary["max_h_drift"] < 1e-8
    assert summary["endpoint_deviation"] < 1e-8


def test_geodesic_rest_state_zero_drift(tmp_path):
    base = tmp_path / "rest"
    code = main(["geodesic", "--eps0", "0.3,0,0", "--vel0", "0,0,0",
                 "--t-end", "5", "--steps", "100", "--out", str(base)])
    assert code == 0
    summary = json.loads((tmp_path / "rest.json").read_text())
    assert summary["max_h_drift"] == 0.0
    assert summary["max_theta_drift"] == 0.0


def test_geodesic_coarse_step_warns(tmp_path):
    base = tmp_path / "coarse"
    main(["geodesic", "--steps", "10", "--t-end", "50", "--out", str(base)])
    summary = json.loads((tmp_path / "coarse.json").read_text())
    assert any("omega*dt" in w for w in summary["warnings"])


def test_wavefn_export(tmp_path):
    out = tmp_path / "wf.csv"
    code = main(["wavefn", "--label", "2,1,0", "--grid", "6,4,8",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "chi,theta,phi,re,im"
    assert len(lines) == 1 + 6 * 4 * 8


def test_orthonormality_command(tmp_path):
    out = tmp_path / "gram.json"
    code = main(["orthonormality", "--n-max", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["check"]["passed"] is True
    assert payload["check"]["details"]["basis_size"] == 30


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("radius = 2.0\nmass = 1.0\nseed = 7\n"
                    "tol.gram = 1e-8  # loosened\n")
    out = tmp_path / "r.json"
    code = main(["orthonormality", "--n-max", "2", "--config", str(conf),
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["R"] == 2.0
    assert payload["config"]["seed"] == 7
    assert payload["config"]["tolerances"]["gram"] == 1e-8
    # a flag beats the file
    code = main(["orthonormality", "--n-max", "2", "--config", str(conf),
                 "--radius", "3.0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["R"] == 3.0


def test_config_file_rejects_unknown_format(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("format = xml\n")
    out = tmp_path / "o.txt"
    assert main(["spectrum", "--config", str(conf), "--out", str(out)]) == 2
    assert not out.exists()


def test_poisson_command(tmp_path):
    out = tmp_path / "p.json"
    code = main(["poisson", "--samples", "10", "--jacobi-points", "0",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    details = payload["check"]["details"]
    assert "theta_theta_coefficient_measured" in details
    assert "theta_theta_coefficient_nominal" in details


def test_poisson_command_at_half_mass(tmp_path):
    out = tmp_path / "p.json"
    assert main(["poisson", "--mass", "0.5", "--out", str(out)]) == 0
    details = json.loads(out.read_text())["check"]["details"]
    assert details["jacobi_points"] == 10
    assert details["max_jacobi_residual"] < 1e-6


def test_contract_command(tmp_path):
    out = tmp_path / "c.json"
    code = main(["contract", "--radii", "10,100,1000", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["check"]["details"]["nu"]["slope"] == pytest.approx(-1.0,
                                                                       abs=0.3)


def test_bad_wavefn_label_is_usage_error():
    assert main(["wavefn", "--label", "1,5,0", "--out", "/tmp/x.csv"]) == 2


def test_wavefn_without_out_fails_before_building_the_grid(monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built although nothing can be written")
    monkeypatch.setattr(cli, "build_grid", no_grid)
    assert main(["wavefn", "--grid", "64,64,64"]) == 2
    assert "wavefn export needs --out" in capsys.readouterr().err


def test_tolerance_flag_drives_exit_code(tmp_path):
    # an impossible tolerance flips the exit code to the residual failure
    out = tmp_path / "g.json"
    code = main(["orthonormality", "--n-max", "2", "--tol", "gram=1e-20",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["check"]["passed"] is False
    # groupcheck takes its flag from criteria 4 and 5, whose tolerances drive it too
    for tol in ("bracket=1e-30", "lr_commute=1e-30", "associativity=1e-30"):
        assert main(["groupcheck", "--samples", "40", "--tol", tol,
                     "--out", str(tmp_path / "group.json")]) == 1, tol
