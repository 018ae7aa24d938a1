"""Command-line front end for the verification suites and data exports.

Subcommands: geodesic, groupcheck, spectrum, orthonormality, wavefn,
contract, poisson, all.  Exit codes: 0 all residuals in tolerance,
1 residual failure, 2 usage error.  Reports are deterministic for a
fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import classical, quantum, sigma_group, suite
from .errors import DomainError
from .geometry import ChartCoords
from .quadrature import build_grid
from .reports import SUITE_VERSION, to_json, write_csv, write_json
from .sampling import Draws

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2


def _triple(kind):
    """Flag type for three comma- or space-separated values."""
    def triple(text: str) -> tuple:
        parts = text.replace(",", " ").split()
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected 3 values, got {text!r}")
        return tuple(kind(p) for p in parts)
    return triple


def _count(low: int):
    """Integer flag type that rejects values below low (a usage error)."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def _parse_tol(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError("tolerance overrides look like name=value")
    name, value = text.split("=", 1)
    return name.strip(), float(value)


def _config_flags(path: str) -> list[str]:
    """The flags a flat key = value file stands for; '#' starts a comment."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key.startswith("tol."):
                flags.append(f"--tol={key[4:]}={val}")
            elif key in ("radius", "mass", "seed", "grid", "format", "out"):
                flags.append(f"--{key}={val}")
            else:
                raise DomainError(f"unknown config key {key!r}")
    return flags


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radius", type=float, default=suite.RunConfig.R, help="sphere radius R")
    p.add_argument("--mass", type=float, default=suite.RunConfig.m, help="particle mass m")
    p.add_argument("--seed", type=int, default=suite.RunConfig.seed, help="random seed")
    p.add_argument("--grid", type=_triple(int), default=suite.RunConfig.grid,
                   metavar="NCHI,NTHETA,NPHI", help="quadrature orders")
    p.add_argument("--tol", type=_parse_tol, action="append", default=[],
                   metavar="NAME=VALUE", help="tolerance override (repeatable)")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=None, help="output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _run_config(args) -> suite.RunConfig:
    return suite.RunConfig(args.radius, args.mass, args.seed, args.grid, dict(args.tol))


def _emit(args, payload: dict, exit_code: int) -> int:
    if args.out:
        write_json(args.out, payload)
    else:
        sys.stdout.write(to_json(payload) + "\n")
    return exit_code


def _emit_check(args, rc: suite.RunConfig, result: suite.CheckResult) -> int:
    payload = {"suite": SUITE_VERSION, "config": rc.as_dict(), "check": result.as_dict()}
    return _emit(args, payload, EXIT_OK if result.passed else EXIT_RESIDUAL)


# ---------------------------------------------------------------------------
# subcommands

def cmd_geodesic(args) -> int:
    rc = _run_config(args)
    cfg = rc.space()
    init = classical.PhaseState(
        ChartCoords(np.asarray(args.eps0), +1), np.asarray(args.vel0))
    traj = classical.geodesic_integrate(init, args.t_end, args.steps, cfg)
    drifts = suite.geodesic_deviations(rc, init, traj, args.t_end)
    summary = {
        "suite": SUITE_VERSION,
        "config": rc.as_dict(),
        "t_end": args.t_end,
        "steps": args.steps,
        "max_h_drift": drifts[0].value,
        "max_theta_drift": drifts[1].value,
        "endpoint_deviation": drifts[2].value,
        "warnings": traj.warnings,
    }
    if args.out:
        rows = np.column_stack((traj.times, traj.x[:, 1:], traj.v[:, 1:], traj.energy,
                                traj.theta_right, traj.theta_left)).tolist()
        write_csv(args.out + ".csv",
                  ["t", "eps1", "eps2", "eps3", "vel1", "vel2", "vel3", "H",
                   "thetaR1", "thetaR2", "thetaR3",
                   "thetaL1", "thetaL2", "thetaL3"], rows)
        write_json(args.out + ".json", summary)
    else:
        sys.stdout.write(to_json(summary) + "\n")
    passed = suite.CheckResult.judged("geodesic", summary, *drifts).passed
    return EXIT_OK if passed else EXIT_RESIDUAL


def cmd_groupcheck(args) -> int:
    rc = _run_config(args)
    cfg = rc.space()
    axioms = suite.check_group_axioms(rc, args.samples)
    # criterion 5 at one sample brackets exactly the probe, the first draw of [seed, 5]
    lie = suite.check_lie_algebra(rc, samples=1)
    probe = sigma_group.sample_batch(Draws(rc.seed, 5), cfg, 1)[0]
    payload = {
        "suite": SUITE_VERSION,
        "config": rc.as_dict(),
        "axioms": {k: v for k, v in axioms.details.items() if k != "tolerance"},
        "bracket_table": sigma_group.bracket_table_report(probe, cfg),
        "characteristic": sigma_group.characteristic_check(probe, cfg),
        "noether_invariants_sample": [float(v) for v in
                                      sigma_group.noether_invariants(probe, cfg)],
        "nu_composition_convention": "left-frame matrix, eta sign negative",
        "mixed_left_right_max": lie.details["max_left_right_bracket"],
    }
    return _emit(args, payload, EXIT_OK if axioms.passed and lie.passed else EXIT_RESIDUAL)


def cmd_spectrum(args) -> int:
    rc = _run_config(args)
    cfg = rc.space()
    if args.labels:
        rows = quantum.eigen_residual_table(args.n_max, rc.quantum_grid(), cfg)
        header = ["n", "l", "m_z", "E", "norm_residual", "H_residual", "J2_residual",
                  "J3_residual"]
        keys = ["n", "l", "m_z", "energy", "norm_residual", "h_residual", "j2_residual",
                "j3_residual"]
    else:
        rows = quantum.spectrum(args.n_max, cfg)
        header, keys = ["n", "E", "degeneracy"], ["n", "energy", "degeneracy"]
    if args.out and args.format == "csv":
        write_csv(args.out, header, [[r[k] for k in keys] for r in rows])
        return EXIT_OK
    payload = {"suite": SUITE_VERSION, "config": rc.as_dict(), "rows": rows}
    return _emit(args, payload, EXIT_OK)


def cmd_orthonormality(args) -> int:
    rc = _run_config(args)
    return _emit_check(args, rc, suite.check_orthonormality(rc, args.n_max))


def cmd_wavefn(args) -> int:
    rc = _run_config(args)
    cfg = rc.space()
    if not args.out:
        raise DomainError("wavefn export needs --out")
    n, l, m_z = (int(v) for v in args.label.split(","))
    wf = quantum.psi(quantum.SpectralLabel(n, l, m_z), cfg)
    grid = build_grid(*rc.grid, cfg)
    vals = wf.eval_q(grid.q)
    rows = [[float(grid.chi[i]), float(grid.theta[i]), float(grid.phi[i]),
             float(vals[i].real), float(vals[i].imag)]
            for i in range(len(grid))]
    write_csv(args.out, ["chi", "theta", "phi", "re", "im"], rows)
    return EXIT_OK


def cmd_contract(args) -> int:
    rc = _run_config(args)
    factors = [float(v) for v in args.radii.split(",")]
    return _emit_check(args, rc, suite.check_contraction(rc, tuple(factors)))


def cmd_poisson(args) -> int:
    rc = _run_config(args)
    return _emit_check(args, rc, suite.check_poisson(rc, samples=args.samples,
                                                     jacobi_points=args.jacobi_points))


def cmd_all(args) -> int:
    rc = _run_config(args)
    t0 = time.monotonic()

    def progress(number: str, res: suite.CheckResult) -> None:
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {number} ({res.name}): {status} {res.thinnest() or ''}".rstrip())

    results = suite.run_all(rc, progress)
    payload = {
        "suite": SUITE_VERSION,
        "config": rc.as_dict(),
        "checks": {num: res.as_dict() for num, res in results},
        "all_passed": all(res.passed for _, res in results),
    }
    print(f"total wall time: {time.monotonic() - t0:.1f} s", file=sys.stderr)
    if args.out:
        write_json(args.out, payload)
    return EXIT_OK if payload["all_passed"] else EXIT_RESIDUAL


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s3sigma",
        description="Verification suites for particle mechanics on the 3-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geodesic", help="integrate a geodesic and report drifts")
    _common_flags(p)
    p.add_argument("--eps0", type=_triple(float), default=[0.2, 0.0, 0.0])
    p.add_argument("--vel0", type=_triple(float), default=[0.0, 1.0, 0.0])
    p.add_argument("--t-end", type=float, default=20.0)
    p.add_argument("--steps", type=int, default=2000)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("groupcheck", help="group axioms and bracket table")
    _common_flags(p)
    p.add_argument("--samples", type=_count(1), default=1000)
    p.set_defaults(fn=cmd_groupcheck)

    p = sub.add_parser("spectrum", help="energy table or per-label residuals")
    _common_flags(p)
    p.add_argument("--n-max", type=_count(0), default=5)
    p.add_argument("--labels", action="store_true",
                   help="emit per-label residual rows instead of the level table")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("orthonormality", help="Gram matrix of the basis")
    _common_flags(p)
    p.add_argument("--n-max", type=_count(0), default=5)
    p.set_defaults(fn=cmd_orthonormality)

    p = sub.add_parser("wavefn", help="sample one basis function over the grid")
    _common_flags(p)
    p.add_argument("--label", default="1,1,0", help="n,l,m_z")
    p.set_defaults(fn=cmd_wavefn)

    p = sub.add_parser("contract", help="flat-limit deviation study")
    _common_flags(p)
    p.add_argument("--radii", default="10,100,1000",
                   help="comma list of radius factors")
    p.set_defaults(fn=cmd_contract)

    p = sub.add_parser("poisson", help="bracket families and Jacobi identity")
    _common_flags(p)
    p.add_argument("--samples", type=_count(1), default=100)
    p.add_argument("--jacobi-points", type=_count(0), default=10)
    p.set_defaults(fn=cmd_poisson)

    p = sub.add_parser("all", help="run the full verification suite")
    _common_flags(p)
    p.set_defaults(fn=cmd_all)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go first, so the given ones win
            args = parser.parse_args([argv[0], *_config_flags(args.config), *argv[1:]])
        return args.fn(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
