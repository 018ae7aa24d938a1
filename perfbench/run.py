"""Benchmark of the s3sigma verification suite, one workload per run.

    python3 perfbench/run.py --workload {poisson,quantum,group} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree (the package is imported from
`src/`).  Every round is a fresh worker process, so each one pays for
the imports and lazy caches a command-line user pays for.  Round k uses
seed N + k (the Jacobi half of `poisson` has a fixed seed, see
worker.py).  A run makes whole rounds while the next one, at the mean
cost so far, still ends within S seconds of the start, and one at least.
With `--trace 0` the run reports the end-to-end metrics `setup_s`,
`wall_s` and `peak_rss_mb`; with `--trace 1` it reports the per-layer
metrics of one untraced and one or more traced rounds at seed N.
The last line of standard output is one JSON object; every round is
also written to `.perfbench_out/`.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 10  # extra set-up-only processes per run, for a steadier setup_s
# A run may overshoot S by the round that was started in time; a worker
# still running this long after the start is stopped, so that a run never
# takes more than three minutes.
OVERSHOOT_S = 120.0
DEADLINE_S = 170.0


class RunError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One BLAS/OpenMP thread: on a 2-CPU host a second OpenBLAS thread made
    # CPU time exceed wall time and the wall time depend on the neighbours.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is cached inside the tree, never next to the installed packages,
    # and is always written, so setup_s is a warm start whatever the caller's
    # environment says.
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker process; its record with setup_s measured from the spawn."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} seed {seed} ({mode}) was still running at the deadline")
    if proc.returncode != 0:
        raise RunError(f"{workload} seed {seed} ({mode}) exited with {proc.returncode}:\n"
                       f"{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is one clock for every process of the host.
    record["setup_s"] = record.pop("ready") - start
    record["seed"] = seed
    return record


def rounds_for(start: float, seconds: float, one_round) -> list:
    """One whole round, then more while the next one, at the mean cost of
    the rounds so far, still ends within `seconds` of `start`."""
    rounds: list = []
    t0 = time.monotonic()
    while True:
        rounds.append(one_round(len(rounds)))
        now = time.monotonic()
        if now - start + (now - t0) / len(rounds) > seconds:
            return rounds


def unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def end_to_end(args, start: float, deadline: float) -> tuple:
    setups = [spawn(args.workload, args.seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    rounds = rounds_for(start, args.seconds, lambda k: spawn(
        args.workload, args.seed + k, "plain", deadline))
    setups += [r["setup_s"] for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in rounds) / 1024.0, "MB"),
    }
    return rounds, metrics


def per_layer(args, start: float, deadline: float) -> tuple:
    base = spawn(args.workload, args.seed, "plain", deadline)
    traced = rounds_for(start, args.seconds, lambda k: spawn(
        args.workload, args.seed, "traced", deadline))
    metrics = {name: (statistics.median(r["layers"][name] for r in traced), unit(name))
               for name in traced[0]["layers"]}
    metrics["process.cpu_s"] = (base["cpu_s"], "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - base["wall_s"], "s")
    return [base] + traced, metrics


def summarise(rounds: list, metrics: dict) -> dict:
    """The result line: every operation counts, and a problem with any of
    them, failed or not, makes the run incorrect."""
    checks = [c for r in rounds for c in r["checks"]]
    problems = [f"{c['check']} seed {c['seed']}: {p}" for c in checks for p in c["problems"]]
    for line in problems:
        print(f"INCORRECT {line}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(checks),
        "failed": sum(1 for c in checks if c["failed"]),
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }


def parse(argv: list) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "s3sigma" / "suite.py").is_file():
        print(f"no s3sigma source under {ROOT / 'src'}; run from a source tree",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + min(DEADLINE_S, args.seconds + OVERSHOOT_S)
    OUT.mkdir(exist_ok=True)
    try:
        spawn(args.workload, args.seed, "setup", deadline)  # warms the bytecode cache
        rounds, metrics = (per_layer if args.trace else end_to_end)(args, start, deadline)
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 1

    result = summarise(rounds, metrics)
    log = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps({"args": vars(args), "result": result, "rounds": rounds},
                              indent=1))
    for name, (value, u) in metrics.items():
        print(f"{args.workload}/{name} {value:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
