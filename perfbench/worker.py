"""One round of a workload in a fresh process: set up, run the checks, judge them.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is `setup` (import and build the inputs, then stop), `plain` (time
the checks) or `traced` (time them under the per-layer tracer).  The
last line of standard output is one JSON record; `run.py` starts this
script with `src` on the path and BLAS/OpenMP pinned to one thread.
"""

import resource
import sys
import time
from typing import NamedTuple


class Op(NamedTuple):
    """One operation of a round: a suite check with its keyword arguments.

    The arguments are the acceptance parameters, passed explicitly so that
    a changed default in the package cannot shrink the work measured.  A
    `seed` of None means the round's seed.  `known_fault` marks the one
    operation allowed to report a failure, and only the failure that
    `oracles.judge` recognises as the known fault.
    """
    check: str
    kwargs: dict
    seed: int | None = None
    known_fault: bool = False


# Criterion 6 is split in two.  Its bracket families run at the round's
# seed.  Its Jacobi identity runs at the fixed seed 210, where the nested
# differences of classical.jacobi_residual give 1.05e-6 against the 1e-6
# tolerance although the identity holds exactly (see CHANGES.md): that
# operation fails on every run, and the same failure at a seed-dependent
# input would make the failed share differ from run to run.
JACOBI_SEED = 210
WORKLOADS = {
    "poisson": [
        Op("poisson", {"samples": 100, "jacobi_points": 0}),
        Op("poisson", {"samples": 100, "jacobi_points": 10}, JACOBI_SEED, known_fault=True),
    ],
    "quantum": [
        Op("volume", {}),
        Op("spectrum", {"n_max": 5}),
        Op("orthonormality", {"n_max": 5}),
        Op("contraction", {"factors": (10.0, 100.0, 1000.0)}),
        Op("selfadjointness", {"pairs": 50}),
    ],
    "group": [
        Op("group_axioms", {"samples": 1000}),
        Op("lie_algebra", {"samples": 12}),
        Op("conservation", {"omega_t": 20.0, "steps": 2000}),
        Op("closed_form", {"sample_times": 50}),
        Op("quantization_form", {"samples": 100}),
    ],
}


def assess(op: Op, rc, result) -> dict:
    """The record of one operation: failed or not, and its problems.

    `result` is the check's `CheckResult`, or the traceback it raised.
    Every output is judged, whether the check passed or not; a raised
    exception is always a problem, so is a failure other than the known
    fault.
    """
    import json
    import traceback

    import oracles

    if isinstance(result, str):
        return {"check": op.check, "seed": rc.seed, "failed": True,
                "problems": [f"raised:\n{result}"]}
    # round-trip through JSON so the oracles see what a report would hold
    details = json.loads(json.dumps(result.details))
    try:
        problems = oracles.judge(result.name, rc, op.kwargs, details, result.passed,
                                 op.known_fault)
    except Exception:  # output too malformed for the oracle to read
        problems = [traceback.format_exc()]
    return {"check": result.name, "seed": rc.seed, "failed": not result.passed,
            "problems": problems, "details": details}


def run_round(workload: str, seed: int, mode: str) -> dict:
    from s3sigma import suite

    ops = WORKLOADS[workload]
    configs = [suite.RunConfig(seed=seed if op.seed is None else op.seed) for op in ops]
    record = {"ready": time.monotonic()}
    if mode == "setup":
        return record

    # the benchmark's own modules load after "ready", outside setup_s
    import traceback

    from tracer import Tracer

    tracer = Tracer().install() if mode == "traced" else None
    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for op, rc in zip(ops, configs):
            try:
                results.append(getattr(suite, f"check_{op.check}")(rc, **op.kwargs))
            except Exception:  # one failed operation; the round goes on
                results.append(traceback.format_exc())
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.remove()

    checks = [assess(op, rc, res) for op, rc, res in zip(ops, configs, results)]
    record.update(wall_s=wall, cpu_s=cpu, peak_rss_kb=peak_rss_kb, checks=checks)
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
    return record


def main(argv: list) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if workload not in WORKLOADS or mode not in ("setup", "plain", "traced"):
        print(f"unknown workload {workload!r} or mode {mode!r}", file=sys.stderr)
        return 2
    import json
    print(json.dumps(run_round(workload, seed, mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
