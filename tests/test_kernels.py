"""Reports do not depend on the BLAS kernel or numpy's SIMD level.

`s3sigma all --seed 0` runs once per environment below, each in its own
process with its variables set on that child only.  Every run must judge
every check as the default run does, and write the same value at every
leaf of the report, except at the keys of KERNEL_DEPENDENT.
"""

import json
import os
import subprocess
import sys

#: The runs compared with the default one.  OpenBLAS picks its kernel from
#: OPENBLAS_CORETYPE; numpy drops its AVX-512 loops with X86_V4 disabled.
ENVIRONMENTS = {
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
}

#: Report keys (a leaf, or every leaf under a prefix) whose last bits may
#: follow the kernel, each with its cause.  This list only shrinks: a key
#: leaves it when its cause is mended, and no key joins it.
KERNEL_DEPENDENT = {
    **dict.fromkeys(
        [f"checks.2.details.max_{k}" for k in ("h_residual_analytic", "h_residual_fd",
                                               "j2_residual", "j3_residual")],
        "criterion 2's Gram products and Cholesky factor run in BLAS and LAPACK, and "
        "its grid nodes come from numpy's SIMD cos and sin"),
    "checks.3.details.max_gram_deviation": "the Gram matrix is a BLAS product",
    "checks.5.details.max_structure_constant_deviation":
        "the frame brackets are stacked BLAS products, expanded by LAPACK solve",
    "checks.6.details":
        "the bracket matrix of `classical._poisson_matrix` is a stacked BLAS product; "
        "the sampled points come from numpy's SIMD cbrt, log1p, cos and sin",
    "checks.11.details": "the moment matrix and its products with the coefficients run in "
                         "BLAS, and the grid nodes come from numpy's SIMD cos and sin",
}


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _allowed(key: str) -> bool:
    return any(key == k or key.startswith(k + ".") or key.startswith(k + "[")
               for k in KERNEL_DEPENDENT)


def test_reports_agree_across_blas_kernels_and_simd_levels(tmp_path):
    runs = {"default": {}, **ENVIRONMENTS}
    procs = {}
    for name, extra in runs.items():
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        procs[name] = subprocess.Popen(
            [sys.executable, "-m", "s3sigma.cli", "all", "--seed", "0",
             "--out", str(tmp_path / f"{name}.json")],
            env={**env, **extra}, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    reports = {}
    for name, proc in procs.items():
        output = proc.communicate(timeout=120)[0]
        assert proc.returncode == 0, (name, output)
        reports[name] = json.loads((tmp_path / f"{name}.json").read_text())

    default = reports.pop("default")
    want = dict(_leaves(default))
    for name, report in reports.items():
        assert report["all_passed"] == default["all_passed"], name
        assert ({k: c["passed"] for k, c in report["checks"].items()}
                == {k: c["passed"] for k, c in default["checks"].items()}), name
        got = dict(_leaves(report))
        assert got.keys() == want.keys(), name
        moved = [k for k in want if got[k] != want[k] and not _allowed(k)]
        assert not moved, (name, [(k, want[k], got[k]) for k in moved])
