"""Deterministic report serialization and the tolerance registry.

Reports never contain wall-clock data: the same configuration and seed
must produce byte-identical JSON.  Writes are atomic (temp file plus
rename in the target directory).
"""

from __future__ import annotations

import json
import os
import tempfile

SUITE_VERSION = "s3sigma-suite/0.3.0"

DEFAULT_TOLERANCES = {
    "volume": 1e-12,
    "gram": 1e-9,
    "h_residual": 1e-7,
    "h_residual_fd": 1e-4,
    "j_residual": 1e-7,
    "associativity": 1e-12,
    "inverse": 1e-12,
    "bracket": 1e-7,
    "lr_commute": 1e-7,
    "poisson": 1e-7,
    "jacobi": 1e-6,
    "h_drift": 1e-8,
    "theta_drift": 1e-8,
    "endpoint": 1e-8,
    "geodesic_residual": 1e-7,
    "theta_contraction": 1e-8,
    "noether": 1e-8,
    "hermiticity": 1e-8,
    "contraction_slope": -0.7,
}


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True)


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write(path, to_json(obj) + "\n")


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    atomic_write(path, "\n".join(lines) + "\n")
