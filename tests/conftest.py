import os

# One BLAS/OpenMP thread, as the benchmark runs: with two OpenBLAS threads
# on a 2-CPU host the first Gram products of criterion 3 sometimes stalled
# for a second.  numpy is not loaded yet when pytest imports this file, so
# the setting takes effect; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# pytest puts src/ on sys.path (pyproject.toml); the command-line tests' child
# processes find the package the same way.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from s3sigma import SpaceConfig  # noqa: E402


@pytest.fixture
def cfg():
    return SpaceConfig(1.0, 1.0)


@pytest.fixture
def cfg_odd():
    """Non-unit radius and mass to catch hidden unit assumptions."""
    return SpaceConfig(1.3, 0.7)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
