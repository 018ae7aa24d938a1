import math
import subprocess
import sys

import numpy as np
from scipy import stats

from s3sigma.sampling import Draws


def test_a_key_names_one_stream():
    for key in ((0, 4), (7,), (3, 9)):
        a, b = Draws(*key), Draws(*key)
        assert a.random(5).tobytes() == b.random(5).tobytes()
        assert a.standard_normal((4, 11)).tobytes() == b.standard_normal((4, 11)).tobytes()
        assert a.integers(0, 50, (6, 2)).tobytes() == b.integers(0, 50, (6, 2)).tobytes()
    # numpy integers name the stream of the Python integers of the same value
    assert Draws(np.int64(2), 4).random(3).tobytes() == Draws(2, 4).random(3).tobytes()
    firsts = {Draws(*key).random(4).tobytes() for key in ((0,), (0, 4), (0, 5), (1, 4), (4, 0))}
    assert len(firsts) == 5


def test_normal_draw_prefix_is_a_shorter_draw():
    # the first k rows of a draw of n rows of 11 are a draw of k rows, odd k too
    full = Draws(202).standard_normal((3000, 11))
    for k in (1, 2, 12, 101, 2999):
        assert Draws(202).standard_normal((k, 11)).tobytes() == full[:k].tobytes()


def test_shapes_follow_numpy_generator():
    d = Draws(5)
    assert d.random((2, 3)).shape == (2, 3)
    assert d.standard_normal(3).shape == (3,)
    assert d.standard_normal((0, 11)).shape == (0, 11)
    assert d.integers(0, 4, (7, 2)).shape == (7, 2)


def test_uniforms_lie_in_the_half_open_unit_interval():
    u = Draws(11).random(100_000)
    assert u.dtype == np.float64
    assert 0.0 <= u.min() and u.max() < 1.0
    # 53-bit multiples of 2^-53, spread over the interval
    assert np.all(u * 2.0 ** 53 == np.floor(u * 2.0 ** 53))
    assert u.min() < 1e-3 and u.max() > 1.0 - 1e-3


def test_normal_draws_are_standard_normal():
    # mean and variance within five standard errors of 0 and 1, and the
    # Kolmogorov-Smirnov test against N(0, 1) not rejected at p = 1e-3
    n = 100_000
    x = Draws(12).standard_normal(n)
    assert abs(np.mean(x)) < 5.0 / math.sqrt(n)
    assert abs(np.var(x) - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert stats.kstest(x, "norm").pvalue > 1e-3


def test_integers_stay_in_range_and_cover_it():
    k = Draws(13).integers(-2, 5, (700, 2))
    assert k.dtype == np.int64
    assert k.min() >= -2 and k.max() < 5
    assert set(k.ravel().tolist()) == set(range(-2, 5))


def test_the_package_never_imports_numpy_random(tmp_path):
    # every check at its defaults, then the whole command-line run, draw only
    # from Draws: numpy.random costs 10-20 ms and 5 MB to import
    script = (
        "import sys\n"
        "from s3sigma import cli, suite\n"
        "for _, check in suite.ALL_CHECKS:\n"
        "    check(suite.RunConfig())\n"
        "cli.main(['all', '--seed', '0', '--out', sys.argv[1]])\n"
        "sys.exit('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "all")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr



def test_the_package_never_imports_numpy_polynomial(tmp_path):
    # every check at its defaults, then the whole command-line run, take
    # their Gauss-Legendre rules from `quadrature._gauss_legendre`: importing
    # numpy.polynomial costs 3-5 ms
    script = (
        "import sys\n"
        "from s3sigma import cli, suite\n"
        "for _, check in suite.ALL_CHECKS:\n"
        "    check(suite.RunConfig())\n"
        "cli.main(['all', '--seed', '0', '--out', sys.argv[1]])\n"
        "sys.exit('numpy.polynomial' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "all")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
