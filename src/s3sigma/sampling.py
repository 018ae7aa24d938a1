"""Seeded draws from Python's MT19937 under the method names of a numpy
`Generator`, so that either may be passed wherever the package draws and
no check imports numpy.random."""

from __future__ import annotations

import math
import operator
import random

import numpy as np


class Draws:
    """The stream a key of integers names: Draws(seed, 4) and Draws(seed) differ."""

    def __init__(self, *key: int) -> None:
        self._r = random.Random(repr(tuple(map(operator.index, key))))

    def random(self, size) -> np.ndarray:
        """Uniforms in [0, 1): the top 53 bits of each 8 bytes of the stream."""
        bits = np.frombuffer(self._r.randbytes(8 * int(np.prod(size))), dtype="<u8")
        return ((bits >> np.uint64(11)) * 2.0 ** -53).reshape(size)

    def standard_normal(self, size) -> np.ndarray:
        """Box-Muller on uniforms (u1, u2) in turn: r cos(2 pi u2), then r sin(2 pi u2),
        r = sqrt(-2 log(1 - u1)); so the first k values of a draw of n are a draw of k."""
        n = int(np.prod(size))
        u = self.random((n + 1) // 2 * 2).reshape(-1, 2)
        r, angle = np.sqrt(-2.0 * np.log1p(-u[:, 0])), 2.0 * math.pi * u[:, 1]
        return np.stack((r * np.cos(angle), r * np.sin(angle)), axis=1).ravel()[:n].reshape(size)

    def integers(self, low: int, high: int, size) -> np.ndarray:
        """Integers uniform in [low, high)."""
        k = [self._r.randrange(low, high) for _ in range(int(np.prod(size)))]
        return np.array(k, dtype=np.int64).reshape(size)
