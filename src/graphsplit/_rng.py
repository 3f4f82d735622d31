"""Deterministic random streams for reproducible fixtures.

SplitMix64 integers mapped to standard normals through Box-Muller, so the
same seed yields the same matrices bit for bit on any platform (and in any
language that reimplements the two well-known recipes).
"""

import math

import numpy as np

_MASK = (1 << 64) - 1


class SplitMix64:
    """Minimal deterministic PRNG with a 64-bit state."""

    def __init__(self, seed):
        self._state = int(seed) & _MASK
        self._spare = None

    def next_uint64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self):
        """float64 in [0, 1) built from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def randint(self, lo, hi):
        """Integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_uint64() % (hi - lo + 1)

    def normal(self):
        """Standard normal via Box-Muller (pairs cached)."""
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, count):
        return np.array([self.normal() for _ in range(count)])

    def normal_matrix(self, rows, cols):
        """Row-major Gaussian fill."""
        return self.normals(rows * cols).reshape(rows, cols)
