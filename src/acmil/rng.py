"""Deterministic random number generation, pinned to xoshiro256**.

The generator is fixed by construction and never delegates to platform
defaults: state is seeded with the splitmix64 mixer (the initialisation the
xoshiro authors recommend) and advanced with the xoshiro256** step.  The raw
64-bit stream is therefore bit-identical for a given seed on every build.
Floating-point draws are pure functions of that stream; uniforms use the
exact (k >> 11) * 2**-53 construction, gaussians use the Box-Muller
transform, so they inherit at most libm's last-bit variation across
platforms and are exactly reproducible within one environment.

Instances are single-owner: one Rng must never be shared between threads.
Parallel or restartable work derives independent child streams with
``Rng.stream(seed, index)``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # splitmix64 finaliser
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** stream seeded via splitmix64 from a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        s = self.seed
        state = []
        for _ in range(4):
            s = (s + _GOLDEN) & _MASK64
            state.append(_mix64(s))
        self._s0, self._s1, self._s2, self._s3 = state
        self._gauss_spare: float | None = None

    @classmethod
    def stream(cls, seed: int, index: int) -> "Rng":
        """Independent child stream ``index`` of the parent ``seed``.

        The child seed is mix64(mix64(seed) ^ mix64((index + 1) * golden)),
        a fixed, documented derivation so that any sub-stream (per epoch,
        per sweep cell) is reconstructible in isolation.
        """
        child = _mix64(_mix64(seed) ^ _mix64(((index + 1) * _GOLDEN) & _MASK64))
        return cls(child)

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform double in [low, high) with 53-bit resolution."""
        u = (self.next_u64() >> 11) * 2.0**-53
        return low + (high - low) * u

    def normal(self) -> float:
        """Standard gaussian via Box-Muller; the paired draw is cached."""
        if self._gauss_spare is not None:
            g = self._gauss_spare
            self._gauss_spare = None
            return g
        # u1 in (0, 1] keeps the log finite
        u1 = 1.0 - (self.next_u64() >> 11) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._gauss_spare = r * math.sin(theta)
        return r * math.cos(theta)

    def integers(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("integers() requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def int_range(self, low: int, high: int) -> int:
        """Unbiased integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError("int_range requires low <= high")
        return low + self.integers(high - low + 1)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.integers(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def permutation(self, n: int) -> list[int]:
        order = list(range(n))
        self.shuffle(order)
        return order

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in draw order."""
        if k > n:
            raise ValueError("cannot sample more items than available")
        pool = list(range(n))
        picked = []
        for i in range(k):
            j = i + self.integers(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            picked.append(pool[i])
        return picked

    def uniform_array(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        for i in range(flat.size):
            flat[i] = self.uniform(low, high)
        return out

    def normal_array(self, shape) -> np.ndarray:
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        for i in range(flat.size):
            flat[i] = self.normal()
        return out
