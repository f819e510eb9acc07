"""Deterministic random number generation, pinned to xoshiro256**.

The generator is fixed by construction and never delegates to platform
defaults: state is seeded with the splitmix64 mixer (the initialisation the
xoshiro authors recommend) and advanced with the xoshiro256** step.  The raw
64-bit stream is therefore bit-identical for a given seed on every build.
Floating-point draws are pure functions of that stream; uniforms use the
exact (k >> 11) * 2**-53 construction, gaussians use the Box-Muller
transform, so they inherit at most libm's last-bit variation across
platforms and are exactly reproducible within one environment.

``uniform_array`` draws a block at once: the state update is linear over
GF(2), so lanes can be jumped to their start positions with cached powers
of it and then stepped side by side in numpy.  The values, their order and
the final state equal those of scalar ``uniform`` calls.

Instances are single-owner: one Rng must never be shared between threads.
Parallel or restartable work derives independent child streams with
``Rng.stream(seed, index)``.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# block draws step at most this many lanes side by side
_LANES = 1024
_U5, _U9, _U11, _U17 = (np.uint64(k) for k in (5, 9, 11, 17))


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

    def next_u64_array(self, n: int) -> np.ndarray:
        """The next n raw outputs as uint64, equal to n ``next_u64()`` calls.

        The n draws are cut into at most 1024 lanes of ``2**a`` consecutive
        draws (the smallest a that fits).  Lane j is jumped ahead j * 2**a
        steps with the cached GF(2) powers of the state update, then all
        lanes take the xoshiro256** step together in uint64.  The generator
        ends in the state n scalar calls would leave.
        """
        if n < 0:
            raise ValueError("next_u64_array requires n >= 0")
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        a = ((n - 1) // _LANES).bit_length()
        run = 1 << a
        lanes = -(-n // run)
        # (lanes, 4) start states, doubled by jumps of 2**(a + b) steps
        starts = np.array([[self._s0, self._s1, self._s2, self._s3]], dtype=np.uint64)
        b = 0
        while len(starts) < lanes:
            starts = np.concatenate([starts, _jump(starts[: lanes - len(starts)], a + b)])
            b += 1
        state = list(starts.T.copy())
        out = np.empty((lanes, run), dtype=np.uint64)
        last = n - (lanes - 1) * run  # draws taken from the last lane
        for t in range(run):
            out[:, t] = _step_lanes(state)
            if t + 1 == last:
                self._s0, self._s1, self._s2, self._s3 = (int(w[-1]) for w in state)
        return out.reshape(-1)[:n]

    def uniform_array(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform doubles equal, bit for bit and in C order, to scalar ``uniform`` calls."""
        n = int(np.prod(shape, dtype=np.int64))
        bits = self.next_u64_array(n)
        bits >>= _U11
        u = bits.astype(np.float64)
        # uniform()'s arithmetic in its order, in place to allocate no more buffers
        u *= 2.0**-53
        u *= high - low
        u += low
        return u.reshape(shape)

    def normal_array(self, shape) -> np.ndarray:
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        for i in range(flat.size):
            flat[i] = self.normal()
        return out


def _rotl_array(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


def _step_lanes(state: list[np.ndarray]) -> np.ndarray:
    """One xoshiro256** step on every lane of [s0, s1, s2, s3], in place; the outputs."""
    s0, s1, s2, s3 = state
    result = _rotl_array(s1 * _U5, 7) * _U9
    t = s1 << _U17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    state[3] = _rotl_array(s3, 45)
    return result


def _bits(words: np.ndarray) -> np.ndarray:
    """(k, 4) uint64 states as (k, 256) bits; bit i is bit i % 64 of word i // 64."""
    octets = words.astype("<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little")


def _words(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


# _JUMPS[e] is the state update applied 2**e times, as a 256x256 GF(2)
# matrix acting on row vectors of state bits.  Each row is kept packed as a
# state's four uint64 words (8 KB a matrix; _bits unpacks it).  Built on
# first use, under the lock because every generator in the process shares it
_JUMPS: list[np.ndarray] = []
_JUMPS_LOCK = threading.Lock()


def _gf2_product(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    # float32 holds the 0/1 dot products (at most 256) exactly
    prod = x.astype(np.float32) @ m.astype(np.float32)
    return (prod.astype(np.int32) & 1).astype(np.uint8)


def _jump_matrix(e: int) -> np.ndarray:
    with _JUMPS_LOCK:
        if not _JUMPS:
            # the update's image of each basis state is one row
            state = list(_words(np.eye(256, dtype=np.uint8)).T.copy())
            _step_lanes(state)
            _JUMPS.append(np.stack(state, axis=1))
        while len(_JUMPS) <= e:
            m = _bits(_JUMPS[-1])
            _JUMPS.append(_words(_gf2_product(m, m)))
        return _bits(_JUMPS[e])


def _jump(words: np.ndarray, e: int) -> np.ndarray:
    """(k, 4) uint64 states, each advanced 2**e steps."""
    return _words(_gf2_product(_bits(words), _jump_matrix(e)))
