"""Deterministic PRNG: xoshiro256** seeded through splitmix64.

Both algorithms are bit-exact reproductions of the public-domain reference
implementations by Blackman and Vigna, so any language can replay the
streams from a 64-bit seed. Every source of randomness in gaplab flows
through this module; nothing uses ambient RNG state.

Large draws (`normals`, `uniforms`, `shuffle`) run the same stream in
numpy lanes: xoshiro256** is linear over GF(2), so a state can jump
`_LANE_STEPS` steps ahead by a fixed 256x256 bit matrix (Haramoto et al.,
2008), and lane j+1 starts where lane j ends. The lanes give the scalar
stream's outputs, in its order, and leave the same state behind.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ArgumentError

MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB


# Outputs per lane; with ~9 ufunc calls per lane step and one jump per lane,
# 128 balances the two costs for blocks of a few thousand draws and up.
_LANE_STEPS = 128
# Blocks shorter than this are drawn one next_u64 at a time. On 2 vCPUs the
# lanes' fixed cost (about 1.1 ms) and next_u64's 1.2-1.4 us per draw crossed
# near 1000 draws, for bare blocks, normals and shuffles alike.
_BLOCK_CUTOFF = 1024


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once, returning (new_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & MASK64
    return state, z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Sub-seed for an independent stream: output `stream` of splitmix64(seed)."""
    if stream < 0:
        raise ArgumentError(f"stream must be >= 0, got {stream}")
    state = seed & MASK64
    out = 0
    for _ in range(stream + 1):
        state, out = splitmix64_next(state)
    return out


def _run_lanes(starts: np.ndarray, capture: int):
    """Step each row of `starts` (k states, (k, 4) uint64) _LANE_STEPS times.

    Returns the s1 word before each step as an (_LANE_STEPS, k) array, the
    states after the last step as (k, 4), and the last lane's state after
    `capture` (< _LANE_STEPS) steps as a list of four ints.
    """
    k = len(starts)
    s0, s2, s3 = (starts[:, w].copy() for w in (0, 2, 3))
    s1s = np.empty((_LANE_STEPS + 1, k), dtype=np.uint64)
    s1s[0] = starts[:, 1]
    t = np.empty(k, dtype=np.uint64)
    u = np.empty(k, dtype=np.uint64)
    for i in range(_LANE_STEPS):
        s1 = s1s[i]
        if i == capture:
            captured = [int(s0[-1]), int(s1[-1]), int(s2[-1]), int(s3[-1])]
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        np.bitwise_xor(s1, s2, out=s1s[i + 1])
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=u)
        s3 >>= 19
        s3 |= u
    ends = np.stack([s0, s1s[-1], s2, s3], axis=1)
    return s1s[:-1], ends, captured


@functools.cache
def _jump_table() -> np.ndarray:
    """Row b: the state _LANE_STEPS steps after the state whose only set
    bit is b, with bits numbered as np.unpackbits(bitorder="little") reads
    the state's bytes. Built on first use, not at import."""
    units = np.packbits(np.eye(256, dtype=bool), axis=1, bitorder="little")
    return _run_lanes(units.view(np.uint64), capture=0)[1]


def _jump(state: np.ndarray) -> np.ndarray:
    """The state _LANE_STEPS steps after `state` ((4,) uint64): the XOR of
    the jump-table rows picked by its set bits."""
    bits = np.unpackbits(state.view(np.uint8), bitorder="little").view(bool)
    return np.bitwise_xor.reduce(_jump_table()[bits], axis=0)


class Rng:
    """xoshiro256** generator with a 256-bit state.

    The four state words are filled from consecutive splitmix64 outputs of
    the 64-bit seed, as recommended by the algorithm's authors. Instances
    are single-owner: the state mutates on every draw and the object is not
    safe for concurrent use.
    """

    __slots__ = ("_s", "_gauss")

    def __init__(self, seed: int):
        state = seed & MASK64
        s = []
        for _ in range(4):
            state, out = splitmix64_next(state)
            s.append(out)
        if not any(s):  # all-zero state would be a fixed point
            s[0] = 1
        self._s = s
        self._gauss: float | None = None

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def next_float(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def next_below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ArgumentError(f"n must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def normal(self) -> float:
        """Standard normal via Box-Muller; the paired draw is cached."""
        if self._gauss is not None:
            z = self._gauss
            self._gauss = None
            return z
        u1 = 1.0 - self.next_float()  # (0, 1] keeps log() finite
        u2 = self.next_float()
        r = math.sqrt(-2.0 * math.log(u1))
        self._gauss = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def _block(self, m: int) -> np.ndarray:
        """The next m outputs of next_u64, as uint64, leaving the state where
        m calls of next_u64 would."""
        if m < _BLOCK_CUTOFF:
            return np.array([self.next_u64() for _ in range(m)], dtype=np.uint64)
        # Lane j draws outputs [j*L, (j+1)*L); the state after m draws is
        # the last lane's after m % L steps.
        starts = np.empty((m // _LANE_STEPS + 1, 4), dtype=np.uint64)
        starts[0] = self._s
        for j in range(1, len(starts)):
            starts[j] = _jump(starts[j - 1])
        s1s, _, self._s = _run_lanes(starts, capture=m % _LANE_STEPS)
        x = s1s * 5  # the output function, rotl(s1 * 5, 7) * 9
        x = (x << 7) | (x >> 57)
        x *= 9
        return x.T.ravel()[:m]

    def _floats(self, m: int) -> np.ndarray:
        """m draws of next_float as a float64 array."""
        return (self._block(m) >> 11).astype(np.float64) * (1.0 / (1 << 53))

    def normals(self, n: int) -> np.ndarray:
        """The next n values of normal(): a value cached by an earlier call
        comes first, and an odd count leaves the last pair's second value
        cached.

        Only exactly rounded operations (+, -, *, sqrt) run in numpy; log,
        sin and cos stay on math.*, whose results numpy's SIMD versions
        need not match.
        """
        out = np.empty(n, dtype=np.float64)
        lead = 0
        if n and self._gauss is not None:
            out[0], self._gauss, lead = self._gauss, None, 1
        pairs = (n - lead + 1) // 2
        f = self._floats(2 * pairs)
        log_u1 = np.fromiter(map(math.log, (1.0 - f[0::2]).tolist()), np.float64, pairs)
        r = np.sqrt(-2.0 * log_u1)
        theta = ((2.0 * math.pi) * f[1::2]).tolist()
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.fromiter(map(math.cos, theta), np.float64, pairs)
        z[1::2] = r * np.fromiter(map(math.sin, theta), np.float64, pairs)
        if (n - lead) % 2:
            self._gauss = float(z[-1])
        out[lead:] = z[:n - lead]
        return out

    def uniforms(self, n: int, lo: float, hi: float) -> np.ndarray:
        return lo + (hi - lo) * self._floats(n)

    def shuffle(self, arr: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle of a 1-D array: for i from the end
        down to 1, swap arr[i] with arr[next_below(i + 1)]."""
        items = arr.tolist()
        bounds = np.arange(len(items), 1, -1, dtype=np.uint64)
        saved = self._s[:]
        x = self._block(len(bounds))
        # next_below(n) rejects x >= 2**64 - r with r = 2**64 % n, which in
        # uint64 is r = -n % n and x > ~r
        if np.any(x > ~(-bounds % bounds)):
            self._s = saved
            js = [self.next_below(n) for n in range(len(items), 1, -1)]
        else:
            js = (x % bounds).tolist()
        for i, j in zip(range(len(items) - 1, 0, -1), js):
            items[i], items[j] = items[j], items[i]
        arr[:] = items

    def permutation(self, n: int) -> np.ndarray:
        idx = np.arange(n, dtype=np.int64)
        self.shuffle(idx)
        return idx
