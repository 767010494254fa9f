"""PRNG correctness: reference vectors, stream derivation, distributions,
and block draws against the one-value-at-a-time stream."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaplab
from gaplab.errors import ArgumentError
from gaplab.rng import (
    _BLOCK_CUTOFF,
    _LANE_STEPS,
    MASK64,
    Rng,
    derive_seed,
    splitmix64_next,
)

# Published outputs of the splitmix64 reference implementation from state 0.
SPLITMIX_FROM_ZERO = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


def test_splitmix64_reference_vector():
    state = 0
    outs = []
    for _ in range(3):
        state, out = splitmix64_next(state)
        outs.append(out)
    assert outs == SPLITMIX_FROM_ZERO


def test_xoshiro_reference_state_hand_derived():
    # From state (1,2,3,4) the scrambler gives rotl(2*5,7)*9 = 11520, then
    # s1 becomes 0 (output 0), then s1 = 0x40005 so the third output is
    # rotl(0x40005*5, 7)*9 = 167775360*9 = 1509978240.
    rng = Rng(0)
    rng._s = [1, 2, 3, 4]
    assert [rng.next_u64() for _ in range(3)] == [11520, 0, 1509978240]


def test_derive_seed_is_splitmix_stream():
    state = 12345
    for stream in range(5):
        state, expected = splitmix64_next(state)
        assert derive_seed(12345, stream) == expected


def test_derive_seed_rejects_negative_stream():
    with pytest.raises(ArgumentError):
        derive_seed(0, -1)


def test_seed_masked_to_64_bits():
    big = (1 << 64) + 7
    assert derive_seed(big, 0) == derive_seed(7, 0)
    assert Rng(big).next_u64() == Rng(7).next_u64()


def test_same_seed_same_sequence():
    a, b = Rng(99), Rng(99)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_diverge():
    a, b = Rng(0), Rng(1)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_next_float_range_and_grid():
    rng = Rng(7)
    xs = [rng.next_float() for _ in range(2000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    # 53-bit mantissa grid: every value is a multiple of 2^-53
    assert all(x * (1 << 53) == int(x * (1 << 53)) for x in xs[:100])


def test_uniform_bounds():
    rng = Rng(3)
    xs = [rng.uniform(-2.5, 4.0) for _ in range(1000)]
    assert all(-2.5 <= x < 4.0 for x in xs)
    assert abs(np.mean(xs) - 0.75) < 0.15


def test_next_below_bounds_and_coverage():
    rng = Rng(11)
    xs = [rng.next_below(7) for _ in range(2000)]
    assert set(xs) == set(range(7))


def test_next_below_rejects_nonpositive():
    rng = Rng(0)
    with pytest.raises(ArgumentError):
        rng.next_below(0)


def test_normal_moments():
    rng = Rng(42)
    xs = rng.normals(20000)
    assert abs(float(xs.mean())) < 0.02
    assert abs(float(xs.std()) - 1.0) < 0.02


def test_normal_pairing_consumes_two_floats_per_two_draws():
    a, b = Rng(5), Rng(5)
    a.normal()
    a.normal()  # cached partner, no state advance
    b.next_float()
    b.next_float()
    assert a.next_u64() == b.next_u64()


def test_shuffle_is_permutation():
    rng = Rng(8)
    arr = np.arange(50)
    rng.shuffle(arr)
    assert sorted(arr.tolist()) == list(range(50))
    assert arr.tolist() != list(range(50))


def test_permutation_deterministic():
    assert Rng(4).permutation(10).tolist() == Rng(4).permutation(10).tolist()


def test_mask64_constant():
    assert MASK64 == 2**64 - 1


# --- block draws equal the scalar stream ----------------------------------------

class ScalarRng(Rng):
    """The oracle: each bulk draw built from next_u64, normal and next_below
    one element at a time."""

    __slots__ = ()

    def normals(self, n):
        return np.array([self.normal() for _ in range(n)], dtype=np.float64)

    def uniforms(self, n, lo, hi):
        return np.array([self.uniform(lo, hi) for _ in range(n)], dtype=np.float64)

    def shuffle(self, arr):
        for i in range(len(arr) - 1, 0, -1):
            j = self.next_below(i + 1)
            arr[i], arr[j] = arr[j], arr[i]


def _draw(rng, op, n, lo, hi):
    if op == "normals":
        return rng.normals(n)
    if op == "uniforms":
        return rng.uniforms(n, lo, hi)
    if op == "shuffle":
        arr = np.arange(n, dtype=np.int64) * 7
        rng.shuffle(arr)
        return arr
    if op == "permutation":
        return rng.permutation(n)
    if op == "normal":
        return np.array([rng.normal()])
    if op == "next_below":
        return np.array([rng.next_below(n + 1)], dtype=np.uint64)
    return np.array([rng.next_u64()], dtype=np.uint64)


def _gauss_bits(rng):
    return None if rng._gauss is None else struct.pack("<d", rng._gauss)


EDGE_LENGTHS = [0, 1, 2, 3, 5, 7,
                _LANE_STEPS - 1, _LANE_STEPS, _LANE_STEPS + 1,
                _BLOCK_CUTOFF - 1, _BLOCK_CUTOFF, _BLOCK_CUTOFF + 1,
                _BLOCK_CUTOFF + 2 * _LANE_STEPS + 1]
LENGTHS = st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 3 * _BLOCK_CUTOFF))
OP_NAMES = ["normals", "uniforms", "shuffle", "permutation",
            "normal", "next_below", "next_u64"]
OPS = st.sampled_from(OP_NAMES)
BOUNDS = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=40, deadline=None)
@example(seed=2024, calls=[(op, n, -0.5, 3.0) for n in EDGE_LENGTHS for op in OP_NAMES])
@given(seed=st.integers(0, MASK64),
       calls=st.lists(st.tuples(OPS, LENGTHS, BOUNDS, BOUNDS), min_size=1, max_size=6))
def test_block_draws_equal_scalar_stream(seed, calls):
    block, oracle = Rng(seed), ScalarRng(seed)
    for op, n, lo, hi in calls:
        got, want = _draw(block, op, n, lo, hi), _draw(oracle, op, n, lo, hi)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (op, n)
        assert block._s == oracle._s, (op, n)
        assert _gauss_bits(block) == _gauss_bits(oracle), (op, n)


def test_shuffle_replays_a_rejected_draw():
    # a state whose first output is 2**64 - 1, which next_below(n) rejects
    # for every n that is not a power of two
    def rotr(x, k):
        return ((x >> k) | (x << (64 - k))) & MASK64

    s1 = rotr(MASK64 * pow(9, -1, 1 << 64) & MASK64, 7) * pow(5, -1, 1 << 64) & MASK64
    block, oracle = Rng(0), ScalarRng(0)
    block._s, oracle._s = [1, s1, 2, 3], [1, s1, 2, 3]
    probe = Rng(0)
    probe._s = [1, s1, 2, 3]
    assert probe.next_u64() == MASK64
    n = _BLOCK_CUTOFF + 10
    got, want = np.arange(n), np.arange(n)
    block.shuffle(got)
    oracle.shuffle(want)
    assert got.tolist() == want.tolist()
    assert block._s == oracle._s


def test_import_leaves_jump_table_unbuilt():
    src = str(Path(gaplab.__file__).resolve().parents[1])
    code = ("import gaplab.cli, gaplab.rng as r; "
            "print(r._jump_table.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
