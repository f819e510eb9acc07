import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmil.rng import Rng


def test_equal_seeds_equal_first_million_draws():
    a = Rng(123456789)
    b = Rng(123456789)
    for _ in range(1_000_000):
        assert a.next_u64() == b.next_u64()


def test_different_seeds_differ():
    a = Rng(1)
    b = Rng(2)
    assert any(a.next_u64() != b.next_u64() for _ in range(4))


def test_child_streams_are_reproducible_and_independent():
    assert [Rng.stream(7, 3).next_u64() for _ in range(1)] == [
        Rng.stream(7, 3).next_u64() for _ in range(1)
    ]
    s1 = [Rng.stream(7, 1).next_u64() for _ in range(8)]
    s2 = [Rng.stream(7, 2).next_u64() for _ in range(8)]
    assert s1 != s2


def test_uniform_bounds_and_mean():
    rng = Rng(42)
    draws = np.array([rng.uniform() for _ in range(10_000)])
    assert (draws >= 0.0).all() and (draws < 1.0).all()
    assert abs(draws.mean() - 0.5) < 0.02


def test_uniform_respects_range():
    rng = Rng(0)
    draws = rng.uniform_array((1000,), -2.0, 3.0)
    assert (draws >= -2.0).all() and (draws < 3.0).all()


def test_normal_moments():
    rng = Rng(9)
    draws = rng.normal_array((20_000,))
    assert abs(draws.mean()) < 0.03
    assert abs(draws.var() - 1.0) < 0.05


def test_integers_bounds_and_coverage():
    rng = Rng(5)
    draws = [rng.integers(7) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 6
    assert set(draws) == set(range(7))


def test_integers_takes_any_n_up_to_two_to_the_64_and_refuses_more():
    # above 2**64 no 64-bit draw covers the range, so rejection would never end
    assert Rng(5).integers(2**64) == Rng(5).next_u64()
    for n in (0, 2**64 + 1, 2**65):
        with pytest.raises(ValueError, match=f"got {n}"):
            Rng(5).integers(n)


def test_int_range_inclusive():
    rng = Rng(6)
    draws = {rng.int_range(3, 5) for _ in range(200)}
    assert draws == {3, 4, 5}


def test_shuffle_is_a_permutation_and_deterministic():
    items = list(range(20))
    a = items.copy()
    Rng(77).shuffle(a)
    b = items.copy()
    Rng(77).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # overwhelmingly likely for 20 elements


def test_sample_without_replacement():
    rng = Rng(8)
    picked = rng.sample_without_replacement(10, 4)
    assert len(picked) == 4
    assert len(set(picked)) == 4
    assert all(0 <= p < 10 for p in picked)


# lane boundaries of the block draw and powers of two either side
BLOCK_SIZES = [1023, 1024, 1025] + [(1 << k) + d for k in range(1, 13) for d in (-1, 0, 1)]


def _arbitrary_state(words):
    rng = Rng(0)
    rng._s0, rng._s1, rng._s2, rng._s3 = words
    return rng


STATES = st.tuples(*[st.integers(0, (1 << 64) - 1)] * 4).filter(any)
BLOCK_N = st.one_of(st.integers(0, 5000), st.sampled_from(BLOCK_SIZES))


@settings(deadline=None, max_examples=60)
@given(STATES, BLOCK_N)
def test_block_draw_equals_scalar_next_u64(words, n):
    block, scalar = _arbitrary_state(words), _arbitrary_state(words)
    got = block.next_u64_array(n)
    assert got.dtype == np.uint64 and got.shape == (n,)
    assert got.tolist() == [scalar.next_u64() for _ in range(n)]
    assert block.next_u64() == scalar.next_u64()


@settings(deadline=None, max_examples=60)
@given(STATES, BLOCK_N, st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
def test_block_uniform_equals_scalar_uniform(words, n, low, width):
    high = low + width
    block, scalar = _arbitrary_state(words), _arbitrary_state(words)
    scalar.normal()  # leaves a cached gaussian, which block draws must not touch
    block.normal()
    got = block.uniform_array((n,), low, high)
    want = np.array([scalar.uniform(low, high) for _ in range(n)], dtype=np.float64)
    assert got.tobytes() == want.tobytes()
    assert (block._s0, block._s1, block._s2, block._s3) == (
        scalar._s0, scalar._s1, scalar._s2, scalar._s3)
    assert block.normal() == scalar.normal()


def test_uniform_array_keeps_the_shape_in_c_order():
    got = Rng(3).uniform_array((2, 3, 4))
    scalar = Rng(3)
    assert got.shape == (2, 3, 4)
    assert got.reshape(-1).tolist() == [scalar.uniform() for _ in range(24)]
