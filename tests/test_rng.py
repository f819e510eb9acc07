import numpy as np

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
