import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acmil.errors import NumericsError
from acmil.numerics import (
    finite_diff_check,
    sigmoid,
    softmax,
    stable_argsort_desc,
)
from acmil.rng import Rng


def cosine_similarity(u, v) -> float:
    """u.v / (|u| |v|); in [0, 1] for nonnegative inputs.  A test reference only."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("cosine_similarity requires two equal-length vectors")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine_similarity is undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_single_element():
    for x in (-500.0, 0.0, 3.7, 123.0):
        assert softmax([x]) == pytest.approx([1.0], abs=0.0)


def test_softmax_matches_high_precision_oracle():
    # oracle: evaluate exp(x - 3) / sum at 50 decimal digits
    mpmath.mp.dps = 50
    logits = [1.0, 2.0, 3.0]
    exps = [mpmath.exp(mpmath.mpf(x) - 3) for x in logits]
    total = sum(exps)
    expected = np.array([float(e / total) for e in exps])
    got = softmax(logits)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_softmax_sums_to_one_over_wide_range():
    rng = Rng(11)
    for _ in range(300):
        n = rng.int_range(1, 50)
        x = rng.uniform_array((n,), -500.0, 500.0)
        s = softmax(x)
        assert abs(s.sum() - 1.0) < 1e-12
        assert (s >= 0.0).all()


@given(hnp.arrays(np.float64, st.integers(1, 50),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_softmax_of_any_finite_vector_is_finite_and_sums_to_one(x):
    with np.errstate(over="ignore"):  # x - max x may overflow to -inf, whose exp is 0
        s = softmax(x)
    assert np.all(np.isfinite(s)) and (s >= 0.0).all()
    assert abs(s.sum() - 1.0) < 1e-12


def test_softmax_shift_invariance_exact_for_exact_shifts():
    # when x + c introduces no rounding the max subtraction cancels the
    # shift exactly, so outputs are bit-identical (well within 1e-15)
    rng = Rng(5)
    for _ in range(50):
        n = rng.int_range(2, 20)
        x = np.array([float(rng.int_range(-20, 20)) for _ in range(n)])
        c = float(rng.int_range(-200, 200))
        assert np.max(np.abs(softmax(x) - softmax(x + c))) <= 1e-15


def test_softmax_shift_invariance_real_shifts():
    # arbitrary shifts round the inputs themselves; the deviation stays at
    # the scale of that input rounding, not of exp overflow
    rng = Rng(5)
    for _ in range(50):
        x = rng.uniform_array((rng.int_range(2, 20),), -10.0, 10.0)
        c = rng.uniform(-100.0, 100.0)
        assert np.max(np.abs(softmax(x) - softmax(x + c))) < 2e-14


def test_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        softmax([])
    with pytest.raises(NumericsError):
        softmax([1.0, np.nan])


def test_sigmoid_matches_definition():
    x = np.linspace(-30, 30, 101)
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)


def test_cosine_identical_vectors():
    assert cosine_similarity([0.2, 0.8], [0.2, 0.8]) == pytest.approx(1.0, abs=1e-12)


def test_cosine_disjoint_support():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_hand_case():
    assert cosine_similarity([3.0, 4.0], [4.0, 3.0]) == pytest.approx(24 / 25, abs=1e-15)


def test_cosine_self_similarity_and_range():
    rng = Rng(3)
    for _ in range(100):
        n = rng.int_range(1, 20)
        u = rng.uniform_array((n,), -5.0, 5.0)
        v = rng.uniform_array((n,), -5.0, 5.0)
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            continue
        assert cosine_similarity(u, u) == pytest.approx(1.0, abs=1e-12)
        assert -1.0 - 1e-12 <= cosine_similarity(u, v) <= 1.0 + 1e-12
        assert 0.0 <= cosine_similarity(np.abs(u), np.abs(v)) <= 1.0 + 1e-12


def test_cosine_rejects_zero_vector():
    with pytest.raises(ValueError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


def test_stable_argsort_descending_with_ties():
    order = stable_argsort_desc(np.array([1.0, 3.0, 3.0, 2.0]))
    assert order.tolist() == [1, 2, 3, 0]
    # all-equal input keeps original order
    assert stable_argsort_desc(np.zeros(5)).tolist() == [0, 1, 2, 3, 4]


def test_stable_argsort_random_against_sorted_values():
    rng = Rng(17)
    for _ in range(50):
        n = rng.int_range(1, 30)
        # duplicates on purpose
        v = np.array([rng.integers(5) for _ in range(n)], dtype=np.float64)
        order = stable_argsort_desc(v)
        sorted_vals = v[order]
        assert (np.diff(sorted_vals) <= 0).all()
        for i in range(n - 1):
            if sorted_vals[i] == sorted_vals[i + 1]:
                assert order[i] < order[i + 1]


def test_finite_diff_check_quadratic():
    theta = np.array([3.0])
    err = finite_diff_check(lambda: theta[0] ** 2, [theta], [np.array([6.0])], eps=1e-4)
    assert err < 1e-8


def test_finite_diff_check_constant():
    theta = np.array([1.0, -2.0])
    err = finite_diff_check(lambda: 5.0, [theta], [np.zeros(2)], eps=1e-4)
    assert err == 0.0


def test_finite_diff_check_flags_wrong_gradient():
    theta = np.array([2.0])
    err = finite_diff_check(lambda: theta[0] ** 2, [theta], [np.array([1.0])], eps=1e-4)
    assert err > 1e-1


def test_finite_diff_check_propagates_non_finite():
    theta = np.array([0.0])
    with pytest.raises(NumericsError):
        finite_diff_check(lambda: math.inf, [theta], [np.zeros(1)], eps=1e-4)
