import math

import numpy as np
import pytest

from acmil.bags import Bag
from acmil.losses import (
    backward,
    bag_loss,
    branch_loss,
    diversity_loss,
    total_loss,
)
from acmil.mil import StkimConfig, mba_forward
from acmil.model import ModelDims, init_model
from acmil.rng import Rng
from test_numerics import cosine_similarity


def make_trace(seed=0, m=3, n=10, label=1, prob=0.6, classes=2):
    dims = ModelDims(feature_dim=4, embed_dim=3, attn_dim=3, branches=m, classes=classes)
    model = init_model(dims, Rng.stream(seed, 0), seed=seed)
    bag = Bag(id="t", instances=Rng.stream(seed, 1).normal_array((n, 4)), label=label)
    trace = mba_forward(bag, model, StkimConfig(count=3, prob=prob), Rng(seed), training=True)
    return trace, bag, model


def test_branch_loss_perfect_prediction():
    probs = [np.array([0.0, 1.0]) for _ in range(4)]
    assert branch_loss(probs, 1) == pytest.approx(0.0, abs=1e-12)


def test_branch_loss_uniform_is_log_c():
    for c in (2, 3, 5):
        probs = [np.full(c, 1.0 / c) for _ in range(3)]
        assert branch_loss(probs, 0) == pytest.approx(math.log(c), abs=1e-12)


def test_branch_loss_hand_case():
    probs = [np.array([0.8, 0.2]), np.array([0.6, 0.4])]
    expected = -(math.log(0.8) + math.log(0.6)) / 2
    assert branch_loss(probs, 0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.3670, abs=5e-5)


def test_diversity_loss_identical_branches():
    a = np.array([0.5, 0.25, 0.25])
    assert diversity_loss([a, a, a]) == pytest.approx(1.0, abs=1e-12)


def test_diversity_loss_disjoint_supports():
    assert diversity_loss([np.array([1.0, 0.0]), np.array([0.0, 1.0])]) == 0.0


def test_diversity_loss_hand_case():
    # pairwise cosines (1, 0, 0) -> 2/(3*2) * 1 = 1/3
    a1 = np.array([1.0, 0.0])
    a3 = np.array([0.0, 1.0])
    assert diversity_loss([a1, a1.copy(), a3]) == pytest.approx(1 / 3, abs=1e-12)


def test_diversity_loss_single_branch_is_zero():
    assert diversity_loss([np.array([0.3, 0.7])]) == 0.0


def test_diversity_loss_range_on_random_heatmaps():
    rng = Rng(31)
    for _ in range(50):
        m = rng.int_range(2, 6)
        n = rng.int_range(2, 15)
        attns = []
        for _ in range(m):
            raw = rng.uniform_array((n,), 0.0, 1.0) + 1e-9
            attns.append(raw / raw.sum())
        val = diversity_loss(attns)
        assert 0.0 <= val <= 1.0 + 1e-12
        # reference: the pairwise loop over branches
        pairs = [cosine_similarity(attns[i], attns[j]) for i in range(m) for j in range(i + 1, m)]
        assert abs(val - 2.0 * sum(pairs) / (m * (m - 1))) < 1e-14


def test_bag_loss_cases():
    assert bag_loss(np.array([0.0, 1.0]), 1) == pytest.approx(0.0, abs=1e-12)
    assert bag_loss(np.full(4, 0.25), 2) == pytest.approx(math.log(4), abs=1e-12)
    assert bag_loss(np.array([0.1, 0.9]), 1) == pytest.approx(-math.log(0.9), abs=1e-12)
    assert -math.log(0.9) == pytest.approx(0.10536, abs=5e-6)


def test_bag_loss_clamps_zero_probability():
    assert bag_loss(np.array([1.0, 0.0]), 1) == pytest.approx(-math.log(1e-12), rel=1e-12)


def test_total_loss_additivity_and_fixed_order():
    trace, bag, _ = make_trace(seed=3, m=4)
    lb = total_loss(trace, bag.label)
    assert lb.total == (lb.bag + lb.branch) + lb.diversity
    again = total_loss(trace, bag.label)
    assert again.total == lb.total


def test_total_loss_single_branch_has_no_diversity():
    trace, bag, _ = make_trace(seed=5, m=1)
    lb = total_loss(trace, bag.label)
    assert lb.diversity == 0.0
    assert lb.total == lb.bag + lb.branch


def test_total_loss_composes_hand_examples():
    trace, bag, _ = make_trace(seed=7, m=2)
    lb = total_loss(trace, bag.label)
    expected = (
        bag_loss(trace.bag_probs, bag.label)
        + branch_loss([bt.probs for bt in trace.branches], bag.label)
    ) + diversity_loss([bt.attention for bt in trace.branches])
    assert lb.total == expected


def test_total_loss_identical_branches_perfect_prediction():
    trace, bag, _ = make_trace(seed=9, m=3, prob=0.0)
    label = bag.label
    one_hot = np.zeros_like(trace.bag_probs)
    one_hot[label] = 1.0
    trace.bag_probs = one_hot
    trace.branch_probs[:] = one_hot
    trace.attention[:] = trace.attention[0]
    lb = total_loss(trace, label)
    assert lb.total == pytest.approx(1.0, abs=1e-12)
    assert lb.diversity == pytest.approx(1.0, abs=1e-12)


def test_loss_invariant_under_instance_permutation():
    trace, bag, model = make_trace(seed=11, m=3, n=12, prob=0.0)
    perm = Rng(1).permutation(12)
    permuted = Bag(id="p", instances=bag.instances[perm], label=bag.label)
    trace_p = mba_forward(permuted, model, StkimConfig(count=3, prob=0.0), None, training=True)
    a, b = total_loss(trace, bag.label), total_loss(trace_p, bag.label)
    assert a.total == pytest.approx(b.total, abs=1e-10)
    assert a.bag == pytest.approx(b.bag, abs=1e-10)
    assert a.branch == pytest.approx(b.branch, abs=1e-10)


def test_zero_gradient_fixed_point():
    # one-hot heads and mutually orthogonal heatmaps: loss 0, head-bias grads 0
    trace, bag, model = make_trace(seed=13, m=3, n=10, prob=0.0)
    label = bag.label
    one_hot = np.zeros_like(trace.bag_probs)
    one_hot[label] = 1.0
    trace.bag_probs = one_hot.copy()
    trace.branch_probs[:] = one_hot
    trace.attention[:] = np.eye(3, 10)
    lb = total_loss(trace, label)
    assert lb.total == pytest.approx(0.0, abs=1e-12)
    grads = backward(trace, bag, model)
    assert np.max(np.abs(grads.bag_head_b)) < 1e-9
    assert np.max(np.abs(grads.head_b)) < 1e-9


def test_backward_clamped_probability_has_zero_head_gradient():
    trace, bag, model = make_trace(seed=15, m=2)
    skewed = np.zeros_like(trace.bag_probs)
    skewed[1 - bag.label] = 1.0 - 1e-13
    skewed[bag.label] = 1e-13
    trace.bag_probs = skewed
    grads = backward(trace, bag, model)
    assert not grads.bag_head_w.any()
    assert not grads.bag_head_b.any()


def test_backward_shapes_match_parameters():
    trace, bag, model = make_trace(seed=17, m=3, classes=4, label=2)
    grads = backward(trace, bag, model)
    assert grads.flat.shape == model.flat.shape
    for (name, p), (g_name, g) in zip(model.parameters(), grads.parameters()):
        assert g_name == name
        assert g.shape == p.shape
    assert np.all(np.isfinite(grads.flat))
