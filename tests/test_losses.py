import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acmil.bags import Bag
from acmil.losses import (
    GRAD_BLOCK_VALUES,
    LOG_CLAMP,
    _ce_dlogits,
    backward,
    branch_cosines,
    bag_loss,
    branch_loss,
    diversity_loss,
    total_loss,
)
from acmil.mil import StkimConfig, mba_forward
from acmil.model import ModelDims, Params, init_model
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


# logit biases of either sign, large enough that a label's probability can fall
# below LOG_CLAMP (or to exactly 0) while the logits stay finite
EXTREME = st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]),
                    st.floats(40.0, 1e300))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**16), label=st.integers(0, 1),
       bag_bias=hnp.arrays(np.float64, 2, elements=EXTREME),
       branch_bias=hnp.arrays(np.float64, (3, 2), elements=EXTREME))
def test_extreme_logits_keep_the_loss_and_gradients_finite(seed, label, bag_bias, branch_bias):
    _, bag, model = make_trace(seed=seed, m=3, label=label)
    model.bag_head_b[:] = bag_bias
    model.head_b[:] = branch_bias
    trace = mba_forward(bag, model, StkimConfig(count=3, prob=0.6), Rng(seed), training=True)
    loss = total_loss(trace, label)
    assert np.all(np.isfinite([loss.bag, loss.branch, loss.diversity, loss.total]))
    assert max(loss.bag, loss.branch) <= -math.log(LOG_CLAMP)
    grads = backward(trace, bag, model)
    assert np.all(np.isfinite(grads.flat))
    if trace.bag_probs[label] <= LOG_CLAMP:  # clamped: no gradient reaches the bag head
        assert not grads.bag_head_b.any()


def reference_backward(trace, bag, model, include_diversity=True):
    """Whole-bag backward, as it was before the gate gradient was built in row
    blocks over the trace's gates: a fresh (2, N, M·L) dP and a (2, N, E)
    product stack.  It leaves the trace as it found it."""
    label = bag.label
    m, l = model.dims.branches, model.dims.attn_dim
    h = trace.embeddings
    a = trace.attention
    grads = Params(model.dims)
    d_bag_logits = _ce_dlogits(trace.bag_probs, label)
    grads.bag_head_w[:] = np.outer(d_bag_logits, trace.bag_embedding)
    grads.bag_head_b[:] = d_bag_logits
    dz_bag = model.bag_head_w.T @ d_bag_logits
    d_logits = _ce_dlogits(trace.branch_probs, label) / m
    grads.head_w[:] = d_logits[:, :, None] * trace.branch_embeddings[:, None, :]
    grads.head_b[:] = d_logits
    dz = np.einsum("mce,mc->me", model.head_w, d_logits)
    d_attn = dz @ h.T + (h @ dz_bag) / m
    dh = np.outer(trace.heatmap, dz_bag) + a.T @ dz
    if include_diversity and m > 1:
        cos, norms = branch_cosines(a)
        off = 1.0 - np.eye(m)
        pair = off / np.outer(norms, norms)
        d_attn += 2.0 / (m * (m - 1)) * (pair @ a - ((cos * off).sum(1) / norms**2)[:, None] * a)
    keep = ~trace.zeroed
    raw = trace.raw_attention
    survivors = (raw * keep).sum(axis=1, keepdims=True)
    d_renorm = keep * (d_attn - (d_attn * a).sum(axis=1, keepdims=True)) / survivors
    d_raw = np.where(trace.renormalized[:, None], d_renorm, d_attn)
    d_scores = raw * (d_raw - (d_raw * raw).sum(axis=1, keepdims=True))
    n = h.shape[0]
    t, s = trace.gates
    grads.att_w[:] = np.einsum("nml,nml,mn->ml", t, s, d_scores)
    d_pre = np.empty_like(trace.gates)
    d_t, d_s = d_pre
    np.multiply(t, t, out=d_t)
    np.subtract(1.0, d_t, out=d_t)
    d_t *= s
    np.subtract(1.0, s, out=d_s)
    d_s *= s
    d_s *= t
    d_pre *= d_scores.T[:, :, None]
    d_pre *= model.att_w
    d_pre = d_pre.reshape(2, n, m * l)
    np.matmul(d_pre.transpose(0, 2, 1), h, out=grads.att_vu)
    dh += np.matmul(d_pre, model.att_vu).sum(axis=0)
    d_pre_embed = dh * (h > 0.0) if model.activation == "relu" else dh
    grads.embed_w[:] = d_pre_embed.T @ bag.instances
    grads.embed_b[:] = d_pre_embed.sum(axis=0)
    return grads


def block_rows(m, l):
    return max(1, GRAD_BLOCK_VALUES // (m * l))


@settings(deadline=None, max_examples=80)
@given(m=st.integers(1, 6), n=st.integers(1, 300), l=st.sampled_from([1, 7, 64, 200]),
       seed=st.integers(0, 2**16), activation=st.sampled_from(["relu", "identity"]),
       diversity=st.booleans(), prob=st.sampled_from([0.0, 0.5, 1.0]))
# a bag of exactly one, one more than one, and two blocks of rows
@example(m=5, n=block_rows(5, 64), l=64, seed=0, activation="relu", diversity=True, prob=0.5)
@example(m=5, n=block_rows(5, 64) + 1, l=64, seed=1, activation="relu", diversity=True, prob=0.5)
@example(m=6, n=2 * block_rows(6, 200), l=200, seed=2, activation="identity", diversity=False,
         prob=1.0)
def test_backward_matches_the_whole_bag_reference(m, n, l, seed, activation, diversity, prob):
    dims = ModelDims(feature_dim=5, embed_dim=4, attn_dim=l, branches=m, classes=3)
    model = init_model(dims, Rng.stream(seed, 0), activation, seed=seed)
    bag = Bag(id="t", instances=Rng.stream(seed, 1).normal_array((n, 5)), label=seed % 3)
    # count 3 masks some rows and, at p = 0.5, leaves others as they were
    trace = mba_forward(bag, model, StkimConfig(count=3, prob=prob), Rng(seed), training=True)
    twin = dataclasses.replace(trace, gates=trace.gates.copy())
    want = reference_backward(trace, bag, model, include_diversity=diversity)
    got = backward(trace, bag, model, include_diversity=diversity)
    assert got.flat.tobytes() == want.flat.tobytes()
    out = Params(dims, np.full(model.flat.size, np.nan))  # every value must be written
    assert backward(twin, bag, model, include_diversity=diversity, out=out) is out
    assert out.flat.tobytes() == want.flat.tobytes()


def test_backward_consumes_the_gates():
    trace, bag, model = make_trace(seed=19, m=3)
    backward(trace, bag, model)
    assert trace.gates is None
    with pytest.raises(ValueError, match="no gates"):
        backward(trace, bag, model)


def test_backward_refuses_out_of_another_shape():
    trace, bag, model = make_trace(seed=21, m=3)
    other = Params(ModelDims(feature_dim=4, embed_dim=3, attn_dim=3, branches=2, classes=2))
    with pytest.raises(ValueError, match="out holds gradients"):
        backward(trace, bag, model, out=other)
