import math

import numpy as np
import pytest

from acmil.bags import Bag
from acmil.errors import ConfigError
from acmil.mil import (
    StkimConfig,
    aggregate,
    average_heatmap,
    embed_instances,
    gated_attention,
    mba_forward,
    pooling_forward,
    stkim_mask,
)
from acmil.model import (
    Model,
    ModelDims,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from acmil.numerics import sigmoid, softmax
from acmil.rng import Rng


def tiny_model(seed=0, dims=None, activation="relu"):
    dims = dims or ModelDims(feature_dim=3, embed_dim=4, attn_dim=5, branches=2, classes=2)
    return init_model(dims, Rng.stream(seed, 0), activation=activation, seed=seed)


def random_bag(seed, n, d, label=0):
    return Bag(id=f"b{seed}", instances=Rng.stream(seed, 1).normal_array((n, d)), label=label)


# ---------------------------------------------------------------- embedding


def test_embed_zero_weights_gives_zero():
    model = tiny_model()
    model.embed_w[:] = 0.0
    model.embed_b[:] = 0.0
    h = embed_instances(random_bag(1, 5, 3), model)
    assert np.array_equal(h, np.zeros((5, 4)))


def test_embed_identity_on_nonnegative_input():
    dims = ModelDims(feature_dim=3, embed_dim=3, attn_dim=4, branches=1, classes=2)
    model = tiny_model(dims=dims)
    model.embed_w[:] = np.eye(3)
    model.embed_b[:] = 0.0
    x = np.abs(Rng(3).normal_array((6, 3)))
    h = embed_instances(Bag(id="x", instances=x, label=0), model)
    assert np.allclose(h, x, atol=0.0)


def test_embed_matches_explicit_matrix_arithmetic():
    model = tiny_model(seed=4)
    bag = random_bag(5, 2, 3)
    h = embed_instances(bag, model)
    # independent oracle: scalar loops
    for n in range(2):
        for e in range(4):
            acc = model.embed_b[e]
            for d in range(3):
                acc += model.embed_w[e, d] * bag.instances[n, d]
            assert h[n, e] == pytest.approx(max(acc, 0.0), abs=1e-12)


def test_embed_dimension_mismatch():
    model = tiny_model()
    with pytest.raises(ConfigError):
        embed_instances(random_bag(0, 4, 7), model)


# ---------------------------------------------------------------- attention


def test_gated_attention_single_instance():
    model = tiny_model()
    h = Rng(0).normal_array((1, 4))
    assert gated_attention(h, model).tolist() == [[1.0], [1.0]]


def test_gated_attention_identical_rows_uniform():
    model = tiny_model()
    h = np.tile(Rng(1).normal_array((1, 4)), (6, 1))
    assert np.allclose(gated_attention(h, model), np.full((2, 6), 1 / 6), atol=1e-12)


def test_gated_attention_hand_case():
    # E = L = 1: score_in = w_i * tanh(v_i h_n) * sigm(u_i h_n), two branches
    model = Model(ModelDims(feature_dim=1, embed_dim=1, attn_dim=1, branches=2, classes=2), "relu")
    model.att_v[:, 0, 0] = [2.0, -1.0]
    model.att_u[:, 0, 0] = [0.0, 3.0]
    model.att_w[:, 0] = [1.0, 0.5]
    h = np.array([[1.0], [-1.0]])
    s3 = 1.0 / (1.0 + math.exp(-3.0))  # sigm(3); sigm(-3) = 1 - s3
    scores = [
        [math.tanh(2.0) * 0.5, math.tanh(-2.0) * 0.5],
        [0.5 * math.tanh(-1.0) * s3, 0.5 * math.tanh(1.0) * (1.0 - s3)],
    ]
    expected = np.array([softmax(np.array(row)) for row in scores])
    got = gated_attention(h, model)
    assert np.max(np.abs(got - expected)) < 1e-12


# ---------------------------------------------------------------- stkim


def test_stkim_p_zero_is_identity():
    attn = softmax(Rng(2).normal_array((9,)))
    res = stkim_mask(attn, StkimConfig(count=3, prob=0.0), Rng(0), training=True)
    assert np.array_equal(res.attention, attn)
    assert not res.zeroed.any()
    assert not res.renormalized


def test_stkim_eval_is_bit_identical():
    attn = softmax(Rng(3).normal_array((14,)))
    res = stkim_mask(attn, StkimConfig(count=5, prob=0.9), None, training=False)
    assert res.attention is attn or np.array_equal(res.attention, attn)
    assert not res.zeroed.any()


def test_stkim_hand_case_full_mask_of_top2():
    attn = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
    res = stkim_mask(attn, StkimConfig(count=2, prob=1.0), Rng(0), training=True)
    assert np.max(np.abs(res.attention - [0.0, 0.0, 0.5, 1 / 3, 1 / 6])) < 1e-12
    assert res.zeroed.tolist() == [True, True, False, False, False]
    assert res.renormalized


def test_stkim_degenerate_all_masked_falls_back():
    res = stkim_mask(np.array([1.0]), StkimConfig(count=1, prob=1.0), Rng(0), training=True)
    assert res.attention.tolist() == [1.0]
    assert not res.zeroed.any()
    assert not res.renormalized


def test_stkim_fraction_resolution():
    assert StkimConfig(count=None, fraction=0.01, prob=0.5).resolve_k(350) == 4
    assert StkimConfig(count=None, fraction=0.01, prob=0.5).resolve_k(50) == 1
    assert StkimConfig(count=None, fraction=1.0, prob=0.5).resolve_k(7) == 7
    assert StkimConfig(count=12, prob=0.5).resolve_k(7) == 7


def test_stkim_only_top_k_indices_are_zeroed():
    for seed in range(30):
        rng = Rng.stream(seed, 0)
        n = rng.int_range(5, 40)
        # distinct values so the top-k set is unambiguous
        scores = np.array(rng.permutation(n), dtype=np.float64)
        attn = softmax(scores)
        k = rng.int_range(1, n)
        res = stkim_mask(attn, StkimConfig(count=k, prob=0.7), rng, training=True)
        top = set(np.argsort(-attn, kind="stable")[:k].tolist())
        assert set(np.nonzero(res.zeroed)[0].tolist()) <= top
        assert abs(res.attention.sum() - 1.0) < 1e-9
        assert (res.attention >= 0.0).all()


def test_stkim_masking_frequency_quick():
    attn = softmax(Rng(10).normal_array((20,)))
    top = np.argsort(-attn, kind="stable")[:4]
    rng = Rng(99)
    counts = np.zeros(20)
    trials = 2000
    for _ in range(trials):
        res = stkim_mask(attn, StkimConfig(count=4, prob=0.6), rng, training=True)
        counts += res.zeroed
    freqs = counts[top] / trials
    assert np.all(np.abs(freqs - 0.6) < 0.05)


def test_stkim_requires_rng_when_masking():
    attn = softmax(Rng(1).normal_array((5,)))
    with pytest.raises(ConfigError):
        stkim_mask(attn, StkimConfig(count=2, prob=0.5), None, training=True)


def test_stkim_config_from_dict_defaults():
    cfg = StkimConfig.from_dict({"prob": 0.8})
    assert cfg.count == 10 and cfg.fraction is None and cfg.prob == 0.8
    cfg = StkimConfig.from_dict({"fraction": 0.05, "prob": 0.5})
    assert cfg.count is None and cfg.fraction == 0.05
    rt = StkimConfig.from_dict(StkimConfig(count=7, prob=0.3).to_dict())
    assert (rt.count, rt.fraction, rt.prob) == (7, None, 0.3)


def test_stkim_config_validation():
    with pytest.raises(ConfigError):
        StkimConfig(count=None, fraction=None)
    with pytest.raises(ConfigError):
        StkimConfig(count=3, fraction=0.5)
    with pytest.raises(ConfigError):
        StkimConfig(count=None, fraction=1.5)
    with pytest.raises(ConfigError):
        StkimConfig(count=3, prob=1.2)


# ---------------------------------------------------------------- pooling ops


def test_aggregate_one_hot_and_uniform():
    h = Rng(4).normal_array((5, 3))
    one_hot = np.zeros(5)
    one_hot[2] = 1.0
    assert np.allclose(aggregate(one_hot, h), h[2], atol=0.0)
    assert np.allclose(aggregate(np.full(5, 0.2), h), h.mean(axis=0), atol=1e-15)


def test_aggregate_hand_case():
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(aggregate(np.array([0.25, 0.75]), h), [2.5, 3.5], atol=1e-15)


def test_average_heatmap_cases():
    a = softmax(Rng(5).normal_array((4,)))
    assert np.array_equal(average_heatmap([a]), a)
    assert np.allclose(average_heatmap([a, a]), a, atol=1e-15)
    assert np.allclose(
        average_heatmap([np.array([1.0, 0.0]), np.array([0.0, 1.0])]), [0.5, 0.5], atol=0.0
    )


# ---------------------------------------------------------------- forward


def abmil_oracle(bag, model):
    """Directly coded single-branch gated-attention pipeline."""
    h = np.maximum(bag.instances @ model.embed_w.T + model.embed_b, 0.0)
    gate = np.tanh(h @ model.att_v[0].T) * sigmoid(h @ model.att_u[0].T)
    attn = softmax(gate @ model.att_w[0])
    z = attn @ h
    probs = softmax(model.bag_head_w @ z + model.bag_head_b)
    return attn, z, probs


def test_single_branch_reduces_to_plain_pipeline():
    dims = ModelDims(feature_dim=6, embed_dim=5, attn_dim=4, branches=1, classes=3)
    model = tiny_model(seed=11, dims=dims)
    stkim = StkimConfig(count=10, prob=0.0)
    for seed in range(10):
        bag = random_bag(seed, 12, 6, label=seed % 3)
        trace = mba_forward(bag, model, stkim, Rng(seed), training=True)
        attn, z, probs = abmil_oracle(bag, model)
        assert np.max(np.abs(trace.heatmap - attn)) < 1e-12
        assert np.max(np.abs(trace.bag_embedding - z)) < 1e-12
        assert np.max(np.abs(trace.bag_probs - probs)) < 1e-12


def test_forward_eval_leaves_attention_unmasked():
    model = tiny_model(seed=2)
    bag = random_bag(3, 8, 3)
    trace = mba_forward(bag, model, StkimConfig(count=4, prob=0.9), None, training=False)
    for bt in trace.branches:
        assert np.array_equal(bt.attention, bt.raw_attention)
        assert not bt.zeroed.any()


def test_forward_attention_vectors_sum_to_one():
    model = tiny_model(seed=6)
    stkim = StkimConfig(count=3, prob=0.8)
    rng = Rng(1)
    for seed in range(10):
        trace = mba_forward(random_bag(seed, 15, 3), model, stkim, rng, training=True)
        for bt in trace.branches:
            assert abs(bt.attention.sum() - 1.0) < 1e-9
            assert (bt.attention >= 0.0).all()
        assert abs(trace.heatmap.sum() - 1.0) < 1e-9


def test_forward_bag_embedding_equals_mean_of_branch_embeddings():
    model = tiny_model(seed=7)
    stkim = StkimConfig(count=4, prob=0.7)
    rng = Rng(2)
    for seed in range(10):
        trace = mba_forward(random_bag(seed, 20, 3), model, stkim, rng, training=True)
        mean_z = np.mean([bt.embedding for bt in trace.branches], axis=0)
        assert np.max(np.abs(trace.bag_embedding - mean_z)) < 1e-10


def test_forward_composition_matches_component_ops():
    # compose the already-tested pieces manually, replaying the same masks
    dims = ModelDims(feature_dim=4, embed_dim=3, attn_dim=3, branches=3, classes=2)
    model = tiny_model(seed=9, dims=dims)
    bag = random_bag(21, 9, 4, label=1)
    stkim = StkimConfig(count=3, prob=0.6)
    trace = mba_forward(bag, model, stkim, Rng(33), training=True)

    h = embed_instances(bag, model)
    attns = []
    for i, raw in enumerate(gated_attention(h, model)):
        res = stkim_mask(raw, stkim, None, training=True, frozen_zeroed=trace.branches[i].zeroed)
        attns.append(res.attention)
        z_i = aggregate(res.attention, h)
        probs_i = softmax(model.head_w[i] @ z_i + model.head_b[i])
        assert np.max(np.abs(probs_i - trace.branches[i].probs)) < 1e-12
    heatmap = average_heatmap(attns)
    z = aggregate(heatmap, h)
    probs = softmax(model.bag_head_w @ z + model.bag_head_b)
    assert np.max(np.abs(probs - trace.bag_probs)) < 1e-12


def test_forward_permutation_invariance_at_p_zero():
    model = tiny_model(seed=13)
    bag = random_bag(14, 11, 3, label=1)
    stkim = StkimConfig(count=5, prob=0.0)
    trace = mba_forward(bag, model, stkim, Rng(0), training=True)
    perm = Rng(50).permutation(11)
    permuted = Bag(id="perm", instances=bag.instances[perm], label=bag.label)
    trace_p = mba_forward(permuted, model, stkim, Rng(0), training=True)
    assert np.max(np.abs(trace_p.heatmap - trace.heatmap[perm])) < 1e-10
    assert np.max(np.abs(trace_p.bag_probs - trace.bag_probs)) < 1e-10
    assert np.max(np.abs(trace_p.bag_embedding - trace.bag_embedding)) < 1e-10


# ---------------------------------------------------------------- baselines


def test_pooling_single_instance_max_equals_mean():
    model = tiny_model(seed=1)
    bag = random_bag(2, 1, 3)
    assert np.allclose(
        pooling_forward(bag, model, "max"), pooling_forward(bag, model, "mean"), atol=0.0
    )


def test_pooling_max_invariant_to_duplication():
    model = tiny_model(seed=3)
    base = Rng(8).normal_array((4, 3))
    bag1 = Bag(id="a", instances=base, label=0)
    bag2 = Bag(id="b", instances=np.vstack([base, base, base]), label=0)
    assert np.allclose(
        pooling_forward(bag1, model, "max"), pooling_forward(bag2, model, "max"), atol=0.0
    )


def test_pooling_hand_case():
    model = tiny_model(seed=5)
    bag = random_bag(6, 3, 3)
    h = embed_instances(bag, model)
    for mode, pooled in (("max", h.max(axis=0)), ("mean", h.mean(axis=0))):
        expected = softmax(model.bag_head_w @ pooled + model.bag_head_b)
        assert np.max(np.abs(pooling_forward(bag, model, mode) - expected)) < 1e-12


def test_pooling_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        pooling_forward(random_bag(0, 3, 3), tiny_model(), "median")


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    dims = ModelDims(feature_dim=5, embed_dim=4, attn_dim=3, branches=3, classes=4)
    model = tiny_model(seed=21, dims=dims)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, config={"note": "round-trip"})
    loaded, cfg = load_checkpoint(path)
    assert cfg == {"note": "round-trip"}
    for (name_a, a), (name_b, b) in zip(model.parameters(), loaded.parameters()):
        assert name_a == name_b
        assert np.array_equal(a, b)
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(loaded, path2, config={"note": "round-trip"})
    assert path.read_bytes() == path2.read_bytes()
